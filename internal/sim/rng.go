package sim

// RNG is a small deterministic pseudo-random generator (xorshift64*).
// The global-performance experiments (Figures 4 and 5) depend on the
// paper's property that "the pseudo-random number generators are
// identical and start with the same seed, thus producing identical
// schedules" across the systems being compared — so the simulation
// carries its own generator rather than using math/rand, whose stream
// is not part of our compatibility surface.
type RNG struct {
	s uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped
// to a fixed non-zero constant (xorshift state must be non-zero).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{s: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
