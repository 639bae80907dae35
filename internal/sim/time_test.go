package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1); got != CPUHz {
		t.Fatalf("FromSeconds(1) = %d, want %d", got, CPUHz)
	}
	if got := FromMicros(1); got != 200 {
		t.Fatalf("FromMicros(1) = %d, want 200", got)
	}
	if got := FromMillis(1); got != 200_000 {
		t.Fatalf("FromMillis(1) = %d, want 200000", got)
	}
	if got := Time(200).Micros(); got != 1 {
		t.Fatalf("Micros = %v, want 1", got)
	}
	if got := FromSeconds(41).Seconds(); got != 41 {
		t.Fatalf("Seconds round trip = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{FromSeconds(41), "41.00s"},
		{FromMillis(6), "6.00ms"},
		{FromMicros(13), "13.00us"},
		{Time(99), "99cy"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", uint64(c.in), got, c.want)
		}
	}
}

func TestTimeRoundTripProperty(t *testing.T) {
	// Microsecond-scale round trips must be exact: the constants are
	// integral multiples of the cycle.
	f := func(us uint32) bool {
		v := us % 10_000_000
		return FromMicros(float64(v)).Micros() == float64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelSanity(t *testing.T) {
	// Table 2 calibration: a 1-byte shared-memory pipe transfer is
	// ~13us; two 8-KB copies must add roughly 137us more.
	twoCopies := CopyCost(8192) * 2
	if twoCopies < FromMicros(120) || twoCopies > FromMicros(150) {
		t.Fatalf("two 8-KB copies = %v, want ~137us", twoCopies)
	}
	// getpid calibration (Section 7.1): trap path vs library path.
	bsd := CostTrapBSD + CostGetpidWork
	exos := CostLibCall + CostGetpidWork
	if bsd < 250 || bsd > 290 {
		t.Fatalf("BSD getpid = %d cycles, want ~270", bsd)
	}
	if exos < 90 || exos > 110 {
		t.Fatalf("ExOS getpid = %d cycles, want ~100", exos)
	}
	// Fork costs (Section 6.2): 6 ms vs <1 ms.
	if CostForkExOS.Millis() != 6 {
		t.Fatalf("ExOS fork = %v, want 6ms", CostForkExOS)
	}
	if CostForkBSD.Millis() >= 1 {
		t.Fatalf("BSD fork = %v, want <1ms", CostForkBSD)
	}
}

func TestWireTime(t *testing.T) {
	// A full MTU frame is (1500+38)*8 bits at 100 Mbit/s = 123.04us.
	wt := WireTimeAt(EthernetMTU, LinkBandwidthBps)
	if wt.Micros() < 120 || wt.Micros() > 126 {
		t.Fatalf("WireTimeAt(MTU) = %v, want ~123us", wt)
	}
	if WireTimeAt(0, LinkBandwidthBps) == 0 {
		t.Fatal("zero-byte frame must still cost framing overhead")
	}
}

func TestStats(t *testing.T) {
	s := NewStats()
	s.Inc(CtrSyscalls)
	s.Add(CtrSyscalls, 2)
	s.Add(CtrDiskReads, 7)
	if s.Get(CtrSyscalls) != 3 {
		t.Fatalf("syscalls = %d, want 3", s.Get(CtrSyscalls))
	}
	if s.Get("missing") != 0 {
		t.Fatal("missing counter should be 0")
	}
	if !strings.Contains(s.String(), "disk_reads=7") {
		t.Fatalf("String() = %q", s.String())
	}
	names := s.Names()
	if len(names) != 2 || names[0] != CtrDiskReads {
		t.Fatalf("Names() = %v", names)
	}
	// nil Stats must be safe to use.
	var nils *Stats
	nils.Inc("x")
	if nils.Get("x") != 0 {
		t.Fatal("nil stats should read 0")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}
