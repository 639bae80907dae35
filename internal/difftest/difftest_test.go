package difftest

import (
	"strings"
	"testing"

	"xok/internal/fault"
)

// TestFuzzSmoke is the tier-1 entry: a fixed-seed differential
// campaign across every personality. Every seed must agree — the
// personalities are each other's oracles.
func TestFuzzSmoke(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	div, err := Fuzz(Options{Seeds: seeds, Steps: 40, BaseSeed: 1})
	if err != nil {
		t.Fatalf("fuzz: %v", err)
	}
	if div != nil {
		prog, _ := Program(div.Token)
		t.Fatalf("divergence:\n%v\nprogram:\n%s", div, prog)
	}
}

// TestDeterminismSmoke runs each program twice per personality under a
// cloned (but quiet) fault plan and demands bit-identical results:
// outcomes, tree, audit, cycle count, trace digest.
func TestDeterminismSmoke(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	// Kill the fuzz process at its 60th syscall and arm torn writes:
	// faults that perturb the program mid-flight without touching
	// boot-time I/O (a media-error rate would fail mkfs reads too, and
	// a boot that cannot mkfs panics the personality).
	plan, err := fault.Parse("42:kill=60,killenv=fuzz,torn")
	if err != nil {
		t.Fatalf("parse plan: %v", err)
	}
	div, errF := Fuzz(Options{Seeds: seeds, Steps: 30, BaseSeed: 900, Faults: plan})
	if errF != nil {
		t.Fatalf("fuzz: %v", errF)
	}
	if div != nil {
		t.Fatalf("nondeterminism: %v", div)
	}
}

// TestSnapshotDeterminism: with the snapshot fast path on, determinism
// mode pits a from-boot run against a run forked from the
// personality's post-boot snapshot and demands bit-identical results —
// outcomes, tree, audit, cycle count, trace digest. This is the
// harness-level replay-equivalence proof that a snapshot captures the
// tracer and the fault plan's consumed state (syscall kill counter,
// xorshift stream positions): a fork that rewound any of them would
// land the kill or a torn write at a different point and fail the
// exact compare. Parallel workers fork from the shared snapshots
// concurrently.
func TestSnapshotDeterminism(t *testing.T) {
	plan, err := fault.Parse("42:kill=60,killenv=fuzz,torn")
	if err != nil {
		t.Fatalf("parse plan: %v", err)
	}
	div, errF := Fuzz(Options{Seeds: 4, Steps: 30, BaseSeed: 900, Faults: plan, Snapshot: true, Parallel: 4})
	if errF != nil {
		t.Fatalf("fuzz: %v", errF)
	}
	if div != nil {
		t.Fatalf("forked run diverged from boot run: %v", div)
	}
}

// TestSnapshotFuzzCrossPersonality: the normal cross-personality
// campaign with forking on must stay clean — every seed's five
// machines are forks of the five shared post-boot snapshots.
func TestSnapshotFuzzCrossPersonality(t *testing.T) {
	div, err := Fuzz(Options{Seeds: 8, Steps: 40, BaseSeed: 1, Snapshot: true, Parallel: 4})
	if err != nil {
		t.Fatalf("fuzz: %v", err)
	}
	if div != nil {
		prog, _ := Program(div.Token)
		t.Fatalf("divergence:\n%v\nprogram:\n%s", div, prog)
	}
}

// TestMutationCaught is the harness's own mutation test (the
// acceptance criterion): fake a single-errno divergence on one
// personality via the outcome hook and require that the fuzzer (a)
// catches it, (b) shrinks it to a minimal reproducer of at most 8
// calls, and (c) produces a token that replays the exact same
// divergence bit-identically.
func TestMutationCaught(t *testing.T) {
	// Flip the first OK outcome at step >= 5 on Xok/ExOS to ENOENT —
	// the shape of a real errno bug in one personality's syscall layer.
	mutate := func(personality string, step int, out string) string {
		if personality == "Xok/ExOS" && step == 5 && out == "OK" {
			return "ENOENT"
		}
		return out
	}
	var hit *Divergence
	var err error
	// Scan a few seeds for one whose step 5 normally returns OK.
	for base := uint64(1); base <= 20 && hit == nil; base++ {
		opt := Options{Seeds: 1, Steps: 40, BaseSeed: base}
		opt.mutate = mutate
		hit, err = Fuzz(opt)
		if err != nil {
			t.Fatalf("fuzz: %v", err)
		}
	}
	if hit == nil {
		t.Fatal("injected errno mutation was never caught")
	}
	if len(hit.Keep) > 8 {
		t.Fatalf("shrunk reproducer has %d calls, want <= 8 (token %s)", len(hit.Keep), hit.Token)
	}
	if hit.Token == "" {
		t.Fatal("divergence carries no replay token")
	}
	if !strings.Contains(hit.Where, "ENOENT") {
		t.Fatalf("divergence does not surface the mutated errno: %q", hit.Where)
	}

	// Replay the token twice; the reported divergence must be
	// bit-identical both times, and identical to the original report.
	replayOpt := Options{}
	replayOpt.mutate = mutate
	r1, err := Replay(hit.Token, replayOpt)
	if err != nil {
		t.Fatalf("replay 1: %v", err)
	}
	r2, err := Replay(hit.Token, replayOpt)
	if err != nil {
		t.Fatalf("replay 2: %v", err)
	}
	if r1 == nil || r2 == nil {
		t.Fatalf("token did not reproduce: %v / %v", r1, r2)
	}
	if r1.Where != r2.Where || r1.A != r2.A || r1.B != r2.B {
		t.Fatalf("replay not bit-identical:\n  %v\n  %v", r1, r2)
	}
	if r1.Where != hit.Where {
		t.Fatalf("replay differs from original:\n  %q\n  %q", r1.Where, hit.Where)
	}

	// With the mutation removed (the "bug" fixed), the token must come
	// back clean.
	clean, err := Replay(hit.Token, Options{})
	if err != nil {
		t.Fatalf("replay after fix: %v", err)
	}
	if clean != nil {
		t.Fatalf("token still diverges without the mutation: %v", clean)
	}
}

func TestTokenRoundTrip(t *testing.T) {
	cases := []struct {
		seed  uint64
		steps int
		keep  []int
	}{
		{7, 40, []int{0, 1, 2, 3}},
		{7, 40, allSteps(40)},
		{123456, 50, []int{3, 4, 5, 9, 17}},
		{1, 10, []int{9}},
	}
	for _, c := range cases {
		tok := encodeToken(c.seed, c.steps, c.keep)
		seed, steps, keep, err := ParseToken(tok)
		if err != nil {
			t.Fatalf("%s: %v", tok, err)
		}
		if seed != c.seed || steps != c.steps || len(keep) != len(c.keep) {
			t.Fatalf("%s -> %d %d %v, want %d %d %v", tok, seed, steps, keep, c.seed, c.steps, c.keep)
		}
		for i := range keep {
			if keep[i] != c.keep[i] {
				t.Fatalf("%s: keep %v != %v", tok, keep, c.keep)
			}
		}
	}
	for _, bad := range []string{"", "7", "7:40", "x:40:all", "7:0:all", "7:40:5-60", "7:40:"} {
		if _, _, _, err := ParseToken(bad); err == nil {
			t.Errorf("ParseToken(%q) accepted", bad)
		}
	}
}

// TestShrinkMinimal checks ddmin on a synthetic predicate: the failure
// needs exactly the (sparse) culprit set, and shrink must find it.
func TestShrinkMinimal(t *testing.T) {
	culprits := map[int]bool{3: true, 17: true, 31: true}
	reproduces := func(keep []int) bool {
		have := 0
		for _, i := range keep {
			if culprits[i] {
				have++
			}
		}
		return have == len(culprits)
	}
	got := shrink(allSteps(40), reproduces)
	if len(got) != len(culprits) {
		t.Fatalf("shrink -> %v, want exactly the culprits", got)
	}
	for _, i := range got {
		if !culprits[i] {
			t.Fatalf("shrink kept non-culprit %d: %v", i, got)
		}
	}
}

// TestGenerateStable pins the generator's output for one seed: replay
// tokens are only meaningful if Generate(seed, n) never drifts. If
// this test breaks, the generator changed and old tokens are void —
// that must be a deliberate decision, not an accident.
func TestGenerateStable(t *testing.T) {
	a := Generate(7, 40)
	b := Generate(7, 40)
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("step %d differs across calls: %s vs %s", i, a[i], b[i])
		}
	}
	// Digest the rendered program; update this constant only when
	// intentionally changing the generator (and say so in the commit).
	h := uint64(0)
	for _, s := range a {
		h = fnv1a(h, []byte(s.String()))
		h = fnv1a(h, []byte{'\n'})
	}
	const want = uint64(0xcd4de99677e4030d)
	if h != want {
		t.Fatalf("generator drift: program digest %#x, want %#x", h, want)
	}
	t.Logf("program digest %#x", h)
}

// fillPayload writes the byte-by-byte pattern at every length.
func TestFillPayload(t *testing.T) {
	for _, n := range []int{0, 1, 6, 7, 8, 13, 14, 15, 100, 4096, 65537} {
		buf := make([]byte, n)
		fillPayload(buf, 0xF3)
		for i, b := range buf {
			if b != 0xF3+byte(i%7) {
				t.Fatalf("len %d: byte %d = %#x, want %#x", n, i, b, 0xF3+byte(i%7))
			}
		}
	}
}
