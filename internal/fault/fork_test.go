package fault

import "testing"

// TestForkResumesStreams is the contract snapshots depend on: Fork
// preserves the read-error stream's consumed xorshift position, so a
// forked plan draws the same continuation the original would — while
// Clone rewinds to the start of the stream. A machine forked mid-run must
// see the fault schedule it would have seen from boot; a Fork that
// rewound (behaved like Clone) would re-deal the prefix's faults.
func TestForkResumesStreams(t *testing.T) {
	p := &Plan{Seed: 5, ReadErrRate: 4}
	draw := func(q *Plan, n int) []bool {
		out := make([]bool, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, q.ReadError())
		}
		return out
	}
	eq := func(a, b []bool) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	prefix := draw(p, 57)
	f := p.Fork()
	c := p.Clone()

	cont := draw(p, 100)
	if got := draw(f, 100); !eq(got, cont) {
		t.Fatal("fork did not resume the streams mid-position")
	}
	full := draw(c, 157)
	if !eq(full[:len(prefix)], prefix) || !eq(full[len(prefix):], cont) {
		t.Fatal("clone did not rewind the streams to the start")
	}
}

// TestForkPreservesKillCounter: the kill-at-Nth-syscall channel is a
// counter plus a one-shot latch, both consumed state; a fork must pick
// up the count mid-sequence so the kill fires at the same absolute
// syscall whether the run forked or not.
func TestForkPreservesKillCounter(t *testing.T) {
	p := &Plan{Seed: 1, KillSyscallNth: 12}
	for i := 0; i < 9; i++ {
		if p.KillNow("fuzz") {
			t.Fatalf("kill fired at syscall %d, want 12", i+1)
		}
	}
	f := p.Fork()
	for i := 0; i < 2; i++ {
		if f.KillNow("fuzz") {
			t.Fatalf("forked kill fired at syscall %d, want 12", 10+i)
		}
	}
	if !f.KillNow("fuzz") {
		t.Fatal("forked kill did not fire at the 12th syscall")
	}
	if !f.Killed() {
		t.Fatal("forked latch not set after firing")
	}
	// The original is untouched by the fork's draws, and a fork taken
	// after the latch fires stays fired.
	if p.Killed() {
		t.Fatal("fork's kill leaked back into the original")
	}
	if !f.Fork().Killed() {
		t.Fatal("fork of a fired plan re-armed the kill")
	}
}
