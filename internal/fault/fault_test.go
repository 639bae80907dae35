package fault

import (
	"testing"

	"xok/internal/sim"
)

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if p.ReadError() || p.Torn() || p.DropSegment() ||
		p.DupSegment() || p.ReorderSegment() || p.KillNow("x") || p.Killed() {
		t.Fatal("nil plan injected a fault")
	}
	p.NoteWrite(0, 0, 1) // must not panic
	if p.String() != "<none>" {
		t.Fatalf("nil String = %q", p.String())
	}
}

func TestChannelsAreIndependentAndDeterministic(t *testing.T) {
	draw := func(p *Plan) []bool {
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, p.DropSegment())
		}
		return out
	}
	a := draw(&Plan{Seed: 7, LossRate: 4})
	b := draw(&Plan{Seed: 7, LossRate: 4})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	// Arming an unrelated channel must not perturb the loss stream.
	c := &Plan{Seed: 7, LossRate: 4, DupRate: 3, ReadErrRate: 5}
	for i := 0; i < 200; i++ {
		c.DupSegment()
		c.ReadError()
		if got := c.DropSegment(); got != a[i] {
			t.Fatalf("loss stream perturbed by other channels at draw %d", i)
		}
	}
	hits := 0
	for _, v := range a {
		if v {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("loss rate 1/4 produced %d/200 hits", hits)
	}
}

func TestKillFiresOnceAtNthSyscall(t *testing.T) {
	p := &Plan{KillSyscallNth: 3, KillEnv: "victim"}
	seq := []struct {
		env  string
		want bool
	}{
		{"bystander", false},
		{"victim-1", false},
		{"victim-1", false},
		{"victim-1", true},  // 3rd matching syscall
		{"victim-1", false}, // one-shot
		{"victim-2", false},
	}
	for i, s := range seq {
		if got := p.KillNow(s.env); got != s.want {
			t.Fatalf("step %d (%s): KillNow = %v, want %v", i, s.env, got, s.want)
		}
	}
	if !p.Killed() {
		t.Fatal("Killed not latched")
	}
}

func TestWriteObserver(t *testing.T) {
	p := &Plan{}
	var got []int64
	p.ObserveWrites(func(at sim.Time, block int64, count int) {
		got = append(got, block, int64(count))
	})
	p.NoteWrite(10, 42, 3)
	if len(got) != 2 || got[0] != 42 || got[1] != 3 {
		t.Fatalf("observer saw %v", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	p, err := Parse("1234:dup=8,kill=100,killenv=mab,loss=16,readerr=64,reorder=32,torn")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 1234 || p.LossRate != 16 || p.DupRate != 8 || p.ReorderRate != 32 ||
		p.ReadErrRate != 64 || !p.TornWrites || p.KillSyscallNth != 100 || p.KillEnv != "mab" {
		t.Fatalf("parsed %+v", p)
	}
	if s := p.String(); s != "1234:dup=8,kill=100,killenv=mab,loss=16,readerr=64,reorder=32,torn" {
		t.Fatalf("String = %q", s)
	}
	if p2, err := Parse("0x10"); err != nil || p2.Seed != 16 {
		t.Fatalf("hex seed: %+v, %v", p2, err)
	}
	for _, bad := range []string{"", "x:loss=1", "1:frob=2", "1:loss", "1:torn=1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}
