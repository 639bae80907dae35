package fault

import (
	"hash/fnv"
	"reflect"
	"testing"

	"xok/internal/sim"
)

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if p.ReadError() || p.Torn() || p.KillNow("x") || p.Killed() {
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
			out = append(out, p.ReadError())
		}
		return out
	}
	a := draw(&Plan{Seed: 7, ReadErrRate: 4})
	b := draw(&Plan{Seed: 7, ReadErrRate: 4})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	// The stream is seeded from Seed and the FNV-1a hash of
	// "disk.read", so a plan's read-error schedule never moves.
	h := fnv.New64a()
	h.Write([]byte("disk.read"))
	ref := sim.NewRNG(7 ^ h.Sum64())
	for i := range a {
		if want := ref.Intn(4) == 0; a[i] != want {
			t.Fatalf("read-error stream departs from its seed derivation at draw %d", i)
		}
	}
	// Counting syscalls toward a kill must not perturb the stream.
	c := &Plan{Seed: 7, ReadErrRate: 4, KillSyscallNth: 50}
	for i := 0; i < 200; i++ {
		c.KillNow("env")
		if got := c.ReadError(); got != a[i] {
			t.Fatalf("read-error stream perturbed by the kill counter at draw %d", i)
		}
	}
	hits := 0
	for _, v := range a {
		if v {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("read-error rate 1/4 produced %d/200 hits", hits)
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

// parseInputs are TestParseRoundTrip's inputs, accepted and rejected;
// FuzzParse starts from them.
var (
	parseGood = []string{"1234:kill=100,killenv=mab,readerr=64,torn", "0x10", "42:torn", "42:kill=60,killenv=fuzz"}
	parseBad  = []string{"", "x:torn", "1:frob=2", "1:readerr", "1:torn=1", "1:loss=2"}
)

func TestParseRoundTrip(t *testing.T) {
	p, err := Parse(parseGood[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 1234 || p.ReadErrRate != 64 || !p.TornWrites || p.KillSyscallNth != 100 || p.KillEnv != "mab" {
		t.Fatalf("parsed %+v", p)
	}
	if s := p.String(); s != parseGood[0] {
		t.Fatalf("String = %q", s)
	}
	if p2, err := Parse("0x10"); err != nil || p2.Seed != 16 {
		t.Fatalf("hex seed: %+v, %v", p2, err)
	}
	for _, bad := range parseBad {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// FuzzParse: any string Parse accepts renders through String to one
// that Parse turns back into an equal plan.
func FuzzParse(f *testing.F) {
	for _, s := range parseGood {
		f.Add(s)
	}
	for _, s := range parseBad {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %#v, but its String %q does not parse: %v", s, p, p.String(), err)
		}
		if !reflect.DeepEqual(q, p) {
			t.Fatalf("Parse(%q) = %#v, but its String %q parses to %#v", s, p, p.String(), q)
		}
	})
}
