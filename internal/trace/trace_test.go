package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"xok/internal/sim"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// Every method must be a no-op, not a crash.
	pid := tr.AddProcess("x")
	tr.NameLane(pid, 1, "lane")
	tr.Span(pid, 1, "cat", "name", 0, 10)
	tr.Instant(pid, 1, "cat", "name", 5)
	tr.Observe(pid, "h", 10)
	tr.Count(pid, "c", 1)
	if tr.Hist(pid, "h") != nil || tr.Spans() != nil || tr.Events() != 0 {
		t.Fatal("nil tracer returned data")
	}
	var buf bytes.Buffer
	if err := tr.WriteHistReport(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestSpanRecording(t *testing.T) {
	tr := New()
	pid := tr.AddProcess("m1")
	tr.Span(pid, 3, "disk", "service", 100, 250, Arg{"block", "7"})
	tr.Span(pid, 3, "disk", "service", 300, 280) // end < begin clamps
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	s := spans[0]
	if s.PID != pid || s.TID != 3 || s.Cat != "disk" || s.Name != "service" ||
		s.Begin != 100 || s.End != 250 || len(s.Args) != 1 || s.Args[0].Val != "7" {
		t.Fatalf("bad span: %+v", s)
	}
	if spans[1].End != spans[1].Begin {
		t.Fatalf("end<begin not clamped: %+v", spans[1])
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram("t")
	// 1..1000 cycles uniformly: p50 ~ 500, p99 ~ 990.
	for i := 1; i <= 1000; i++ {
		h.Observe(sim.Time(i))
	}
	if h.Count() != 1000 || h.min != 1 || h.Max() != 1000 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count(), h.min, h.Max())
	}
	if m := h.Mean(); m != 500 {
		t.Fatalf("mean = %d, want 500", m)
	}
	p50 := h.Quantile(0.50)
	if p50 < 300 || p50 > 700 {
		t.Fatalf("p50 = %d, want ~500 (log-bucket tolerance)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900 || p99 > 1000 {
		t.Fatalf("p99 = %d, want ~990", p99)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("q0 = %d, want min", q)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("q1 = %d, want max", q)
	}
}

func TestHistogramZerosAndSingleton(t *testing.T) {
	h := newHistogram("z")
	h.Observe(0)
	h.Observe(0)
	if h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("zero samples mishandled")
	}
	h2 := newHistogram("s")
	h2.Observe(12345)
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h2.Quantile(q); got != 12345 {
			t.Fatalf("singleton quantile(%v) = %d", q, got)
		}
	}
}

func TestObserveKeyedPerProcess(t *testing.T) {
	tr := New()
	a := tr.AddProcess("a")
	b := tr.AddProcess("b")
	tr.Observe(a, "lat", 10)
	tr.Observe(b, "lat", 20)
	if tr.Hist(a, "lat").Count() != 1 || tr.Hist(b, "lat").Count() != 1 {
		t.Fatal("histograms not keyed per process")
	}
	if tr.Hist(a, "lat") == tr.Hist(b, "lat") {
		t.Fatal("processes share a histogram")
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	tr := New()
	pid := tr.AddProcess("xok")
	tr.NameLane(pid, 1, "disk spindle 0")
	tr.Span(pid, 1, "disk", "service", sim.FromMicros(10), sim.FromMicros(35),
		Arg{"block", "42"}, Arg{"seek", "8ms"})
	tr.Instant(pid, 1, "disk", "queue", sim.FromMicros(5))
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// 2 process_name + 1 thread_name + 2 events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("events = %d, want 5", len(doc.TraceEvents))
	}
	var sawSpan bool
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			sawSpan = true
			if ev["ts"].(float64) != 10 || ev["dur"].(float64) != 25 {
				t.Fatalf("span ts/dur wrong: %v", ev)
			}
			args := ev["args"].(map[string]any)
			if args["block"] != "42" {
				t.Fatalf("span args wrong: %v", ev)
			}
		}
	}
	if !sawSpan {
		t.Fatal("no X-phase span in export")
	}
}

// TestChromeExportDeterministic names the same lanes in two different
// orders: the exports must be byte-identical, lane names sorted by
// (pid, tid).
func TestChromeExportDeterministic(t *testing.T) {
	lanes := []struct {
		tid  int64
		name string
	}{{1, "disk spindle 0"}, {100, "env 0 (init)"}, {101, "env 1 (sh)"}, {10000, "conn 0"}, {7, "nic"}}
	export := func(order []int) []byte {
		tr := New()
		a := tr.AddProcess("xok")
		b := tr.AddProcess("freebsd")
		for _, i := range order {
			tr.NameLane(b, lanes[i].tid, lanes[i].name)
			tr.NameLane(a, lanes[i].tid, lanes[i].name)
		}
		tr.Span(a, 1, "disk", "read", sim.FromMicros(1), sim.FromMicros(9))
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fwd := export([]int{0, 1, 2, 3, 4})
	rev := export([]int{4, 3, 2, 1, 0})
	if !bytes.Equal(fwd, rev) {
		t.Fatalf("exports differ with lane naming order:\n%s\n---\n%s", fwd, rev)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			PID  int64  `json:"pid"`
			TID  int64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(fwd, &doc); err != nil {
		t.Fatal(err)
	}
	var prev [2]int64
	n := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name != "thread_name" {
			continue
		}
		if n > 0 && (ev.PID < prev[0] || ev.PID == prev[0] && ev.TID <= prev[1]) {
			t.Fatalf("lane (%d, %d) after (%d, %d)", ev.PID, ev.TID, prev[0], prev[1])
		}
		prev = [2]int64{ev.PID, ev.TID}
		n++
	}
	if n != 2*len(lanes) {
		t.Fatalf("%d thread_name records, want %d", n, 2*len(lanes))
	}
}

func TestHistReport(t *testing.T) {
	tr := New()
	pid := tr.AddProcess("xok")
	for i := 1; i <= 100; i++ {
		tr.Observe(pid, "disk.service", sim.FromMicros(float64(i*100)))
	}
	tr.Count(pid, "events", 321)
	var buf bytes.Buffer
	if err := tr.WriteHistReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"xok/disk.service", "p50", "p99", "xok/events", "321"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestEventCapDrops(t *testing.T) {
	old := MaxEvents
	MaxEvents = 100
	defer func() { MaxEvents = old }()
	tr := New()
	for i := 0; i < MaxEvents+10; i++ {
		tr.Instant(0, 0, "c", "n", sim.Time(i))
	}
	if tr.Events() != 100 {
		t.Fatalf("events = %d, want cap 100", tr.Events())
	}
	if tr.Dropped() != 10 {
		t.Fatalf("dropped = %d, want 10", tr.Dropped())
	}
}

// leg simulates one machine's worth of activity on a tracer: register
// a process named name, emit a span, a histogram sample and a counter
// bump under it.
func mergeLeg(tr *Tracer, name string, d sim.Time) {
	pid := tr.AddProcess(name)
	tr.NameLane(pid, 1, name+"-lane")
	tr.Span(pid, 1, "cat", "work", 0, d)
	tr.Observe(pid, "latency", d)
	tr.Count(pid, "events", 1)
}

// TestMergeMatchesSerial is the contract parallel experiment runs rely
// on: per-leg tracers merged in leg order must be digest-identical to
// one tracer that saw the legs sequentially.
func TestMergeMatchesSerial(t *testing.T) {
	serial := New()
	mergeLeg(serial, "A", 10)
	mergeLeg(serial, "B", 20)
	mergeLeg(serial, "C", 30)

	merged := New()
	for _, leg := range []struct {
		name string
		d    sim.Time
	}{{"A", 10}, {"B", 20}, {"C", 30}} {
		per := New()
		mergeLeg(per, leg.name, leg.d)
		merged.Merge(per)
	}

	if got, want := merged.Digest(), serial.Digest(); got != want {
		t.Fatalf("merged digest %#x != serial digest %#x", got, want)
	}
	if merged.Events() != serial.Events() {
		t.Fatalf("events %d != %d", merged.Events(), serial.Events())
	}
	// Histogram keys are process-name based and must line up too.
	for _, name := range []string{"A", "B", "C"} {
		hs := serial.hists[name+"/latency"]
		hm := merged.hists[name+"/latency"]
		if hs == nil || hm == nil || hs.Count() != hm.Count() ||
			hs.min != hm.min || hs.Max() != hm.Max() || hs.Sum() != hm.Sum() {
			t.Fatalf("histogram %s/latency diverged: serial=%+v merged=%+v", name, hs, hm)
		}
	}
}

// TestMergeSameProcessName checks samples under the same process name
// fold into one histogram/counter rather than clobbering.
func TestMergeSameProcessName(t *testing.T) {
	dst := New()
	mergeLeg(dst, "m", 10)
	src := New()
	mergeLeg(src, "m", 30)
	dst.Merge(src)

	h := dst.hists["m/latency"]
	if h == nil || h.Count() != 2 || h.min != 10 || h.Max() != 30 || h.Sum() != 40 {
		t.Fatalf("merged histogram = %+v, want n=2 min=10 max=30 sum=40", h)
	}
	if dst.counts["m/events"] != 2 {
		t.Fatalf("merged counter = %d, want 2", dst.counts["m/events"])
	}
	// Both processes keep distinct pids (swimlanes) even with one name.
	if len(dst.procs) != 3 {
		t.Fatalf("procs = %v, want [sim m m]", dst.procs)
	}
}

// TestMergeRespectsCap checks MaxEvents still bounds the merged buffer
// with dropped accounting.
func TestMergeRespectsCap(t *testing.T) {
	old := MaxEvents
	MaxEvents = 10
	defer func() { MaxEvents = old }()
	dst := New()
	for i := 0; i < 8; i++ {
		dst.Instant(0, 0, "c", "n", sim.Time(i))
	}
	src := New()
	for i := 0; i < 5; i++ {
		src.Instant(0, 0, "c", "n", sim.Time(i))
	}
	dst.Merge(src)
	if dst.Events() != 10 {
		t.Fatalf("events = %d, want cap 10", dst.Events())
	}
	if dst.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", dst.Dropped())
	}

	// Merging a nil source is a no-op.
	dst.Merge(nil)
	if dst.Events() != 10 || dst.Dropped() != 3 {
		t.Fatal("nil merge changed state")
	}
}
