// Package trace is the simulation's observability layer: typed span
// records over virtual time, fixed-bucket latency histograms, and
// exporters producing Chrome trace_event JSON and a plain-text
// histogram report.
//
// The paper's results are accounting tables — crossings, copies,
// seeks, sync writes — and sim.Stats captures those totals. What flat
// counters cannot show is *where the time went per request*: how long
// a disk request sat in the driver queue versus seeking versus
// transferring, what the tail of the HTTP request latency
// distribution looks like, when an environment was switched out.
// Tracer records exactly that, at virtual-time resolution, for any
// simulated machine.
//
// # Zero overhead when disabled
//
// Every method is safe (and a near-free no-op) on a nil *Tracer; the
// subsystems that emit spans hold a plain *Tracer pointer and the
// disabled path is a nil check. No allocation, no locking, no clock
// reads happen unless a tracer is attached.
//
// Like sim.Engine, a Tracer is not safe for concurrent use. A
// machine's environments are coroutines of its host goroutine
// (internal/kernel), so only one goroutine per machine touches it at
// a time; attach distinct machines to one Tracer only when they
// run sequentially. Machines running concurrently (internal/parallel)
// each get their own Tracer, folded together afterwards with Merge.
package trace

import (
	"fmt"

	"xok/internal/sim"
)

// Arg is one key=value annotation on a span or instant event. Values
// are pre-rendered strings so recording never needs reflection.
type Arg struct {
	Key string
	Val string
}

// Phases of recorded events (a subset of the Chrome trace_event
// phases).
const (
	phaseComplete = 'X' // a span with begin and end
	phaseInstant  = 'i' // a point event
)

// Span is one recorded interval, in the coordinates of the machine
// (PID) and lane (TID) that emitted it.
type Span struct {
	PID   int64
	TID   int64
	Cat   string
	Name  string
	Begin sim.Time
	End   sim.Time
	Args  []Arg
}

// event is the internal record for both spans and instants.
type event struct {
	phase byte
	pid   int64
	tid   int64
	cat   string
	name  string
	begin sim.Time // instant events: the timestamp
	end   sim.Time
	args  []Arg
}

// MaxEvents bounds the event buffer; past it, new span/instant records
// are counted as dropped rather than stored (histograms and counters
// keep exact totals regardless). A Figure-2 run emits hundreds of
// thousands of syscall spans; the cap keeps a full-suite trace bounded
// in memory. A variable so tools (and tests) can resize it before
// recording starts.
var MaxEvents = 1 << 21

// Tracer collects events, histograms and counters for one or more
// sequentially-run machines.
type Tracer struct {
	events  []event
	dropped int64

	// histOnly tracers (NewHistOnly) drop span/instant events and keep
	// only histograms and counters — the cheap mode for quantile
	// collection at connection scale, where recording (and rendering
	// args for) millions of spans would dominate the run.
	histOnly bool

	procs     []string // index = pid
	laneNames map[laneKey]string

	hists     map[string]*Histogram
	histOrder []string
	// hcache short-circuits Observe's "<process>/<name>" key build —
	// the per-sample string concatenation is the hot path's allocation.
	hcache map[histKey]*Histogram

	counts     map[string]int64
	countOrder []string
}

type laneKey struct {
	pid int64
	tid int64
}

type histKey struct {
	pid  int64
	name string
}

// New returns an empty, enabled tracer. PID 0 is pre-registered as
// "sim" for subsystems used standalone (e.g. a bare disk in a test).
func New() *Tracer {
	return &Tracer{
		procs:     []string{"sim"},
		laneNames: make(map[laneKey]string),
		hists:     make(map[string]*Histogram),
		hcache:    make(map[histKey]*Histogram),
		counts:    make(map[string]int64),
	}
}

// NewHistOnly returns a tracer that collects histograms and counters
// but ignores span/instant events (EventsEnabled reports false, so
// emitters skip building args). Digest, Hist, Observe, Count and the
// histogram report all work as usual over what it does record.
func NewHistOnly() *Tracer {
	t := New()
	t.histOnly = true
	return t
}

// EventsEnabled reports whether span/instant records are kept — the
// guard to check before doing work (string rendering, lane setup) only
// a full event trace consumes.
func (t *Tracer) EventsEnabled() bool { return t != nil && !t.histOnly }

// Merge appends src's record into t, deterministically. src's
// processes (past the shared pid-0 "sim" entry) are re-registered
// after t's existing ones and event/lane pids remapped by the fixed
// offset; events append in recording order, respecting MaxEvents with
// dropped accounting; histograms and counters — keyed by process
// *name*, which survives the remap — merge by key in src's
// registration order. Merging per-leg tracers in leg order therefore
// reproduces the state a single tracer would hold had the legs run
// sequentially against it, which is what makes parallel experiment
// runs trace-identical to serial ones. A nil src is a no-op.
func (t *Tracer) Merge(src *Tracer) {
	if t == nil || src == nil {
		return
	}
	off := int64(len(t.procs) - 1)
	remap := func(pid int64) int64 {
		if pid <= 0 {
			return pid
		}
		return pid + off
	}
	t.procs = append(t.procs, src.procs[1:]...)
	for k, name := range src.laneNames {
		t.laneNames[laneKey{remap(k.pid), k.tid}] = name
	}
	for _, ev := range src.events {
		ev.pid = remap(ev.pid)
		t.record(ev)
	}
	t.dropped += src.dropped
	for _, k := range src.histOrder {
		h, ok := t.hists[k]
		if !ok {
			h = newHistogram(k)
			t.hists[k] = h
			t.histOrder = append(t.histOrder, k)
		}
		h.merge(src.hists[k])
	}
	for _, k := range src.countOrder {
		if _, ok := t.counts[k]; !ok {
			t.countOrder = append(t.countOrder, k)
		}
		t.counts[k] += src.counts[k]
	}
}

// Enabled reports whether t records anything. It is the idiomatic
// guard before building args for a span.
func (t *Tracer) Enabled() bool { return t != nil }

// AddProcess registers a simulated machine and returns its pid for
// subsequent Span/Observe calls. Exported as a Chrome process so each
// machine gets its own swimlane group.
func (t *Tracer) AddProcess(name string) int64 {
	if t == nil {
		return 0
	}
	if name == "" {
		name = fmt.Sprintf("machine-%d", len(t.procs))
	}
	t.procs = append(t.procs, name)
	return int64(len(t.procs) - 1)
}

// NameLane labels a (pid, tid) lane — exported as a Chrome thread
// name. Renaming a lane overwrites the previous label.
func (t *Tracer) NameLane(pid, tid int64, name string) {
	if t == nil {
		return
	}
	t.laneNames[laneKey{pid, tid}] = name
}

// Span records a completed interval [begin, end] on a lane.
func (t *Tracer) Span(pid, tid int64, cat, name string, begin, end sim.Time, args ...Arg) {
	if t == nil {
		return
	}
	if end < begin {
		end = begin
	}
	t.record(event{phase: phaseComplete, pid: pid, tid: tid, cat: cat, name: name,
		begin: begin, end: end, args: args})
}

// Instant records a point event on a lane.
func (t *Tracer) Instant(pid, tid int64, cat, name string, at sim.Time, args ...Arg) {
	if t == nil {
		return
	}
	t.record(event{phase: phaseInstant, pid: pid, tid: tid, cat: cat, name: name,
		begin: at, end: at, args: args})
}

func (t *Tracer) record(ev event) {
	if t.histOnly {
		return
	}
	if len(t.events) >= MaxEvents {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Observe adds one latency sample to the named histogram, keyed per
// machine ("<process>/<name>"). Histograms are exact regardless of the
// event cap.
func (t *Tracer) Observe(pid int64, name string, d sim.Time) {
	if t == nil {
		return
	}
	ck := histKey{pid: pid, name: name}
	h, ok := t.hcache[ck]
	if !ok {
		key := t.procName(pid) + "/" + name
		h, ok = t.hists[key]
		if !ok {
			h = newHistogram(key)
			t.hists[key] = h
			t.histOrder = append(t.histOrder, key)
		}
		t.hcache[ck] = h
	}
	h.Observe(d)
}

// Count adds n to a named per-machine counter (the engine's per-event
// hook feeds "events" through this).
func (t *Tracer) Count(pid int64, name string, n int64) {
	if t == nil {
		return
	}
	key := t.procName(pid) + "/" + name
	if _, ok := t.counts[key]; !ok {
		t.countOrder = append(t.countOrder, key)
	}
	t.counts[key] += n
}

// Hist returns the named histogram for a machine, or nil if nothing
// was observed under that name.
func (t *Tracer) Hist(pid int64, name string) *Histogram {
	if t == nil {
		return nil
	}
	return t.hists[t.procName(pid)+"/"+name]
}

// Spans returns the recorded spans (phase-X events only), in recording
// order. Intended for tests and programmatic inspection.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, len(t.events))
	for _, ev := range t.events {
		if ev.phase != phaseComplete {
			continue
		}
		out = append(out, Span{PID: ev.pid, TID: ev.tid, Cat: ev.cat, Name: ev.name,
			Begin: ev.begin, End: ev.end, Args: ev.args})
	}
	return out
}

// Digest folds every recorded event — phase, lane, category, name,
// timestamps, args — plus the histogram and counter totals into one
// FNV-1a hash. Two runs of the same deterministic simulation must
// produce identical digests; internal/difftest's determinism mode
// asserts exactly that. Nil-safe (returns the FNV offset basis).
func (t *Tracer) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mixByte := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	mixInt := func(v int64) {
		for i := 0; i < 8; i++ {
			mixByte(byte(v >> (8 * i)))
		}
	}
	mixStr := func(s string) {
		mixInt(int64(len(s)))
		for i := 0; i < len(s); i++ {
			mixByte(s[i])
		}
	}
	if t == nil {
		return h
	}
	for _, ev := range t.events {
		mixByte(ev.phase)
		mixInt(ev.pid)
		mixInt(ev.tid)
		mixStr(ev.cat)
		mixStr(ev.name)
		mixInt(int64(ev.begin))
		mixInt(int64(ev.end))
		for _, a := range ev.args {
			mixStr(a.Key)
			mixStr(a.Val)
		}
	}
	mixInt(t.dropped)
	for _, k := range t.histOrder {
		hist := t.hists[k]
		mixStr(k)
		mixInt(hist.Count())
		mixInt(int64(hist.Sum()))
	}
	for _, k := range t.countOrder {
		mixStr(k)
		mixInt(t.counts[k])
	}
	return h
}

// Dropped reports how many events were discarded past MaxEvents.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events reports how many events were recorded.
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

func (t *Tracer) procName(pid int64) string {
	if pid >= 0 && pid < int64(len(t.procs)) {
		return t.procs[pid]
	}
	return fmt.Sprintf("pid%d", pid)
}
