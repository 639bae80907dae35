package main

import (
	"runtime"
	"time"
)

// Span names the benchmark records around the public calls it makes.
const (
	spanSetup    = "setup" // the timed batch of identical set-ups
	spanRun      = "run"   // the workload calls of the repetition
	spanBoot     = "machine.New"
	spanSnapshot = "machine.Snapshot"
)

// span is one timed interval of host time, in the benchmark's own
// files: a public call into the program, or a phase grouping such
// calls. Start and end are wall-clock offsets from process start; CPU
// is the process CPU time spent inside.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = top level
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	CPUUS   float64 `json:"cpu_us"`
}

// spanLog keeps a repetition's spans in memory; main prints them with
// the result.
type spanLog struct {
	spans []span
	open  map[int]time.Duration // span id -> CPU clock at begin
}

var processStart = time.Now()

// begin opens a span under parent and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	if l.open == nil {
		l.open = map[int]time.Duration{}
	}
	id := len(l.spans) + 1
	now := time.Now()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		StartUS: us(now.Sub(processStart))})
	l.open[id] = cpuNow()
	return id
}

// end closes span id and returns its CPU and wall time.
func (l *spanLog) end(id int) (cpu, wall time.Duration) {
	cpu = cpuNow() - l.open[id]
	delete(l.open, id)
	s := &l.spans[id-1]
	s.EndUS = us(time.Since(processStart))
	s.CPUUS = us(cpu)
	return cpu, time.Duration((s.EndUS - s.StartUS) * 1e3)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timed forces a GC, then runs fn inside a span and returns its CPU
// time.
func (l *spanLog) timed(name string, parent int, fn func(id int) error) (time.Duration, error) {
	runtime.GC()
	id := l.begin(name, parent)
	err := fn(id)
	cpu, _ := l.end(id)
	return cpu, err
}

// meanCPU is the mean CPU time of the spans with the given name, in
// seconds, or notObserved if there are none.
func (l *spanLog) meanCPU(name string) float64 {
	var sum float64
	n := 0
	for _, s := range l.spans {
		if s.Name == name {
			sum += s.CPUUS
			n++
		}
	}
	if n == 0 {
		return notObserved
	}
	return sum / float64(n) / 1e6
}
