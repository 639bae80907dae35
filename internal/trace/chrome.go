package trace

import (
	"bufio"
	"cmp"
	"encoding/json"
	"io"
	"slices"
)

// chromeEvent is one entry of the Chrome trace_event format
// (chrome://tracing and https://ui.perfetto.dev both load it).
// Timestamps and durations are microseconds of *virtual* time.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   *float64          `json:"dur,omitempty"`
	PID   int64             `json:"pid"`
	TID   int64             `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace exports every recorded event as Chrome trace_event
// JSON: {"traceEvents": [...]}. Process and lane names are emitted as
// metadata events so viewers show "xok", "disk spindle 0", "env 3
// (cc1)" instead of bare numbers.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error { // one record per line, comma-separated
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	if t != nil {
		for pid, name := range t.procs {
			if err := emit(chromeEvent{Name: "process_name", Phase: "M", PID: int64(pid),
				Args: map[string]string{"name": name}}); err != nil {
				return err
			}
		}
		// Lane names come out sorted by (pid, tid), not in map order,
		// so two identical runs write identical files.
		lanes := make([]laneKey, 0, len(t.laneNames))
		for key := range t.laneNames {
			lanes = append(lanes, key)
		}
		slices.SortFunc(lanes, func(a, b laneKey) int {
			return cmp.Or(cmp.Compare(a.pid, b.pid), cmp.Compare(a.tid, b.tid))
		})
		for _, key := range lanes {
			if err := emit(chromeEvent{Name: "thread_name", Phase: "M", PID: key.pid,
				TID: key.tid, Args: map[string]string{"name": t.laneNames[key]}}); err != nil {
				return err
			}
		}
		for i := range t.events {
			ev := &t.events[i]
			ce := chromeEvent{
				Name: ev.name, Cat: ev.cat, PID: ev.pid, TID: ev.tid,
				TS: ev.begin.Micros(),
			}
			switch ev.phase {
			case phaseComplete:
				ce.Phase = "X"
				dur := (ev.end - ev.begin).Micros()
				ce.Dur = &dur
			case phaseInstant:
				ce.Phase = "i"
				ce.Scope = "t"
			}
			if len(ev.args) > 0 {
				ce.Args = make(map[string]string, len(ev.args))
				for _, a := range ev.args {
					ce.Args[a.Key] = a.Val
				}
			}
			if err := emit(ce); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
