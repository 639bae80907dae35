// Package fault is the simulation's deterministic fault-injection
// layer: one seed-driven Plan that every subsystem consults — the disk
// for media errors and torn writes, the kernel for env kills
// mid-syscall and whole-machine crashes, the network for segment loss,
// duplication and reordering.
//
// The paper's central protection claim (Sections 5 and 6.3) is that XN
// and C-FFS keep metadata integrity even though untrusted libOSes own
// the file-system code. A claim like that is only credible when
// failure behaviour is exercised systematically, and a simulator can
// do what hardware cannot: fail the same component at the same virtual
// instant on every run. All fault decisions come from per-channel
// xorshift streams derived from Plan.Seed, so a plan replays
// identically — the property the crash-enumeration harness
// (internal/workload) relies on for bit-identical outcomes.
//
// # Zero overhead when disabled
//
// Like internal/trace, every method is safe (and a near-free no-op) on
// a nil *Plan: subsystems hold a plain *Plan pointer and the disabled
// path is one nil check. No machine pays for fault injection unless a
// plan is attached.
//
// Like sim.Engine, a Plan is not safe for concurrent use; a machine's
// environments are coroutines of its host goroutine (internal/kernel),
// so only one goroutine per machine touches it at a time.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"xok/internal/sim"
)

// ErrMedia reports an unrecoverable media error on a disk read — the
// drive returned garbage for a sector and said so.
var ErrMedia = errors.New("fault: disk media error")

// Plan is one machine's fault schedule. The zero value (and a nil
// pointer) injects nothing. Rates are "one in N" probabilities (0 =
// never), evaluated against independent deterministic streams so that
// changing one rate does not perturb the draws of another channel.
type Plan struct {
	// Seed drives every fault channel. Two plans with equal Seed and
	// equal rates make identical decisions in an identical simulation.
	Seed uint64

	// ReadErrRate fails roughly one in N disk block reads with
	// ErrMedia (the request completes, carrying the error).
	ReadErrRate int

	// TornWrites makes Disk.CrashImage apply the partially-transferred
	// prefix of any write that is mid-service at crash time — the
	// power-failure case where a multi-block write stops between (or
	// inside) sectors.
	TornWrites bool

	// LossRate drops roughly one in N TCP segments, in both directions
	// (data, ACKs, SYNs). DupRate delivers one in N segments twice;
	// ReorderRate delays one in N segments by a few wire times so a
	// successor overtakes it.
	LossRate    int
	DupRate     int
	ReorderRate int

	// KillSyscallNth kills an environment at its Nth syscall (1-based;
	// 0 = never). KillEnv restricts the kill to environments whose
	// name contains it; empty matches any environment.
	KillSyscallNth int
	KillEnv        string

	syscalls int
	killed   bool
	rngs     map[string]*sim.RNG
	onWrite  func(at sim.Time, block int64, count int)
}

// rng returns the named channel's private stream, derived from the
// plan seed and the channel name (FNV-1a) so channels are independent.
func (p *Plan) rng(channel string) *sim.RNG {
	if p.rngs == nil {
		p.rngs = make(map[string]*sim.RNG)
	}
	r, ok := p.rngs[channel]
	if !ok {
		h := uint64(14695981039346656037)
		for i := 0; i < len(channel); i++ {
			h = (h ^ uint64(channel[i])) * 1099511628211
		}
		r = sim.NewRNG(p.Seed ^ h)
		p.rngs[channel] = r
	}
	return r
}

// hit draws from channel's stream and reports a one-in-rate event.
// The stream only advances when the channel is armed (rate > 0), so
// enabling one fault type never perturbs the others. p is non-nil
// (callers nil-check before reading their rate field).
func (p *Plan) hit(channel string, rate int) bool {
	if rate <= 0 {
		return false
	}
	return p.rng(channel).Intn(rate) == 0
}

// ReadError reports whether this disk block read fails with ErrMedia.
func (p *Plan) ReadError() bool {
	return p != nil && p.hit("disk.read", p.ReadErrRate)
}

// Torn reports whether crash images include partially-transferred
// writes.
func (p *Plan) Torn() bool { return p != nil && p.TornWrites }

// DropSegment reports whether this TCP segment is lost on the wire.
func (p *Plan) DropSegment() bool {
	return p != nil && p.hit("net.loss", p.LossRate)
}

// DupSegment reports whether this segment is delivered twice.
func (p *Plan) DupSegment() bool {
	return p != nil && p.hit("net.dup", p.DupRate)
}

// ReorderSegment reports whether this segment is delayed so that a
// later one overtakes it.
func (p *Plan) ReorderSegment() bool {
	return p != nil && p.hit("net.reorder", p.ReorderRate)
}

// KillNow is consulted by Env.Syscall: it counts syscalls made by
// environments matching KillEnv and fires exactly once, at the Nth.
func (p *Plan) KillNow(envName string) bool {
	if p == nil || p.KillSyscallNth <= 0 || p.killed {
		return false
	}
	if p.KillEnv != "" && !strings.Contains(envName, p.KillEnv) {
		return false
	}
	p.syscalls++
	if p.syscalls < p.KillSyscallNth {
		return false
	}
	p.killed = true
	return true
}

// Killed reports whether the env-kill already fired.
func (p *Plan) Killed() bool { return p != nil && p.killed }

// ObserveWrites installs fn to be called at every disk write
// completion (the synchronous-write boundaries the crash-enumeration
// harness crashes at). Panics on a nil plan — observation requires a
// plan by design.
func (p *Plan) ObserveWrites(fn func(at sim.Time, block int64, count int)) {
	p.onWrite = fn
}

// NoteWrite reports one completed disk write to the observer. Nil-safe
// and free when no observer is installed.
func (p *Plan) NoteWrite(at sim.Time, block int64, count int) {
	if p == nil || p.onWrite == nil {
		return
	}
	p.onWrite(at, block, count)
}

// Clone returns a fresh plan with the same knobs and none of the
// consumed state (rng streams, syscall counter, kill latch, write
// observer), so a re-run under the clone injects the identical fault
// sequence. Nil-safe.
func (p *Plan) Clone() *Plan {
	if p == nil {
		return nil
	}
	return &Plan{
		Seed:           p.Seed,
		ReadErrRate:    p.ReadErrRate,
		TornWrites:     p.TornWrites,
		LossRate:       p.LossRate,
		DupRate:        p.DupRate,
		ReorderRate:    p.ReorderRate,
		KillSyscallNth: p.KillSyscallNth,
		KillEnv:        p.KillEnv,
	}
}

// Fork returns a copy that *preserves* the consumed state: every
// per-channel xorshift stream continues from its current position, and
// the syscall counter and kill latch carry over. A machine forked from
// a snapshot uses this so it draws the exact fault schedule a run from
// boot would see past the snapshot point — Clone would rewind the
// streams and replay the prefix's faults. The write observer is NOT
// carried over (it is harness-side instrumentation of one specific
// machine, not simulated state). Nil-safe; safe to call concurrently
// on a frozen plan (it only reads p).
func (p *Plan) Fork() *Plan {
	if p == nil {
		return nil
	}
	cp := p.Clone()
	cp.syscalls = p.syscalls
	cp.killed = p.killed
	if p.rngs != nil {
		cp.rngs = make(map[string]*sim.RNG, len(p.rngs))
		for ch, r := range p.rngs {
			cp.rngs[ch] = r.Clone()
		}
	}
	return cp
}

// Parse builds a plan from a "seed:spec" string (the cmd/xok-bench
// -faults flag). The seed is a decimal or 0x-hex integer; spec is a
// comma-separated list of key=value fault knobs:
//
//	loss=N      one-in-N segment loss, both directions
//	dup=N       one-in-N segment duplication
//	reorder=N   one-in-N segment reordering
//	readerr=N   one-in-N disk read media errors
//	torn        torn (partially-transferred) writes in crash images
//	kill=N      kill an environment at its Nth syscall
//	killenv=S   restrict the kill to env names containing S
//
// "1234" alone (no colon) is a seed with no faults armed — useful for
// harnesses that inject their own schedule, like crash enumeration.
func Parse(s string) (*Plan, error) {
	if s == "" {
		return nil, errors.New("fault: empty spec")
	}
	seedStr, spec, _ := strings.Cut(s, ":")
	seed, err := strconv.ParseUint(seedStr, 0, 64)
	if err != nil {
		return nil, fmt.Errorf("fault: bad seed %q: %v", seedStr, err)
	}
	p := &Plan{Seed: seed}
	if spec == "" {
		return p, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, hasVal := strings.Cut(kv, "=")
		intVal := func() (int, error) {
			if !hasVal {
				return 0, fmt.Errorf("fault: %s needs a value", key)
			}
			return strconv.Atoi(val)
		}
		var err error
		switch key {
		case "loss":
			p.LossRate, err = intVal()
		case "dup":
			p.DupRate, err = intVal()
		case "reorder":
			p.ReorderRate, err = intVal()
		case "readerr":
			p.ReadErrRate, err = intVal()
		case "torn":
			if hasVal {
				err = fmt.Errorf("fault: torn takes no value")
			}
			p.TornWrites = true
		case "kill":
			p.KillSyscallNth, err = intVal()
		case "killenv":
			if !hasVal || val == "" {
				err = fmt.Errorf("fault: killenv needs a value")
			}
			p.KillEnv = val
		default:
			err = fmt.Errorf("fault: unknown knob %q", key)
		}
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// String renders the plan in Parse's format.
func (p *Plan) String() string {
	if p == nil {
		return "<none>"
	}
	var knobs []string
	add := func(k string, v int) {
		if v > 0 {
			knobs = append(knobs, fmt.Sprintf("%s=%d", k, v))
		}
	}
	add("loss", p.LossRate)
	add("dup", p.DupRate)
	add("reorder", p.ReorderRate)
	add("readerr", p.ReadErrRate)
	if p.TornWrites {
		knobs = append(knobs, "torn")
	}
	add("kill", p.KillSyscallNth)
	if p.KillEnv != "" {
		knobs = append(knobs, "killenv="+p.KillEnv)
	}
	sort.Strings(knobs)
	if len(knobs) == 0 {
		return fmt.Sprintf("%d", p.Seed)
	}
	return fmt.Sprintf("%d:%s", p.Seed, strings.Join(knobs, ","))
}
