// Package fault is the simulation's deterministic fault-injection
// layer: one seed-driven Plan that the disk consults for media errors
// and torn writes and the kernel for env kills mid-syscall. Its two
// consumers are the crash-enumeration harness (internal/workload) and
// the differential fuzzer (internal/difftest); the network is a
// lossless LAN, like the paper's testbed, and draws nothing from it.
//
// The paper's central protection claim (Sections 5 and 6.3) is that XN
// and C-FFS keep metadata integrity even though untrusted libOSes own
// the file-system code. A claim like that is only credible when
// failure behaviour is exercised systematically, and a simulator can
// do what hardware cannot: fail the same component at the same virtual
// instant on every run. The one random channel, read errors, draws
// from an xorshift stream derived from Plan.Seed, and the other knobs
// are counters and switches, so a plan replays identically — the
// property the crash-enumeration harness (internal/workload) relies on
// for bit-identical outcomes.
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
// pointer) injects nothing.
type Plan struct {
	// Seed drives the read-error stream. Two plans with equal knobs
	// make identical decisions in an identical simulation.
	Seed uint64

	// ReadErrRate fails roughly one in N disk block reads with
	// ErrMedia (the request completes, carrying the error); 0 = never.
	ReadErrRate int

	// TornWrites makes Disk.CrashImage apply the partially-transferred
	// prefix of any write that is mid-service at crash time — the
	// power-failure case where a multi-block write stops between (or
	// inside) sectors.
	TornWrites bool

	// KillSyscallNth kills an environment at its Nth syscall (1-based;
	// 0 = never). KillEnv restricts the kill to environments whose
	// name contains it; empty matches any environment.
	KillSyscallNth int
	KillEnv        string

	syscalls int
	killed   bool
	rng      *sim.RNG // the read-error stream, made at its first draw
	onWrite  func(at sim.Time, block int64, count int)
}

// readErrSalt is XORed into Seed to seed the read-error stream: the
// FNV-1a hash of "disk.read". Changing it moves every plan's
// media-error schedule.
const readErrSalt = 0xf708207b973ed9d6

// ReadError reports whether this disk block read fails with ErrMedia.
// The stream only advances while ReadErrRate is armed.
func (p *Plan) ReadError() bool {
	if p == nil || p.ReadErrRate <= 0 {
		return false
	}
	if p.rng == nil {
		p.rng = sim.NewRNG(p.Seed ^ readErrSalt)
	}
	return p.rng.Intn(p.ReadErrRate) == 0
}

// Torn reports whether crash images include partially-transferred
// writes.
func (p *Plan) Torn() bool { return p != nil && p.TornWrites }

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
// consumed state (rng stream, syscall counter, kill latch, write
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
		KillSyscallNth: p.KillSyscallNth,
		KillEnv:        p.KillEnv,
	}
}

// Fork returns a copy that *preserves* the consumed state: the
// read-error stream continues from its current position, and
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
	if p.rng != nil {
		cp.rng = p.rng.Clone()
	}
	return cp
}

// Parse builds a plan from a "seed:spec" string (the cmd/xok-bench
// -faults flag). The seed is a decimal or 0x-hex integer; spec is a
// comma-separated list of key=value fault knobs:
//
//	readerr=N   one-in-N disk read media errors
//	torn        torn (partially-transferred) writes in crash images
//	kill=N      kill an environment at its Nth syscall
//	killenv=S   restrict the kill to env names containing S
//
// N is a non-negative integer; 0 leaves the knob off. An unknown knob
// is an error. "1234" alone (no colon) is a seed with no faults armed — useful for
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
			n, err := strconv.Atoi(val)
			if err == nil && n < 0 {
				err = fmt.Errorf("fault: %s=%d is negative", key, n)
			}
			return n, err
		}
		var err error
		switch key {
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
