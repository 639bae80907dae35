package posix

import (
	"errors"

	"xok/internal/kernel"
)

// UNIX signals, layered on Xok IPC (Section 5.2.1: "signals are
// layered on top of Xok IPC"). Delivery is asynchronous: Kill
// enqueues an IPC message on the target's environment and wakes it;
// the target observes the signal at its next Signals() poll (the libOS
// checks pending signals on kernel re-entry, like a real libc).

// Signal numbers (the classic subset).
const (
	SIGHUP  = 1
	SIGINT  = 2
	SIGKILL = 9
	SIGTERM = 15
	SIGUSR1 = 30
	SIGUSR2 = 31
)

// ipcKindSignal tags signal messages on the IPC channel.
const ipcKindSignal = 0x516

// ErrNoProcess reports a kill to a nonexistent pid.
var ErrNoProcess = errors.New("posix: no such process")

// Kill sends a signal to the process with the given pid. Reading the
// process map is free (only writes to it pay SharedWrite); the IPC
// send is a system call.
func (p *Proc) Kill(pid int, sig int) error {
	target, ok := p.s.procs[pid]
	if !ok {
		return ErrNoProcess
	}
	return p.e.IPCSend(target.e, kernel.IPCMsg{Kind: ipcKindSignal, A: int64(sig), B: int64(p.pid)})
}

// Signals drains and returns all pending signals (signal number,
// sender pid), in delivery order.
func (p *Proc) Signals() [][2]int {
	var out [][2]int
	for p.e.IPCPending() > 0 {
		m, ok := p.e.IPCTryRecv()
		if !ok {
			break
		}
		if m.Kind == ipcKindSignal {
			out = append(out, [2]int{int(m.A), int(m.B)})
		}
	}
	return out
}

// Pause blocks until a signal arrives, then returns it (sig, sender).
func (p *Proc) Pause() (int, int) {
	for {
		m := p.e.IPCRecv()
		if m.Kind == ipcKindSignal {
			return int(m.A), int(m.B)
		}
	}
}
