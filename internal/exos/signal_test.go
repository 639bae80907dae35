package exos

import (
	"errors"
	"testing"

	"xok/internal/posix"
	"xok/internal/unix"
)

func TestSignalDelivery(t *testing.T) {
	s := Boot(Config{})
	got := make(chan [2]int, 1)
	var waiterPid int
	s.Spawn("waiter", 0, func(p unix.Proc) {
		waiterPid = p.Getpid()
		sig, from := p.(*posix.Proc).Pause()
		got <- [2]int{sig, from}
	})
	s.Spawn("killer", 0, func(p unix.Proc) {
		ep := p.(*posix.Proc)
		p.Compute(1000)
		if err := ep.Kill(waiterPid, posix.SIGUSR1); err != nil {
			t.Errorf("kill: %v", err)
		}
	})
	s.Run()
	select {
	case g := <-got:
		if g[0] != posix.SIGUSR1 {
			t.Fatalf("signal = %d, want posix.SIGUSR1", g[0])
		}
		if g[1] != 2 {
			t.Fatalf("sender pid = %d, want 2", g[1])
		}
	default:
		t.Fatal("signal never delivered")
	}
	s.K.Shutdown()
}

func TestSignalsQueueInOrder(t *testing.T) {
	s := Boot(Config{})
	s.Spawn("target", 0, func(p unix.Proc) {
		ep := p.(*posix.Proc)
		want := []int{posix.SIGHUP, posix.SIGTERM, posix.SIGUSR2}
		for i := 0; i < 3; i++ {
			sig, _ := ep.Pause() // blocks until each signal arrives
			if sig != want[i] {
				t.Errorf("signal %d = %d, want %d", i, sig, want[i])
			}
		}
	})
	s.Spawn("sender", 0, func(p unix.Proc) {
		ep := p.(*posix.Proc)
		for _, sig := range []int{posix.SIGHUP, posix.SIGTERM, posix.SIGUSR2} {
			if err := ep.Kill(1, sig); err != nil {
				t.Errorf("kill: %v", err)
			}
		}
	})
	s.Run()
}

func TestKillNoSuchProcess(t *testing.T) {
	s := Boot(Config{})
	s.Spawn("k", 0, func(p unix.Proc) {
		if err := p.(*posix.Proc).Kill(999, posix.SIGTERM); !errors.Is(err, posix.ErrNoProcess) {
			t.Errorf("err = %v, want posix.ErrNoProcess", err)
		}
	})
	s.Run()
}
