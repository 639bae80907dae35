package exos

import (
	"testing"

	"xok/internal/ostest"
	"xok/internal/posix"
	"xok/internal/sim"
	"xok/internal/unix"
)

// boot is Boot for a test: a failed format fails t.
func boot(t testing.TB, cfg Config) *posix.System {
	t.Helper()
	s, err := Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runner(t testing.TB, cfg Config) (ostest.RunFunc, *posix.System) {
	s := boot(t, cfg)
	return func(main func(unix.Proc)) {
		s.Spawn("test", 0, main)
		s.Run()
	}, s
}

func TestFileOpsConformance(t *testing.T) {
	run, _ := runner(t, Config{Protect: true})
	if err := ostest.CheckFileOps("Xok/ExOS", run); err != nil {
		t.Fatal(err)
	}
}

func TestPipeConformanceProtected(t *testing.T) {
	run, _ := runner(t, Config{Protect: true})
	if err := ostest.CheckPipe(run); err != nil {
		t.Fatal(err)
	}
}

func TestPipeConformanceShared(t *testing.T) {
	run, _ := runner(t, Config{SharedMemPipes: true})
	if err := ostest.CheckPipe(run); err != nil {
		t.Fatal(err)
	}
}

func TestGetpidIsLibraryCall(t *testing.T) {
	// Section 7.1: ~100 cycles on Xok/ExOS — a procedure call, no
	// kernel crossing.
	run, s := runner(t, Config{})
	sysBefore := s.Stats().Get(sim.CtrSyscalls)
	cost := ostest.GetpidCost(run)
	if cost < 80 || cost > 130 {
		t.Fatalf("getpid = %d cycles, want ~100", cost)
	}
	// getpid itself must not trap (other setup calls may).
	delta := s.Stats().Get(sim.CtrSyscalls) - sysBefore
	if delta > 20 {
		t.Fatalf("getpid path made %d syscalls", delta)
	}
}

func TestForkCostNearSixMilliseconds(t *testing.T) {
	// Section 6.2: "Fork takes six milliseconds on ExOS".
	run, _ := runner(t, Config{})
	cost := ostest.ForkCost(run)
	if cost < sim.FromMillis(6) || cost > sim.FromMillis(12) {
		t.Fatalf("fork+exec+wait = %v, want 6ms fork dominant", cost)
	}
}

func TestPipeLatencyOrdering(t *testing.T) {
	// Table 2 shape: shared-memory pipes beat protected pipes at 1
	// byte; at 8 KB the copy cost dominates and they converge.
	runShared, _ := runner(t, Config{SharedMemPipes: true})
	runProt, _ := runner(t, Config{})
	shared1 := ostest.PipeLatency(runShared, 1, 50)
	prot1 := ostest.PipeLatency(runProt, 1, 50)
	if shared1 >= prot1 {
		t.Fatalf("1-byte: shared %v !< protected %v", shared1, prot1)
	}
	shared8k := ostest.PipeLatency(runShared, 8192, 50)
	prot8k := ostest.PipeLatency(runProt, 8192, 50)
	ratio := float64(prot8k) / float64(shared8k)
	if ratio > 1.3 {
		t.Fatalf("8-KB latencies should converge: shared %v vs protected %v", shared8k, prot8k)
	}
	if shared8k < 5*shared1 {
		t.Fatalf("8-KB copies should dominate: %v vs %v", shared8k, shared1)
	}
}

func TestProtectionCallsCharged(t *testing.T) {
	// With Protect on, shared-state writes cost 3 syscalls each
	// (Section 6.3).
	measure := func(protect bool) (int64, int64) {
		run, s := runner(t, Config{Protect: protect})
		run(func(p unix.Proc) {
			for i := 0; i < 10; i++ {
				fd, err := p.Create("/f", 6)
				if err != nil {
					t.Error(err)
					return
				}
				p.Close(fd)
			}
		})
		return s.Stats().Get(sim.CtrProtCalls), s.Stats().Get(sim.CtrSyscalls)
	}
	protCalls, sysWith := measure(true)
	noProt, sysWithout := measure(false)
	if noProt != 0 {
		t.Fatalf("unprotected run recorded %d protection calls", noProt)
	}
	if protCalls < 60 { // >= 2 shared writes x 3 calls x 10 iterations
		t.Fatalf("protection calls = %d, want >= 60", protCalls)
	}
	if sysWith <= sysWithout {
		t.Fatalf("protection did not increase syscalls: %d vs %d", sysWith, sysWithout)
	}
}

func TestConcurrentProcessesShareFS(t *testing.T) {
	s := boot(t, Config{})
	done := 0
	for i := 0; i < 4; i++ {
		i := i
		s.Spawn("worker", 0, func(p unix.Proc) {
			dir := string(rune('a' + i))
			if err := p.Mkdir("/"+dir, 7); err != nil {
				t.Errorf("mkdir: %v", err)
				return
			}
			fd, err := p.Create("/"+dir+"/f", 6)
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			buf := make([]byte, 20000)
			if _, err := p.Write(fd, buf); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			p.Close(fd)
			done++
		})
	}
	s.Run()
	if done != 4 {
		t.Fatalf("done = %d, want 4", done)
	}
	// All four trees visible from a fifth process.
	s.Spawn("checker", 0, func(p unix.Proc) {
		ents, err := p.Readdir("/")
		if err != nil || len(ents) != 4 {
			t.Errorf("readdir = %v, %v", ents, err)
		}
	})
	s.Run()
}

func TestDeterministicRuns(t *testing.T) {
	elapsed := func() sim.Time {
		run, s := runner(t, Config{Protect: true})
		if err := ostest.CheckPipe(run); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}
	if a, b := elapsed(), elapsed(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
