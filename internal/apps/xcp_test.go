package apps

import (
	"bytes"
	"fmt"
	"testing"

	"xok/internal/cap"
	"xok/internal/kernel"
	"xok/internal/posix"
	"xok/internal/sim"
	"xok/internal/unix"
)

// stageFiles creates n files of size bytes and returns the copy pairs.
// The files are written in interleaved chunks so their blocks are
// fragmented across the disk — the layout where sorted schedules pay
// off (real multi-file trees accumulate exactly this interleaving).
func stageFiles(t *testing.T, s *posix.System, n, size int) [][2]string {
	t.Helper()
	pairs := make([][2]string, n)
	s.Spawn("stage", 0, func(p unix.Proc) {
		fds := make([]unix.FD, n)
		for i := 0; i < n; i++ {
			src := fmt.Sprintf("/src%02d", i)
			fd, err := p.Create(src, 6)
			if err != nil {
				t.Errorf("stage: %v", err)
				return
			}
			fds[i] = fd
			pairs[i] = [2]string{src, fmt.Sprintf("/dst%02d", i)}
		}
		chunk := make([]byte, sim.DiskBlockSize)
		for off := 0; off < size; off += len(chunk) {
			for i := 0; i < n; i++ {
				fillContent(chunk, uint32(i*7919+off))
				if _, err := p.Write(fds[i], chunk); err != nil {
					t.Errorf("stage write: %v", err)
					return
				}
			}
		}
		for i := 0; i < n; i++ {
			p.Close(fds[i])
		}
		if err := p.Sync(); err != nil {
			t.Errorf("sync: %v", err)
		}
	})
	s.Run()
	return pairs
}

// evictAll recycles every clean buffer so the next run starts cold.
func evictAll(s *posix.System) {
	s.K.Spawn("evict", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		_ = s.FS.Sync(e)
		for {
			if _, ok := s.X.RecycleLRU(e); !ok {
				return
			}
		}
	})
	s.Run()
}

// runXCP copies the pairs with XCP, returning the program's elapsed
// time (measured at process exit, like the paper; background flushes
// continue afterwards).
func runXCP(t *testing.T, s *posix.System, pairs [][2]string) sim.Time {
	t.Helper()
	start := s.Now()
	var end sim.Time
	s.K.Spawn("xcp", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		if err := XCP(e, s.FS, pairs); err != nil {
			t.Errorf("xcp: %v", err)
		}
		end = s.Now()
	})
	s.Run()
	return end - start
}

// runCP copies the pairs with the plain UNIX cp, measured at process
// exit.
func runCP(t *testing.T, s *posix.System, pairs [][2]string) sim.Time {
	t.Helper()
	start := s.Now()
	var end sim.Time
	s.Spawn("cp", 0, func(p unix.Proc) {
		for _, pr := range pairs {
			if err := Cp(p, pr[0], pr[1]); err != nil {
				t.Errorf("cp: %v", err)
				return
			}
		}
		end = p.Now()
	})
	s.Run()
	return end - start
}

func TestXCPCopiesCorrectly(t *testing.T) {
	s := bootExOS(t)
	pairs := stageFiles(t, s, 4, 150_000)
	runXCP(t, s, pairs)
	s.Spawn("verify", 0, func(p unix.Proc) {
		for i, pr := range pairs {
			src, err := ReadFile(p, pr[0])
			if err != nil {
				t.Errorf("read src: %v", err)
				return
			}
			dst, err := ReadFile(p, pr[1])
			if err != nil {
				t.Errorf("read dst: %v", err)
				return
			}
			if !bytes.Equal(src, dst) {
				t.Errorf("pair %d: contents differ", i)
			}
		}
	})
	s.Run()
}

func TestXCPSurvivesSyncAndReload(t *testing.T) {
	// The adopted pages must produce correct on-disk data.
	s := bootExOS(t)
	pairs := stageFiles(t, s, 2, 50_000)
	runXCP(t, s, pairs)
	evictAll(s)
	s.Spawn("verify", 0, func(p unix.Proc) {
		for _, pr := range pairs {
			src, _ := ReadFile(p, pr[0])
			dst, err := ReadFile(p, pr[1])
			if err != nil || !bytes.Equal(src, dst) {
				t.Errorf("%s: on-disk copy wrong (err=%v)", pr[1], err)
			}
		}
	})
	s.Run()
}

func TestXCPFactorThreeInCore(t *testing.T) {
	// Section 7.2: "XCP is a factor of three faster than ... CP ...
	// irrespective of whether all files are in core (because XCP does
	// not touch the data)". Stage once; both runs are warm.
	const n, size = 8, 400_000

	sX := bootExOS(t)
	pairsX := stageFiles(t, sX, n, size)
	warm(t, sX, pairsX) // fault everything in
	xcpTime := runXCP(t, sX, pairsX)

	sC := bootExOS(t)
	pairsC := stageFiles(t, sC, n, size)
	warm(t, sC, pairsC)
	cpTime := runCP(t, sC, pairsC)

	ratio := float64(cpTime) / float64(xcpTime)
	t.Logf("in-core: cp=%v xcp=%v ratio=%.2f", cpTime, xcpTime, ratio)
	if ratio < 2 {
		t.Errorf("XCP in-core speedup = %.2fx, want ~3x", ratio)
	}
}

func TestXCPFactorThreeOnDisk(t *testing.T) {
	// "...or on disk (because XCP issues disk schedules with a minimum
	// number of seeks and the largest contiguous ranges)".
	const n, size = 8, 400_000

	sX := bootExOS(t)
	pairsX := stageFiles(t, sX, n, size)
	evictAll(sX)
	xcpTime := runXCP(t, sX, pairsX)

	sC := bootExOS(t)
	pairsC := stageFiles(t, sC, n, size)
	evictAll(sC)
	cpTime := runCP(t, sC, pairsC)

	ratio := float64(cpTime) / float64(xcpTime)
	t.Logf("on-disk: cp=%v xcp=%v ratio=%.2f", cpTime, xcpTime, ratio)
	if ratio < 1.5 {
		t.Errorf("XCP on-disk speedup = %.2fx, want ~3x", ratio)
	}
}

// warm faults all source files into the cache.
func warm(t *testing.T, s *posix.System, pairs [][2]string) {
	t.Helper()
	s.Spawn("warm", 0, func(p unix.Proc) {
		for _, pr := range pairs {
			if _, err := ReadFile(p, pr[0]); err != nil {
				t.Errorf("warm: %v", err)
			}
		}
	})
	s.Run()
}
