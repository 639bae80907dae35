package xio

import (
	"testing"

	"xok/internal/cap"
	"xok/internal/exos"
	"xok/internal/kernel"
	"xok/internal/posix"
	"xok/internal/sim"
	"xok/internal/unix"
)

func boot(t *testing.T) *posix.System {
	t.Helper()
	return exos.Boot(exos.Config{})
}

func runEnv(t *testing.T, s *posix.System, body func(e *kernel.Env) error) {
	t.Helper()
	s.K.Spawn("xio", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		if err := body(e); err != nil {
			t.Errorf("xio: %v", err)
		}
	})
	s.Run()
}

func stageDoc(t *testing.T, s *posix.System, path string, size int) {
	t.Helper()
	s.Spawn("stage", 0, func(p unix.Proc) {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 31)
		}
		fd, err := p.Create(path, 6)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := p.Write(fd, data); err != nil {
			t.Error(err)
			return
		}
		p.Close(fd)
		if err := p.Sync(); err != nil {
			t.Error(err)
		}
	})
	s.Run()
}

func TestCacheMissThenHits(t *testing.T) {
	s := boot(t)
	stageDoc(t, s, "/doc", 10_000)
	c := NewCache(s.FS)
	runEnv(t, s, func(e *kernel.Env) error {
		en, err := c.Lookup(e, "/doc")
		if err != nil {
			return err
		}
		if en.Size != 10_000 || len(en.Blocks) != 3 {
			t.Errorf("entry = %+v", en)
		}
		sum := en.Checksum
		if sum == 0 {
			t.Error("checksum not precomputed")
		}
		// Hits are cheap and return the identical entry.
		start := e.Kernel().Now()
		en2, err := c.Lookup(e, "/doc")
		if err != nil {
			return err
		}
		hitCost := e.Kernel().Now() - start
		if en2 != en {
			t.Error("hit returned a different entry")
		}
		if hitCost > 2*sim.Microsecond {
			t.Errorf("hit cost %v, want sub-2us pointer chase", hitCost)
		}
		if c.Hits != 1 || c.Misses != 1 {
			t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
		}
		return nil
	})
}

func TestCachePinsBlocks(t *testing.T) {
	s := boot(t)
	stageDoc(t, s, "/doc", 8192)
	c := NewCache(s.FS)
	runEnv(t, s, func(e *kernel.Env) error {
		en, err := c.Lookup(e, "/doc")
		if err != nil {
			return err
		}
		// Evict everything; the cached doc's blocks must survive.
		for {
			if _, ok := s.X.RecycleLRU(e); !ok {
				break
			}
		}
		for _, b := range en.Blocks {
			if !s.X.Cached(b) {
				t.Errorf("pinned block %d evicted", b)
			}
		}
		// After Evict the blocks become reclaimable.
		c.Evict("/doc")
		if len(c.entries) != 0 {
			t.Error("entry survived Evict")
		}
		if _, ok := s.X.RecycleLRU(e); !ok {
			t.Error("unpinned blocks not reclaimable")
		}
		return nil
	})
}

func TestChecksumStatsCharged(t *testing.T) {
	s := boot(t)
	stageDoc(t, s, "/doc", 20_000)
	c := NewCache(s.FS)
	runEnv(t, s, func(e *kernel.Env) error {
		before := s.K.Stats.Get(sim.CtrChecksums)
		if _, err := c.Lookup(e, "/doc"); err != nil {
			return err
		}
		if got := s.K.Stats.Get(sim.CtrChecksums) - before; got != 20_000 {
			t.Errorf("checksummed %d bytes, want 20000", got)
		}
		// Hits checksum nothing.
		before = s.K.Stats.Get(sim.CtrChecksums)
		if _, err := c.Lookup(e, "/doc"); err != nil {
			return err
		}
		if got := s.K.Stats.Get(sim.CtrChecksums) - before; got != 0 {
			t.Errorf("hit checksummed %d bytes", got)
		}
		return nil
	})
}

func TestLookupMissing(t *testing.T) {
	s := boot(t)
	c := NewCache(s.FS)
	runEnv(t, s, func(e *kernel.Env) error {
		if _, err := c.Lookup(e, "/nope"); err == nil {
			t.Error("missing doc did not error")
		}
		return nil
	})
}
