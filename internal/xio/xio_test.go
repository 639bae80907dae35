package xio

import (
	"fmt"
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
		if c.Len() != 0 {
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

func TestStoreGroupedColocates(t *testing.T) {
	// HTML grouping: a page and its inlines land contiguously, so a
	// cold fetch of the whole group is (nearly) one disk schedule.
	s := boot(t)
	groups := [][]Doc{
		{{Name: "index.html", Size: 8000}, {Name: "a.gif", Size: 6000}, {Name: "b.gif", Size: 6000}},
		{{Name: "index.html", Size: 8000}, {Name: "c.gif", Size: 12000}},
	}
	runEnv(t, s, func(e *kernel.Env) error {
		if err := StoreGrouped(e, s.FS, "/web", groups); err != nil {
			return err
		}
		// All blocks of group 0 must sit within a tight disk span.
		var blocks []int64
		for _, d := range groups[0] {
			ref, _, err := s.FS.Lookup(e, GroupPath("/web", 0, d.Name))
			if err != nil {
				return err
			}
			exts, err := s.FS.FileExtents(e, ref)
			if err != nil {
				return err
			}
			for _, ext := range exts {
				for j := uint32(0); j < ext.Count; j++ {
					blocks = append(blocks, int64(ext.Start+uint64(j)))
				}
			}
		}
		min, max := blocks[0], blocks[0]
		for _, b := range blocks {
			if b < min {
				min = b
			}
			if b > max {
				max = b
			}
		}
		if span := max - min; span > 64 {
			t.Errorf("group 0 spans %d blocks; co-location broken", span)
		}
		return nil
	})
}

func TestGroupedColdFetchBeatsScattered(t *testing.T) {
	// The ablation for Cheetah's HTML-based grouping: cold-reading a
	// grouped page + inlines vs the same files scattered across the
	// disk with other data interleaved.
	coldFetch := func(grouped bool) sim.Time {
		s := boot(t)
		docs := []Doc{
			{Name: "index.html", Size: 10000},
			{Name: "a.gif", Size: 15000}, {Name: "b.gif", Size: 15000},
			{Name: "c.gif", Size: 15000},
		}
		var elapsed sim.Time
		runEnv(t, s, func(e *kernel.Env) error {
			if grouped {
				if err := StoreGrouped(e, s.FS, "/web", [][]Doc{docs}); err != nil {
					return err
				}
			} else {
				// Scattered: interleave each doc with filler files in
				// separate directories.
				for i, d := range docs {
					dir := fmt.Sprintf("/dir%d", i)
					if err := s.FS.Mkdir(e, dir, 0, 0, 7); err != nil {
						return err
					}
					ref, err := s.FS.Create(e, dir+"/"+d.Name, 0, 0, 6)
					if err != nil {
						return err
					}
					if _, err := s.FS.WriteAt(e, ref, 0, make([]byte, d.Size)); err != nil {
						return err
					}
					// Filler pushes the next doc away on disk.
					fref, err := s.FS.Create(e, dir+"/filler", 0, 0, 6)
					if err != nil {
						return err
					}
					if _, err := s.FS.WriteAt(e, fref, 0, make([]byte, 600_000)); err != nil {
						return err
					}
				}
			}
			if err := s.FS.Sync(e); err != nil {
				return err
			}
			for {
				if _, ok := s.X.RecycleLRU(e); !ok {
					break
				}
			}
			cache := NewCache(s.FS)
			start := e.Kernel().Now()
			for i, d := range docs {
				path := GroupPath("/web", 0, d.Name)
				if !grouped {
					path = fmt.Sprintf("/dir%d/%s", i, d.Name)
				}
				if _, err := cache.Lookup(e, path); err != nil {
					return err
				}
			}
			elapsed = e.Kernel().Now() - start
			return nil
		})
		return elapsed
	}
	g := coldFetch(true)
	sc := coldFetch(false)
	t.Logf("cold page fetch: grouped=%v scattered=%v (%.2fx)", g, sc, float64(sc)/float64(g))
	if g >= sc {
		t.Errorf("grouped fetch (%v) should beat scattered (%v)", g, sc)
	}
}
