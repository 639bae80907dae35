// Package xio is the extensible I/O library of Section 7.3: "designed
// to allow application writers to exploit domain-specific knowledge and
// to simplify the construction of high-performance servers". Cheetah
// builds on it; the package provides:
//
//   - a merged file cache / retransmission pool: documents are pinned
//     in the XN buffer cache and transmitted directly from it, with
//     per-file checksums precomputed at load time ("Cheetah avoids all
//     in-memory data touching (by the CPU) ... by transmitting file
//     data directly from the file cache using precomputed file
//     checksums");
//   - application-level caching of pointers to file cache blocks (the
//     "simple (though generally valuable) extensions" that make even
//     the vanilla socket interface on XIO faster).
package xio

import (
	"xok/internal/cffs"
	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/sim"
)

// Entry is one cached document: block pointers into the XN buffer
// cache plus the precomputed checksum.
type Entry struct {
	Path     string
	Size     int
	Ref      cffs.Ref
	Blocks   []disk.BlockNo
	Checksum uint32
}

// Cache is the merged file cache / retransmission pool.
type Cache struct {
	FS      *cffs.FS
	entries map[string]*Entry

	// Hits/Misses are exposed for the benchmark reports.
	Hits   int64
	Misses int64
}

// NewCache builds an empty cache over a file system.
func NewCache(fs *cffs.FS) *Cache {
	return &Cache{FS: fs, entries: make(map[string]*Entry)}
}

// Lookup returns the cached entry, loading (and checksumming) it on a
// miss. Hits cost a hash probe; no bytes are touched.
func (c *Cache) Lookup(e *kernel.Env, path string) (*Entry, error) {
	if en, ok := c.entries[path]; ok {
		c.Hits++
		e.Use(200) // hash probe + pointer chase
		return en, nil
	}
	c.Misses++
	ref, in, err := c.FS.Lookup(e, path)
	if err != nil {
		return nil, err
	}
	en := &Entry{Path: path, Size: int(in.Size), Ref: ref}
	// Bind every block into the cache (bind-time access check), pin
	// it, and checksum it once.
	exts, err := c.FS.FileExtents(e, ref)
	if err != nil {
		return nil, err
	}
	need := (int(in.Size) + sim.DiskBlockSize - 1) / sim.DiskBlockSize
	for _, ext := range exts {
		for j := uint32(0); j < ext.Count && len(en.Blocks) < need; j++ {
			en.Blocks = append(en.Blocks, disk.BlockNo(ext.Start+uint64(j)))
		}
	}
	// Fault the data in through the normal read path (one batched,
	// mostly-sequential disk schedule thanks to co-location), then pin.
	if in.Size > 0 {
		buf := make([]byte, in.Size)
		if _, err := c.FS.ReadAt(e, ref, 0, buf); err != nil {
			return nil, err
		}
		// Precompute the file checksum, stored with the entry.
		e.Use(sim.ChecksumCost(int(in.Size)))
		c.FS.X.K.Stats.Add(sim.CtrChecksums, int64(in.Size))
		var sum uint32
		for _, b := range buf {
			sum = sum*31 + uint32(b)
		}
		en.Checksum = sum
	}
	for _, b := range en.Blocks {
		c.FS.X.Pin(b)
	}
	c.entries[path] = en
	return en, nil
}

// Evict drops a document from the cache, unpinning its pages.
func (c *Cache) Evict(path string) {
	en, ok := c.entries[path]
	if !ok {
		return
	}
	for _, b := range en.Blocks {
		c.FS.X.Unpin(b)
	}
	delete(c.entries, path)
}
