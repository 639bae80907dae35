package xok

import (
	"fmt"
	"testing"

	"xok/internal/apps"
	"xok/internal/cap"
	"xok/internal/cffs"
	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/xn"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// strips one structural property and measures what it was worth on a
// representative slice of the Table 1 workload (unpack an archive,
// then delete the tree — the metadata-heavy steps).

// cffsVariants isolates each C-FFS property in turn.
var cffsVariants = []struct {
	name string
	cfg  cffs.Config
}{
	{"C-FFS", cffs.DefaultConfig()},
	{"NoColocation", cffs.Config{Colocate: false, SyncMeta: false, EmbeddedInodes: true}},
	{"SyncMetadata", cffs.Config{Colocate: true, SyncMeta: true, EmbeddedInodes: true}},
	{"SplitInodes", cffs.Config{Colocate: true, SyncMeta: false, EmbeddedInodes: false}},
	{"FFS(all-off)", cffs.FFSConfig()},
}

// unpackDelete is the measured workload: unpack a ~1.3-MB archive into
// a tree, sync, delete the tree.
func unpackDelete(b *testing.B, cfg cffs.Config, flushBehind int, fifo bool) sim.Time {
	b.Helper()
	k := kernel.New(kernel.Config{Name: "abl", MemPages: 8192, DiskSize: 65536})
	k.Disk.FIFO = fifo
	x := xn.New(k)
	x.FlushBehind = flushBehind

	spec := apps.TreeSpec{}
	for d := 0; d < 4; d++ {
		dir := fmt.Sprintf("d%d", d)
		spec.Dirs = append(spec.Dirs, dir)
		for i := 0; i < 12; i++ {
			spec.Files = append(spec.Files, apps.FileSpec{
				Path: fmt.Sprintf("%s/f%02d", dir, i), Size: 20000 + i*1000,
			})
		}
	}
	archive := apps.ArchiveBytes(spec)

	var fs *cffs.FS
	var start, end sim.Time
	k.Spawn("run", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		var err error
		fs, err = cffs.Mkfs(e, x, "abl", cfg)
		if err != nil {
			b.Error(err)
			return
		}
		// Stage the archive bytes as a file via direct writes.
		ref, err := fs.Create(e, "/in.tar", 0, 0, 6)
		if err != nil {
			b.Error(err)
			return
		}
		if _, err := fs.WriteAt(e, ref, 0, archive); err != nil {
			b.Error(err)
			return
		}
		if err := fs.Sync(e); err != nil {
			b.Error(err)
			return
		}

		start = k.Now()
		// Unpack.
		if err := fs.Mkdir(e, "/out", 0, 0, 7); err != nil {
			b.Error(err)
			return
		}
		data := archive
		off := 0
		for off < len(data) {
			kind, name, size, next, err := apps.ParseArchiveHeader(data, off)
			if err != nil {
				b.Error(err)
				return
			}
			off = next
			switch kind {
			case 'D':
				if err := fs.Mkdir(e, "/out/"+name, 0, 0, 7); err != nil {
					b.Error(err)
					return
				}
			case 'F':
				fref, err := fs.Create(e, "/out/"+name, 0, 0, 6)
				if err != nil {
					b.Error(err)
					return
				}
				if _, err := fs.WriteAt(e, fref, 0, data[off:off+size]); err != nil {
					b.Error(err)
					return
				}
				off += size
			}
		}
		if err := fs.Sync(e); err != nil {
			b.Error(err)
			return
		}
		// Delete.
		for i := len(spec.Files) - 1; i >= 0; i-- {
			if err := fs.Unlink(e, "/out/"+spec.Files[i].Path); err != nil {
				b.Error(err)
				return
			}
		}
		for i := len(spec.Dirs) - 1; i >= 0; i-- {
			if err := fs.Rmdir(e, "/out/"+spec.Dirs[i]); err != nil {
				b.Error(err)
				return
			}
		}
		if err := fs.Sync(e); err != nil {
			b.Error(err)
			return
		}
		end = k.Now()
	})
	k.Run()
	return end - start
}

// BenchmarkAblationCFFS measures each C-FFS structural property.
func BenchmarkAblationCFFS(b *testing.B) {
	for _, v := range cffsVariants {
		b.Run(v.name, func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				t = unpackDelete(b, v.cfg, 512, false)
			}
			b.ReportMetric(t.Millis(), "vms/workload")
		})
	}
}

// BenchmarkAblationFlushBehind sweeps the flush-behind threshold
// (0 disables it: dirty data accumulates until an explicit sync).
func BenchmarkAblationFlushBehind(b *testing.B) {
	for _, fb := range []int{0, 64, 512, 4096} {
		b.Run(fmt.Sprintf("threshold=%d", fb), func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				t = unpackDelete(b, cffs.DefaultConfig(), fb, false)
			}
			b.ReportMetric(t.Millis(), "vms/workload")
		})
	}
}

// BenchmarkAblationDiskScheduler compares the driver's CSCAN against
// FIFO servicing on a deep queue of scattered reads — the XCP-style
// batch where scheduling matters ("if multiple instances of XCP run
// concurrently, the disk driver will merge the schedules").
func BenchmarkAblationDiskScheduler(b *testing.B) {
	for _, fifo := range []bool{false, true} {
		name := "CSCAN"
		if fifo {
			name = "FIFO"
		}
		b.Run(name, func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				st := sim.NewStats()
				d := disk.New(eng, st, 1<<20)
				d.FIFO = fifo
				rng := sim.NewRNG(99)
				for j := 0; j < 256; j++ {
					d.Submit(&disk.Request{Block: disk.BlockNo(rng.Intn(1 << 20)), Count: 1})
				}
				eng.Run()
				t = eng.Now()
			}
			b.ReportMetric(t.Millis(), "vms/256-reads")
		})
	}
}
