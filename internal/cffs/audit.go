package cffs

import (
	"xok/internal/cap"
	"xok/internal/disk"
	"xok/internal/kernel"
	"xok/internal/xn"
)

// AuditImage is the post-crash recovery audit: mount a crashed disk
// image on a forensic machine, let XN's reachability GC rebuild the
// free map (Section 4.4), and return every violation found — a failed
// mount or attach, XN bookkeeping inconsistencies, and fsck structural
// errors. An empty slice means the image recovered clean. The result
// is deterministic for a given image, so same-seed crash runs digest
// identically.
//
// The forensic disk adopts the image's frozen media (no copy) on a
// fresh arm and queue, and writes what the audit changes into its own
// overlay; the caller keeps the image and releases it afterwards.
func AuditImage(ci *disk.CrashImage, diskBlocks int64, fsName string, fsCfg Config) []string {
	k := kernel.New(kernel.Config{Name: "audit", MemPages: 4096, DiskSize: diskBlocks})
	k.Disk.AdoptCrash(ci)
	return audit(k, fsName, fsCfg)
}

// AuditFlat is AuditImage over a flattened image restored whole onto
// the forensic disk: the reference the crash hand-off is tested
// against. The caller keeps img.
func AuditFlat(img disk.Image, diskBlocks int64, fsName string, fsCfg Config) []string {
	k := kernel.New(kernel.Config{Name: "audit", MemPages: 4096, DiskSize: diskBlocks})
	k.Disk.Restore(img)
	return audit(k, fsName, fsCfg)
}

// audit mounts k's disk, runs the checks and releases k.
func audit(k *kernel.Kernel, fsName string, fsCfg Config) []string {
	defer k.Release()
	x, err := xn.Mount(k)
	if err != nil {
		return []string{"mount: " + err.Error()}
	}
	var errs []string
	errs = append(errs, x.CheckConsistency()...)
	k.Spawn("fsck", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(0)
		fs, aerr := Attach(e, x, fsName, fsCfg)
		if aerr != nil {
			errs = append(errs, "attach: "+aerr.Error())
			return
		}
		report, ferr := fs.Fsck(e)
		if ferr != nil {
			errs = append(errs, "fsck: "+ferr.Error())
			return
		}
		errs = append(errs, report.Errors...)
	})
	k.Run()
	return errs
}
