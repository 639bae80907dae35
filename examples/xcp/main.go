// XCP: the "zero-touch" file copy of Section 7.2. Copies a batch of
// files twice — once with the ordinary UNIX cp through the ExOS file
// descriptor layer, once with XCP through the raw XN/disk interfaces —
// and reports both times, warm and cold.
package main

import (
	"fmt"
	"log"

	"xok/internal/apps"
	"xok/internal/cap"
	"xok/internal/exos"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/unix"
)

const (
	nFiles   = 8
	fileSize = 400_000
)

func main() {
	fmt.Printf("copying %d files of %d KB each\n\n", nFiles, fileSize/1024)
	for _, cold := range []bool{false, true} {
		label := "in core"
		if cold {
			label = "on disk (cold cache)"
		}
		cpT := run(cold, false)
		xcpT := run(cold, true)
		fmt.Printf("%-22s cp=%10v   xcp=%10v   speedup %.1fx\n",
			label, cpT, xcpT, float64(cpT)/float64(xcpT))
	}
	fmt.Println("\nXCP sorts all source blocks into one disk schedule, overlaps")
	fmt.Println("allocation with the reads, and binds the cached pages to the new")
	fmt.Println("blocks - the CPU never touches the data (Section 7.2).")
}

// run stages the files on a fresh machine and copies them.
func run(cold, useXCP bool) sim.Time {
	sys := exos.Boot(exos.Config{})

	// Stage interleaved (fragmented) source files.
	sys.Spawn("stage", 0, func(p unix.Proc) {
		fds := make([]unix.FD, nFiles)
		for i := range fds {
			fd, err := p.Create(fmt.Sprintf("/src%d", i), 6)
			if err != nil {
				log.Fatal(err)
			}
			fds[i] = fd
		}
		chunk := make([]byte, sim.DiskBlockSize)
		for off := 0; off < fileSize; off += len(chunk) {
			for i := range fds {
				if _, err := p.Write(fds[i], chunk); err != nil {
					log.Fatal(err)
				}
			}
		}
		for _, fd := range fds {
			p.Close(fd)
		}
		if err := p.Sync(); err != nil {
			log.Fatal(err)
		}
	})
	sys.Run()

	if cold {
		sys.K.Spawn("evict", func(e *kernel.Env) {
			e.Creds = cap.UnixCreds(0)
			for {
				if _, ok := sys.X.RecycleLRU(e); !ok {
					return
				}
			}
		})
		sys.Run()
	} else {
		sys.Spawn("warm", 0, func(p unix.Proc) {
			for i := 0; i < nFiles; i++ {
				if _, err := apps.ReadFile(p, fmt.Sprintf("/src%d", i)); err != nil {
					log.Fatal(err)
				}
			}
		})
		sys.Run()
	}

	pairs := make([][2]string, nFiles)
	for i := range pairs {
		pairs[i] = [2]string{fmt.Sprintf("/src%d", i), fmt.Sprintf("/dst%d", i)}
	}

	start := sys.Now()
	var end sim.Time
	if useXCP {
		sys.K.Spawn("xcp", func(e *kernel.Env) {
			e.Creds = cap.UnixCreds(0)
			if err := apps.XCP(e, sys.FS, pairs); err != nil {
				log.Fatal(err)
			}
			end = sys.Now()
		})
	} else {
		sys.Spawn("cp", 0, func(p unix.Proc) {
			for _, pr := range pairs {
				if err := apps.Cp(p, pr[0], pr[1]); err != nil {
					log.Fatal(err)
				}
			}
			end = p.Now()
		})
	}
	sys.Run()
	return end - start
}
