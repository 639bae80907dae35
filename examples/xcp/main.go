// XCP: the "zero-touch" file copy of Section 7.2. Copies a batch of
// fragmented files twice — once with the ordinary UNIX cp through the
// ExOS file descriptor layer, once with XCP through the raw XN/disk
// interfaces — and reports both times, in core and on disk. Each copy
// runs on its own freshly booted Xok/ExOS machine (core.Bench.XCP,
// the experiment behind `xok-bench -run xcp`).
package main

import (
	"fmt"
	"log"

	"xok/internal/core"
)

func main() {
	rows, err := (&core.Bench{}).XCP()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		label := "in core"
		if r.Cold {
			label = "on disk"
		}
		fmt.Printf("%-10s cp=%10v  xcp=%10v  speedup %.1fx\n",
			label, r.Cp, r.XCP, float64(r.Cp)/float64(r.XCP))
	}
	fmt.Println("\nXCP sorts all source blocks into one disk schedule, overlaps")
	fmt.Println("allocation with the reads, and binds the cached pages to the new")
	fmt.Println("blocks - the CPU never touches the data (Section 7.2).")
}
