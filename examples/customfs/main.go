// Customfs: the exokernel's headline ability — an UNPRIVILEGED
// application defines a brand-new on-disk file system and XN hosts it
// safely next to everything else (Section 4: "creating new file
// formats should be simple and lightweight. It should not require any
// special privilege").
//
// The example builds "logfs", a tiny append-only log store:
//
//	index block: [count:u32][pad:u32] then count x {start:u64, len:u32, pad:u32}
//	data blocks: raw log segments
//
// Its metadata is described to the kernel by three UDFs written in the
// pseudo-RISC template language. The demo appends records, shows XN
// rejecting a lying modification and an out-of-order write, then
// crashes the machine and proves the log survives via XN's
// reachability GC.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"xok/internal/cap"
	"xok/internal/disk"
	"xok/internal/exos"
	"xok/internal/kernel"
	"xok/internal/udf"
	"xok/internal/xn"
)

// The owns-udf: walk the index's extent table, emitting what the log
// owns. XN interprets this — the kernel never learns the layout.
const logOwns = `
	li   r0, 0
	ldw  r1, r0, 0      ; count
	li   r2, 0          ; i
	li   r3, 8          ; entry offset
loop:
	bge  r2, r1, done
	ldq  r4, r3, 0      ; start
	ldw  r5, r3, 8      ; len
	li   r6, %d         ; data template id
	emit r4, r5, r6
	addi r3, r3, 16
	addi r2, r2, 1
	jmp  loop
done:
	li   r0, 0
	ret  r0
`

const approveAll = "li r0, 1\nret r0"
const ownsNothing = "li r0, 0\nret r0"
const blockSize = "li r0, 4096\nret r0"

func main() {
	sys, err := exos.Boot(exos.Config{})
	if err != nil {
		log.Fatal(err)
	}

	x := sys.X
	var logRoot disk.BlockNo
	var dataT, idxT xn.TemplateID

	// Phase 1: install the new file system's templates and create it.
	sys.K.Spawn("mklogfs", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(777) // an ordinary user, no privilege
		var err error
		dataT, err = x.InstallTemplate(e, xn.Template{
			Name: "logfs.data",
			Owns: udf.MustAssemble("lo", ownsNothing),
			Acl:  udf.MustAssemble("la", approveAll),
			Size: udf.MustAssemble("ls", blockSize),
		})
		check(err)
		idxT, err = x.InstallTemplate(e, xn.Template{
			Name: "logfs.index",
			Owns: udf.MustAssemble("io", fmt.Sprintf(logOwns, dataT)),
			Acl:  udf.MustAssemble("ia", approveAll),
			Size: udf.MustAssemble("is", blockSize),
		})
		check(err)
		logRoot, err = x.AllocRootExtent(e, 5000, 1)
		check(err)
		check(x.RegisterRoot(e, xn.Root{Name: "logfs", Start: logRoot, Count: 1, Tmpl: idxT}))
		_, err = x.LoadRoot(e, "logfs")
		check(err)
		fmt.Printf("logfs created: root block %d, templates data=%d index=%d\n",
			logRoot, dataT, idxT)

		// Append three records.
		for i := 0; i < 3; i++ {
			appendRecord(e, x, logRoot, dataT, fmt.Sprintf("log record #%d", i))
		}
		fmt.Println("appended 3 records")

		// XN's UDF check in action: claim to allocate block A while
		// the modification actually records block B.
		a, _ := x.FindFree(6000, 1)
		mods := indexAppendMods(x, logRoot, a+1, 1) // lie: records a+1
		err = x.Alloc(e, logRoot, mods, udf.Extent{Start: int64(a), Count: 1, Type: int64(dataT)})
		fmt.Printf("lying allocation rejected: %v\n", err)

		// Ordering rule: allocate a new record's block, then try to
		// write the index before the record has ever hit the disk.
		child, _ := x.FindFree(6100, 1)
		check(x.Alloc(e, logRoot, indexAppendMods(x, logRoot, child, 1),
			udf.Extent{Start: int64(child), Count: 1, Type: int64(dataT)}))
		err = x.Write(e, []disk.BlockNo{logRoot})
		fmt.Printf("write of index with uninitialized record rejected: %v\n", err)
		if _, err := x.AttachPage(e, child); err != nil {
			log.Fatal(err)
		}
		copy(x.PageData(child), "log record #3")
		check(x.MarkDirty(e, child))
		check(x.Write(e, []disk.BlockNo{child})) // record first...
		check(x.Sync(e))                         // ...then the index
		fmt.Println("ordered writes completed; log is on disk")
	})
	sys.Run()

	// Phase 2: crash. All memory state is gone; remount from the disk
	// image and let the reachability GC rebuild the free map.
	fmt.Println("\n--- simulated crash; remounting from the disk image ---")
	fmt.Println()
	x2, err := xn.Mount(sys.K)
	check(err)
	sys.K.Spawn("recover", func(e *kernel.Env) {
		e.Creds = cap.UnixCreds(777)
		r, err := x2.LoadRoot(e, "logfs")
		check(err)
		data := x2.PageData(r.Start)
		count := binary.LittleEndian.Uint32(data[0:])
		fmt.Printf("recovered logfs: %d extents in the index\n", count)
		dt, _ := x2.TemplateByName("logfs.data")
		for i := uint32(0); i < count; i++ {
			off := 8 + int(i)*16
			start := disk.BlockNo(binary.LittleEndian.Uint64(data[off:]))
			if binary.LittleEndian.Uint32(data[off+8:]) == 0 {
				continue
			}
			check(x2.Insert(e, r.Start, udf.Extent{Start: int64(start), Count: 1, Type: int64(dt.ID)}))
			check(x2.Read(e, []disk.BlockNo{start}, nil))
			blk := x2.PageData(start)
			n := 0
			for n < len(blk) && blk[n] != 0 {
				n++
			}
			fmt.Printf("  extent %d @%d: %q\n", i, start, string(blk[:n]))
		}
		fmt.Printf("free blocks after GC: %d\n", x2.FreeBlocks())
	})
	sys.Run()
}

// appendRecord allocates a data block into the index and writes text.
func appendRecord(e *kernel.Env, x *xn.XN, root disk.BlockNo, dataT xn.TemplateID, text string) {
	b, ok := x.FindFree(root+1, 1)
	if !ok {
		log.Fatal("no free blocks")
	}
	check(x.Alloc(e, root, indexAppendMods(x, root, b, 1),
		udf.Extent{Start: int64(b), Count: 1, Type: int64(dataT)}))
	if _, err := x.AttachPage(e, b); err != nil {
		log.Fatal(err)
	}
	copy(x.PageData(b), text)
	check(x.MarkDirty(e, b))
	check(x.Write(e, []disk.BlockNo{b}))
}

// indexAppendMods builds the byte-level modification that appends an
// extent entry to the index block.
func indexAppendMods(x *xn.XN, root, start disk.BlockNo, count uint32) []xn.Mod {
	data := x.PageData(root)
	n := binary.LittleEndian.Uint32(data[0:])
	entry := make([]byte, 16)
	binary.LittleEndian.PutUint64(entry[0:], uint64(start))
	binary.LittleEndian.PutUint32(entry[8:], count)
	cnt := make([]byte, 4)
	binary.LittleEndian.PutUint32(cnt, n+1)
	return []xn.Mod{
		{Off: 8 + int(n)*16, Bytes: entry},
		{Off: 0, Bytes: cnt},
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
