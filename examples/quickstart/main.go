// Quickstart: boot a simulated Xok/ExOS machine, run a few unmodified
// UNIX programs against the C-FFS library file system, and print what
// the machine did — the exokernel "hello world".
package main

import (
	"fmt"
	"log"

	"xok/internal/apps"
	"xok/internal/exos"
	"xok/internal/sim"
	"xok/internal/unix"
)

func main() {
	// Boot: Xok kernel + XN storage + a fresh C-FFS volume + ExOS.
	sys, err := exos.Boot(exos.Config{Protect: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("booted Xok/ExOS:",
		sys.K.Mem.NumPages(), "pages of memory,",
		sys.K.Disk.NumBlocks(), "disk blocks")

	// Run an unmodified UNIX-style program as a process.
	var failed error
	sys.Spawn("demo", 501, func(p unix.Proc) {
		if err := run(p); err != nil {
			failed = err
		}
	})
	sys.Run()
	if failed != nil {
		log.Fatal(failed)
	}

	fmt.Printf("\nvirtual time elapsed: %v\n", sys.Now())
	fmt.Printf("system calls: %d, library calls: %d, disk reads: %d, disk writes: %d\n",
		sys.Stats().Get(sim.CtrSyscalls),
		sys.Stats().Get(sim.CtrLibCalls),
		sys.Stats().Get(sim.CtrDiskReads),
		sys.Stats().Get(sim.CtrDiskWrites))
}

func run(p unix.Proc) error {
	fmt.Printf("\nrunning as pid %d, uid %d\n", p.Getpid(), p.UID())

	// Build a small project tree and exercise the classic tools.
	if err := p.Mkdir("/proj", 7); err != nil {
		return err
	}
	text := []byte("the exokernel architecture safely gives untrusted software\n" +
		"efficient control over hardware and software resources\n")
	if err := apps.WriteFile(p, "/proj/abstract.txt", text); err != nil {
		return err
	}
	words, err := apps.Wc(p, "/proj/abstract.txt")
	if err != nil {
		return err
	}
	fmt.Println("wc /proj/abstract.txt:", words, "words")

	hits, err := apps.Grep(p, "/proj", "control")
	if err != nil {
		return err
	}
	fmt.Println("grep control /proj:", hits, "match(es)")

	if err := apps.Cp(p, "/proj/abstract.txt", "/proj/copy.txt"); err != nil {
		return err
	}
	ents, err := p.Readdir("/proj")
	if err != nil {
		return err
	}
	fmt.Print("ls /proj:")
	for _, e := range ents {
		fmt.Printf(" %s(%dB)", e.Name, e.Size)
	}
	fmt.Println()

	// A child process, exokernel style: ExOS implements fork as a
	// library using copy-on-write over Xok's exposed page tables.
	start := p.Now()
	h, err := p.Spawn("child", func(c unix.Proc) {
		_ = apps.WriteFile(c, "/proj/child-was-here", []byte("hi"))
	})
	if err != nil {
		return err
	}
	h.Wait()
	fmt.Printf("fork+exec+wait took %v (ExOS fork is ~6ms, Section 6.2)\n", p.Now()-start)

	return p.Sync()
}
