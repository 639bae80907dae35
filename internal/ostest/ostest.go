// Package ostest provides OS-personality conformance checks and
// microbenchmark drivers shared by the ExOS and BSD test suites and by
// the paper-reproduction benches (Table 2, Section 7.1). Both
// personalities run the one unix.Proc implementation in
// internal/posix, so they behave identically by construction and only
// their costs differ; these checks cover that implementation and each
// personality's pipes, which are its own.
package ostest

import (
	"bytes"
	"fmt"
	"strings"

	"xok/internal/sim"
	"xok/internal/unix"
)

// RunFunc executes main inside a fresh process (uid 0) on the system
// under test and drains the machine before returning.
type RunFunc func(main func(unix.Proc))

// CheckFileOps exercises the POSIX surface end to end on the named
// personality; it returns an error describing the first misbehavior,
// prefixed with the personality name and carrying the full call
// transcript up to the failure, so a conformance failure is
// diagnosable without a debugger.
func CheckFileOps(name string, run RunFunc) error {
	var failure error
	var transcript []string
	call := func(format string, args ...any) {
		transcript = append(transcript, fmt.Sprintf(format, args...))
	}
	fail := func(format string, args ...any) {
		if failure == nil {
			failure = fmt.Errorf("%s: %s\ncall transcript (last call failed):\n  %s",
				name, fmt.Sprintf(format, args...), strings.Join(transcript, "\n  "))
		}
	}
	run(func(p unix.Proc) {
		call("mkdir(/dir, 7)")
		if err := p.Mkdir("/dir", 7); err != nil {
			fail("mkdir: %v", err)
			return
		}
		call("create(/dir/file, 6)")
		fd, err := p.Create("/dir/file", 6)
		if err != nil {
			fail("create: %v", err)
			return
		}
		payload := bytes.Repeat([]byte("abcdefgh"), 1000) // 8 KB
		call("write(fd, %d bytes)", len(payload))
		if n, err := p.Write(fd, payload); err != nil || n != len(payload) {
			fail("write = %d, %v", n, err)
			return
		}
		call("seek(fd, 0, SET)")
		if _, err := p.Seek(fd, 0, unix.SeekSet); err != nil {
			fail("seek: %v", err)
			return
		}
		buf := make([]byte, len(payload))
		call("read(fd, %d bytes)", len(buf))
		if n, err := p.Read(fd, buf); err != nil || n != len(payload) {
			fail("read = %d, %v", n, err)
			return
		}
		if !bytes.Equal(buf, payload) {
			fail("read data mismatch")
			return
		}
		// Sequential read hits EOF.
		call("read(fd) at EOF")
		if n, err := p.Read(fd, buf); err != nil || n != 0 {
			fail("read at EOF = %d, %v", n, err)
			return
		}
		call("seek(fd, -1, SET)")
		if _, err := p.Seek(fd, -1, unix.SeekSet); err == nil {
			fail("seek to negative offset succeeded")
			return
		}
		call("close(fd)")
		if err := p.Close(fd); err != nil {
			fail("close: %v", err)
			return
		}
		call("stat(/dir/file)")
		st, err := p.Stat("/dir/file")
		if err != nil || st.Size != int64(len(payload)) {
			fail("stat = %+v, %v", st, err)
			return
		}
		call("chmod(/dir/file, 4)")
		if err := p.Chmod("/dir/file", 4); err != nil {
			fail("chmod: %v", err)
			return
		}
		call("stat(/dir/file) after chmod")
		if st, err := p.Stat("/dir/file"); err != nil || st.Mode != 4 {
			fail("stat after chmod = %+v, %v", st, err)
			return
		}
		call("symlink(/dir/file, /dir/link)")
		if err := p.Symlink("/dir/file", "/dir/link"); err != nil {
			fail("symlink: %v", err)
			return
		}
		call("stat(/dir/link)")
		if st, err := p.Stat("/dir/link"); err != nil || st.Size != int64(len(payload)) {
			fail("stat through link = %+v, %v", st, err)
			return
		}
		call("open(/dir/link)")
		lfd, err := p.Open("/dir/link")
		if err != nil {
			fail("open through link: %v", err)
			return
		}
		small := make([]byte, 8)
		call("read(lfd, 8 bytes)")
		if n, err := p.Read(lfd, small); err != nil || n != 8 || !bytes.Equal(small, payload[:8]) {
			fail("read through link = %d, %v", n, err)
			return
		}
		call("close(lfd)")
		if err := p.Close(lfd); err != nil {
			fail("close link fd: %v", err)
			return
		}
		call("unlink(/dir/link)")
		if err := p.Unlink("/dir/link"); err != nil {
			fail("unlink link: %v", err)
			return
		}
		call("stat(/dir/file) after link removal")
		if _, err := p.Stat("/dir/file"); err != nil {
			fail("unlinking the link removed the target: %v", err)
			return
		}
		call("readdir(/dir)")
		ents, err := p.Readdir("/dir")
		if err != nil || len(ents) != 1 || ents[0].Name != "file" {
			fail("readdir = %v, %v", ents, err)
			return
		}
		call("rename(/dir/file, /dir/renamed)")
		if err := p.Rename("/dir/file", "/dir/renamed"); err != nil {
			fail("rename: %v", err)
			return
		}
		call("open(/dir/file) after rename")
		if _, err := p.Open("/dir/file"); err == nil {
			fail("old name still opens")
			return
		}
		call("unlink(/dir/renamed)")
		if err := p.Unlink("/dir/renamed"); err != nil {
			fail("unlink: %v", err)
			return
		}
		call("rmdir(/dir)")
		if err := p.Rmdir("/dir"); err != nil {
			fail("rmdir: %v", err)
			return
		}
		call("sync()")
		if err := p.Sync(); err != nil {
			fail("sync: %v", err)
			return
		}
		call("getpid()")
		if p.Getpid() <= 0 {
			fail("getpid = %d", p.Getpid())
		}
	})
	return failure
}

// CheckPipe verifies parent/child pipe plumbing: data integrity, EOF
// on writer close, and descriptor inheritance across Spawn.
func CheckPipe(run RunFunc) error {
	var failure error
	fail := func(format string, args ...any) {
		if failure == nil {
			failure = fmt.Errorf(format, args...)
		}
	}
	run(func(p unix.Proc) {
		r, w, err := p.Pipe()
		if err != nil {
			fail("pipe: %v", err)
			return
		}
		const total = 40000 // > pipe capacity: forces blocking both ways
		child, err := p.Spawn("writer", func(c unix.Proc) {
			chunk := bytes.Repeat([]byte{0xAA}, 1000)
			for i := 0; i < total/len(chunk); i++ {
				if _, err := c.Write(w, chunk); err != nil {
					fail("child write: %v", err)
					return
				}
			}
			if err := c.Close(w); err != nil {
				fail("child close: %v", err)
			}
		})
		if err != nil {
			fail("spawn: %v", err)
			return
		}
		// Parent must close its copy of the write end for EOF.
		if err := p.Close(w); err != nil {
			fail("parent close w: %v", err)
			return
		}
		got := 0
		buf := make([]byte, 3000)
		for {
			n, err := p.Read(r, buf)
			if err != nil {
				fail("parent read: %v", err)
				return
			}
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				if buf[i] != 0xAA {
					fail("corrupt pipe byte")
					return
				}
			}
			got += n
		}
		if got != total {
			fail("pipe moved %d bytes, want %d", got, total)
		}
		child.Wait()
	})
	return failure
}

// Close-semantics note: parent and child share the open-file object,
// so the child's close alone does not signal EOF — exactly UNIX.

// GetpidCost measures the marginal cost of one getpid call.
func GetpidCost(run RunFunc) sim.Time {
	const n = 2000
	var per sim.Time
	run(func(p unix.Proc) {
		p.Getpid() // warm
		start := p.Now()
		for i := 0; i < n; i++ {
			p.Getpid()
		}
		per = (p.Now() - start) / n
	})
	return per
}

// PipeLatency measures the one-way transfer latency for size-byte
// messages, via the classic two-pipe ping-pong between a parent and a
// child (Table 2 methodology).
func PipeLatency(run RunFunc, size, rounds int) sim.Time {
	var per sim.Time
	run(func(p unix.Proc) {
		r1, w1, err := p.Pipe() // parent -> child
		if err != nil {
			return
		}
		r2, w2, err := p.Pipe() // child -> parent
		if err != nil {
			return
		}
		child, err := p.Spawn("ponger", func(c unix.Proc) {
			buf := make([]byte, size)
			for i := 0; i < rounds; i++ {
				if readFull(c, r1, buf) != size {
					return
				}
				if n, err := c.Write(w2, buf); err != nil || n != size {
					return
				}
			}
		})
		if err != nil {
			return
		}
		buf := make([]byte, size)
		start := p.Now()
		for i := 0; i < rounds; i++ {
			if n, err := p.Write(w1, buf); err != nil || n != size {
				return
			}
			if readFull(p, r2, buf) != size {
				return
			}
		}
		elapsed := p.Now() - start
		per = elapsed / sim.Time(2*rounds)
		child.Wait()
	})
	return per
}

func readFull(p unix.Proc, fd unix.FD, buf []byte) int {
	got := 0
	for got < len(buf) {
		n, err := p.Read(fd, buf[got:])
		if err != nil || n == 0 {
			break
		}
		got += n
	}
	return got
}

// ForkCost measures one Spawn+Wait of a trivial child.
func ForkCost(run RunFunc) sim.Time {
	var cost sim.Time
	run(func(p unix.Proc) {
		start := p.Now()
		h, err := p.Spawn("noop", func(c unix.Proc) {})
		if err != nil {
			return
		}
		h.Wait()
		cost = p.Now() - start
	})
	return cost
}
