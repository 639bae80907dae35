package machine

import (
	"errors"
	"fmt"
	"testing"

	"xok/internal/sim"
	"xok/internal/unix"
)

// charge is what one unix.Proc call cost: the virtual time it took and
// the counters it moved.
type charge struct {
	Cycles                        sim.Time
	Syscalls, LibCalls, ProtCalls int64
}

func (c charge) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d}", c.Cycles, c.Syscalls, c.LibCalls, c.ProtCalls)
}

// chargeStep is one call of the charge script: its name, and the call
// itself, which reports an error when the call's result is not the one
// the script expects.
type chargeStep struct {
	name string
	call func(p unix.Proc, fds map[string]unix.FD) error
}

func want(err, target error) error {
	if !errors.Is(err, target) {
		return fmt.Errorf("err = %v, want %v", err, target)
	}
	return nil
}

func openAs(key string, open func() (unix.FD, error), fds map[string]unix.FD) error {
	fd, err := open()
	fds[key] = fd
	return err
}

// chargeScript walks every unix.Proc call: the success paths, EBADF on
// a closed descriptor, ESPIPE on a pipe seek, ENOENT on open, a pipe's
// write, read and EOF, and spawn+wait.
var chargeScript = []chargeStep{
	{"getpid", func(p unix.Proc, _ map[string]unix.FD) error { p.Getpid(); return nil }},
	{"mkdir", func(p unix.Proc, _ map[string]unix.FD) error { return p.Mkdir("/d", 7) }},
	{"create", func(p unix.Proc, fds map[string]unix.FD) error {
		return openAs("f", func() (unix.FD, error) { return p.Create("/d/f", 6) }, fds)
	}},
	{"write", func(p unix.Proc, fds map[string]unix.FD) error {
		_, err := p.Write(fds["f"], make([]byte, 4096))
		return err
	}},
	{"seek-set", func(p unix.Proc, fds map[string]unix.FD) error {
		_, err := p.Seek(fds["f"], 0, unix.SeekSet)
		return err
	}},
	{"read", func(p unix.Proc, fds map[string]unix.FD) error {
		_, err := p.Read(fds["f"], make([]byte, 4096))
		return err
	}},
	{"seek-end", func(p unix.Proc, fds map[string]unix.FD) error {
		_, err := p.Seek(fds["f"], -10, unix.SeekEnd)
		return err
	}},
	{"stat", func(p unix.Proc, _ map[string]unix.FD) error { _, err := p.Stat("/d/f"); return err }},
	{"readdir", func(p unix.Proc, _ map[string]unix.FD) error { _, err := p.Readdir("/d"); return err }},
	{"chmod", func(p unix.Proc, _ map[string]unix.FD) error { return p.Chmod("/d/f", 4) }},
	{"symlink", func(p unix.Proc, _ map[string]unix.FD) error { return p.Symlink("/d/f", "/d/l") }},
	{"rename", func(p unix.Proc, _ map[string]unix.FD) error { return p.Rename("/d/f", "/d/g") }},
	{"close", func(p unix.Proc, fds map[string]unix.FD) error { return p.Close(fds["f"]) }},
	{"open", func(p unix.Proc, fds map[string]unix.FD) error {
		return openAs("g", func() (unix.FD, error) { return p.Open("/d/g") }, fds)
	}},
	{"open-enoent", func(p unix.Proc, _ map[string]unix.FD) error {
		_, err := p.Open("/d/nope")
		if err == nil {
			return errors.New("open of a missing file succeeded")
		}
		return nil
	}},
	{"read-ebadf", func(p unix.Proc, fds map[string]unix.FD) error {
		_, err := p.Read(fds["f"], make([]byte, 8))
		return want(err, unix.ErrBadFD)
	}},
	{"write-ebadf", func(p unix.Proc, fds map[string]unix.FD) error {
		_, err := p.Write(fds["f"], make([]byte, 8))
		return want(err, unix.ErrBadFD)
	}},
	{"seek-ebadf", func(p unix.Proc, fds map[string]unix.FD) error {
		_, err := p.Seek(fds["f"], 0, unix.SeekSet)
		return want(err, unix.ErrBadFD)
	}},
	{"close-ebadf", func(p unix.Proc, fds map[string]unix.FD) error {
		return want(p.Close(fds["f"]), unix.ErrBadFD)
	}},
	{"unlink", func(p unix.Proc, _ map[string]unix.FD) error { return p.Unlink("/d/l") }},
	{"sync", func(p unix.Proc, _ map[string]unix.FD) error { return p.Sync() }},
	{"pipe", func(p unix.Proc, fds map[string]unix.FD) error {
		r, w, err := p.Pipe()
		fds["r"], fds["w"] = r, w
		return err
	}},
	{"pipe-write", func(p unix.Proc, fds map[string]unix.FD) error {
		_, err := p.Write(fds["w"], make([]byte, 100))
		return err
	}},
	{"pipe-read", func(p unix.Proc, fds map[string]unix.FD) error {
		n, err := p.Read(fds["r"], make([]byte, 100))
		if err == nil && n != 100 {
			err = fmt.Errorf("read %d bytes, want 100", n)
		}
		return err
	}},
	{"seek-espipe", func(p unix.Proc, fds map[string]unix.FD) error {
		_, err := p.Seek(fds["r"], 0, unix.SeekSet)
		return want(err, unix.ErrSeekPipe)
	}},
	{"close-pipe-w", func(p unix.Proc, fds map[string]unix.FD) error { return p.Close(fds["w"]) }},
	{"pipe-eof", func(p unix.Proc, fds map[string]unix.FD) error {
		n, err := p.Read(fds["r"], make([]byte, 100))
		if err == nil && n != 0 {
			err = fmt.Errorf("read %d bytes at EOF", n)
		}
		return err
	}},
	{"spawn-wait", func(p unix.Proc, _ map[string]unix.FD) error {
		h, err := p.Spawn("child", func(unix.Proc) {})
		if err != nil {
			return err
		}
		h.Wait()
		return nil
	}},
	{"rmdir", func(p unix.Proc, _ map[string]unix.FD) error {
		if err := p.Unlink("/d/g"); err != nil {
			return err
		}
		return p.Rmdir("/d")
	}},
}

// wantCharges pins each call's charge per personality, in
// Personalities() order: Xok/ExOS, Xok/ExOS (unprotected), FreeBSD,
// OpenBSD, OpenBSD/C-FFS. Each entry is {cycles, syscalls, libcalls,
// prot_calls}.
var wantCharges = map[string][5]charge{
	"getpid":       {{100, 0, 1, 0}, {100, 0, 1, 0}, {260, 1, 0, 0}, {260, 1, 0, 0}, {260, 1, 0, 0}},
	"mkdir":        {{3843, 2, 1, 0}, {450, 0, 1, 0}, {4033035, 4, 1, 0}, {4033035, 4, 1, 0}, {1270, 1, 1, 0}},
	"create":       {{4128, 4, 2, 3}, {1480, 0, 2, 0}, {3465827, 3, 2, 0}, {3465827, 3, 2, 0}, {2300, 1, 2, 0}},
	"write":        {{12080, 4, 1, 0}, {7006, 0, 1, 0}, {7376, 1, 1, 0}, {7376, 1, 1, 0}, {7376, 1, 1, 0}},
	"seek-set":     {{80, 0, 1, 0}, {80, 0, 1, 0}, {300, 1, 0, 0}, {300, 1, 0, 0}, {300, 1, 0, 0}},
	"read":         {{7006, 0, 1, 0}, {7006, 0, 1, 0}, {7376, 1, 1, 0}, {7376, 1, 1, 0}, {7376, 1, 1, 0}},
	"seek-end":     {{80, 0, 1, 0}, {80, 0, 1, 0}, {300, 1, 0, 0}, {300, 1, 0, 0}, {300, 1, 0, 0}},
	"stat":         {{110, 0, 1, 0}, {110, 0, 1, 0}, {630, 1, 1, 0}, {630, 1, 1, 0}, {630, 1, 1, 0}},
	"readdir":      {{972, 0, 1, 0}, {972, 0, 1, 0}, {1592, 1, 1, 0}, {1592, 1, 1, 0}, {1592, 1, 1, 0}},
	"chmod":        {{2366, 1, 1, 0}, {110, 0, 1, 0}, {4796932, 4, 1, 0}, {4796932, 4, 1, 0}, {830, 1, 1, 0}},
	"symlink":      {{11064, 6, 2, 0}, {926, 0, 2, 0}, {6323704, 5, 2, 0}, {6323704, 5, 2, 0}, {1746, 1, 2, 0}},
	"rename":       {{3896, 1, 2, 0}, {1480, 0, 2, 0}, {3465676, 3, 2, 0}, {3465676, 3, 2, 0}, {2300, 1, 2, 0}},
	"close":        {{480, 3, 0, 3}, {0, 0, 0, 0}, {320, 1, 0, 0}, {320, 1, 0, 0}, {320, 1, 0, 0}},
	"open":         {{590, 3, 1, 3}, {110, 0, 1, 0}, {730, 1, 1, 0}, {730, 1, 1, 0}, {730, 1, 1, 0}},
	"open-enoent":  {{740, 0, 1, 0}, {740, 0, 1, 0}, {1360, 1, 1, 0}, {1360, 1, 1, 0}, {1360, 1, 1, 0}},
	"read-ebadf":   {{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}},
	"write-ebadf":  {{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}},
	"seek-ebadf":   {{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}},
	"close-ebadf":  {{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}},
	"unlink":       {{4946, 2, 1, 0}, {110, 0, 1, 0}, {3454801, 3, 1, 0}, {3454801, 3, 1, 0}, {830, 1, 1, 0}},
	"sync":         {{3366110, 3, 0, 0}, {3363548, 3, 0, 0}, {420, 1, 0, 0}, {420, 1, 0, 0}, {3363968, 4, 0, 0}},
	"pipe":         {{1376, 7, 0, 6}, {416, 1, 0, 0}, {1020, 1, 0, 0}, {1020, 1, 0, 0}, {1020, 1, 0, 0}},
	"pipe-write":   {{966, 1, 1, 0}, {966, 1, 1, 0}, {556, 1, 0, 0}, {556, 1, 0, 0}, {556, 1, 0, 0}},
	"pipe-read":    {{3126, 2, 1, 0}, {3126, 2, 1, 0}, {556, 1, 0, 0}, {556, 1, 0, 0}, {556, 1, 0, 0}},
	"seek-espipe":  {{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}},
	"close-pipe-w": {{480, 3, 0, 3}, {0, 0, 0, 0}, {320, 1, 0, 0}, {320, 1, 0, 0}, {320, 1, 0, 0}},
	"pipe-eof":     {{2280, 1, 1, 0}, {2280, 1, 1, 0}, {370, 1, 0, 0}, {370, 1, 0, 0}, {370, 1, 0, 0}},
	"spawn-wait":   {{1633824, 12, 0, 3}, {1633344, 9, 0, 0}, {562240, 2, 0, 0}, {562240, 2, 0, 0}, {562240, 2, 0, 0}},
	"rmdir":        {{6968, 3, 2, 0}, {220, 0, 2, 0}, {6919159, 6, 2, 0}, {6919159, 6, 2, 0}, {1660, 2, 2, 0}},
}

// measureCharges runs chargeScript in one process on a fresh machine
// and returns each step's charge.
func measureCharges(t *testing.T, pers Personality) map[string]charge {
	t.Helper()
	m := MustNew(Config{Personality: pers, DiskBlocks: 1 << 15})
	defer m.Close()
	st := m.Stats()
	got := map[string]charge{}
	m.Spawn("charges", 0, func(p unix.Proc) {
		fds := map[string]unix.FD{}
		for _, s := range chargeScript {
			before := charge{p.Now(), st.Get(sim.CtrSyscalls), st.Get(sim.CtrLibCalls), st.Get(sim.CtrProtCalls)}
			if err := s.call(p, fds); err != nil {
				t.Errorf("%v: %s: %v", pers, s.name, err)
			}
			got[s.name] = charge{p.Now() - before.Cycles, st.Get(sim.CtrSyscalls) - before.Syscalls,
				st.Get(sim.CtrLibCalls) - before.LibCalls, st.Get(sim.CtrProtCalls) - before.ProtCalls}
		}
	})
	m.Run()
	return got
}

// TestPerCallCharges pins the virtual time and the syscall, libcall
// and protection-call counts of every unix.Proc call on every
// personality. The personalities share one UNIX process layer, so this
// table is the whole of what tells them apart above the file system.
func TestPerCallCharges(t *testing.T) {
	got := map[Personality]map[string]charge{}
	for _, pers := range Personalities() {
		got[pers] = measureCharges(t, pers)
	}
	for _, s := range chargeScript {
		w, ok := wantCharges[s.name]
		if !ok {
			row := ""
			for _, pers := range Personalities() {
				row += got[pers][s.name].String() + ", "
			}
			t.Errorf("%q: no pinned charges; measured {%s}", s.name, row)
			continue
		}
		for i, pers := range Personalities() {
			if g := got[pers][s.name]; g != w[i] {
				t.Errorf("%v %s: charge %v, want %v", pers, s.name, g, w[i])
			}
		}
	}
}
