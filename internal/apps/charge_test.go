package apps

import (
	"testing"

	"xok/internal/exos"
	"xok/internal/sim"
	"xok/internal/unix"
)

// countingProc counts a program's read and write calls and the bytes
// they move.
type countingProc struct {
	unix.Proc
	ios, read, written int64
}

func (c *countingProc) Read(fd unix.FD, buf []byte) (int, error) {
	n, err := c.Proc.Read(fd, buf)
	c.ios++
	c.read += int64(n)
	return n, err
}

func (c *countingProc) Write(fd unix.FD, buf []byte) (int, error) {
	n, err := c.Proc.Write(fd, buf)
	c.ios++
	c.written += int64(n)
	return n, err
}

// chargeTree is the small tree the charge table runs on: C sources on
// both sides of the 64-KB copy chunk, a header and a text file.
var chargeTree = TreeSpec{
	Dirs: []string{"src", "doc"},
	Files: []FileSpec{
		{Path: "src/a.c", Size: 9000},
		{Path: "src/b.c", Size: 70000},
		{Path: "src/h.h", Size: 3000},
		{Path: "doc/r.txt", Size: 12000},
		{Path: "top.c", Size: 500},
	},
}

// charge is what one program run costs the simulated machine.
type charge struct {
	vtime    sim.Time
	syscalls int64 // kernel crossings
	ios      int64 // read and write calls
	read     int64 // bytes read
	written  int64 // bytes written
}

// TestAppCharges pins, for every program, the virtual time, kernel
// system calls, read and write calls, and bytes read and written of one
// run on a fresh Xok/ExOS
// machine with its input staged beforehand. The host work a program
// does may change; what it costs the simulated machine may not.
func TestAppCharges(t *testing.T) {
	plain := ArchiveBytes(chargeTree)
	stageTree := func(p unix.Proc) error { return WriteTree(p, "/t", chargeTree) }
	for _, tc := range []struct {
		name  string
		stage func(p unix.Proc) error
		run   func(p unix.Proc) error
		want  charge
	}{
		{"cp", stageTree, func(p unix.Proc) error { return Cp(p, "/t/src/b.c", "/b.c") },
			charge{255426, 41, 5, 70000, 70000}},
		{"cp -r", stageTree, func(p unix.Proc) error { return CpR(p, "/t", "/t2") },
			charge{396861, 75, 17, 94500, 94500}},
		{"gzip", stageTree, func(p unix.Proc) error { return Gzip(p, "/t/src/b.c", "/b.gz") },
			charge{13477907, 18, 5, 70000, 20999}},
		{"gunzip",
			func(p unix.Proc) error { return WriteFile(p, "/t.gz", plain[:len(plain)*3/10]) },
			func(p unix.Proc) error { return Gunzip(p, "/t.gz", "/t.tar", plain) },
			charge{1507608, 53, 3, 28388, 94627}},
		{"pax -r",
			func(p unix.Proc) error { return WriteFile(p, "/t.tar", plain) },
			func(p unix.Proc) error { return PaxR(p, "/t.tar", "/x") },
			charge{386523, 73, 6, 94627, 94500}},
		{"pax -w", stageTree, func(p unix.Proc) error { return PaxW(p, "/t", "/t.tar") },
			charge{381869, 78, 17, 94500, 94627}},
		{"diff",
			func(p unix.Proc) error {
				if err := WriteTree(p, "/a", chargeTree); err != nil {
					return err
				}
				return WriteTree(p, "/b", chargeTree)
			},
			func(p unix.Proc) error {
				_, err := Diff(p, "/a", "/b")
				return err
			},
			charge{1645494, 0, 10, 189000, 0}},
		{"gcc", stageTree, func(p unix.Proc) error { return Gcc(p, "/t") },
			charge{99685648, 29, 6, 79500, 35775}},
		{"grep", stageTree, func(p unix.Proc) error {
			_, err := Grep(p, "/t", "needle")
			return err
		}, charge{1014375, 0, 5, 94500, 0}},
		{"wc", stageTree, func(p unix.Proc) error {
			_, err := Wc(p, "/t/src/b.c", "/t/doc/r.txt")
			return err
		}, charge{793466, 0, 2, 82000, 0}},
		{"cksum", stageTree, func(p unix.Proc) error {
			_, err := Cksum(p, 3, "/t/src/a.c", "/t/doc/r.txt")
			return err
		}, charge{485400, 0, 6, 63000, 0}},
		{"tsp", func(unix.Proc) error { return nil }, func(p unix.Proc) error {
			Tsp(p, 30, 5)
			return nil
		}, charge{90000, 0, 0, 0, 0}},
		{"sor", func(unix.Proc) error { return nil }, func(p unix.Proc) error {
			Sor(p, 20, 10)
			return nil
		}, charge{38880, 0, 0, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := exos.Boot(exos.Config{})
			var err error
			s.Spawn("stage", 0, func(p unix.Proc) {
				if err = tc.stage(p); err == nil {
					err = p.Sync()
				}
			})
			s.Run()
			if err != nil {
				t.Fatalf("stage: %v", err)
			}
			var got charge
			s.Spawn(tc.name, 0, func(p unix.Proc) {
				cp := &countingProc{Proc: p}
				sys0, start := s.Stats().Get(sim.CtrSyscalls), p.Now()
				err = tc.run(cp)
				got = charge{p.Now() - start, s.Stats().Get(sim.CtrSyscalls) - sys0, cp.ios, cp.read, cp.written}
			})
			s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("charged %+v, want %+v", got, tc.want)
			}
		})
	}
}
