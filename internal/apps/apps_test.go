package apps

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"

	"xok/internal/exos"
	"xok/internal/sim"
	"xok/internal/unix"
)

// run executes main in a process on a fresh Xok/ExOS machine.
func run(t *testing.T, main func(p unix.Proc) error) {
	t.Helper()
	s := exos.Boot(exos.Config{})
	var err error
	s.Spawn("app", 0, func(p unix.Proc) {
		err = main(p)
	})
	s.Run()
	if err != nil {
		t.Fatal(err)
	}
}

func TestLccTreeShape(t *testing.T) {
	spec := LccTree()
	total := spec.TotalBytes()
	if total < 2_500_000 || total > 5_000_000 {
		t.Fatalf("tree = %d bytes, want ~3.5 MB", total)
	}
	if len(spec.Files) < 150 || len(spec.Files) > 400 {
		t.Fatalf("tree = %d files", len(spec.Files))
	}
	arch := ArchiveBytes(spec)
	compressed := len(arch) * 3 / 10
	if compressed < 800_000 || compressed > 1_500_000 {
		t.Fatalf("compressed archive = %d bytes, want ~1.1 MB", compressed)
	}
	// Deterministic.
	if LccTree().TotalBytes() != total {
		t.Fatal("LccTree not deterministic")
	}
}

// ArchiveBytes lays out each header as "XARV kind name size\n", every
// directory first, then each file's header followed by its content.
func TestArchiveBytesLayout(t *testing.T) {
	spec := TreeSpec{
		Dirs:  []string{"a"},
		Files: []FileSpec{{Path: "a/x", Size: 7}, {Path: "y", Size: 12}},
	}
	x, y := make([]byte, 7), make([]byte, 12)
	fillContent(x, 0)
	fillContent(y, 1)
	want := "XARV D a 0\nXARV F a/x 7\n" + string(x) + "XARV F y 12\n" + string(y)
	if got := ArchiveBytes(spec); string(got) != want || cap(got) != len(want) {
		t.Fatalf("archive = %q (cap %d), want %q", got, cap(got), want)
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	spec := TreeSpec{
		Dirs: []string{"a", "b"},
		Files: []FileSpec{
			{Path: "a/x", Size: 5000},
			{Path: "b/y", Size: 12345},
			{Path: "top", Size: 1},
		},
	}
	arch := ArchiveBytes(spec)
	run(t, func(p unix.Proc) error {
		if err := WriteFile(p, "/t.tar", arch); err != nil {
			return err
		}
		if err := PaxR(p, "/t.tar", "/out"); err != nil {
			return err
		}
		for _, f := range spec.Files {
			st, err := p.Stat("/out/" + f.Path)
			if err != nil {
				return fmt.Errorf("stat %s: %w", f.Path, err)
			}
			if st.Size != int64(f.Size) {
				return fmt.Errorf("%s = %d bytes, want %d", f.Path, st.Size, f.Size)
			}
		}
		// Pack it back; unpack again; sizes must survive.
		if err := PaxW(p, "/out", "/t2.tar"); err != nil {
			return err
		}
		if err := PaxR(p, "/t2.tar", "/out2"); err != nil {
			return err
		}
		d, err := Diff(p, "/out", "/out2")
		if err != nil {
			return err
		}
		if d {
			return fmt.Errorf("pack/unpack round trip changed the tree")
		}
		return nil
	})
}

func TestCpPreservesBytes(t *testing.T) {
	run(t, func(p unix.Proc) error {
		data := make([]byte, 100_000)
		fillContent(data, 7)
		if err := WriteFile(p, "/src", data); err != nil {
			return err
		}
		if err := Cp(p, "/src", "/dst"); err != nil {
			return err
		}
		got, err := ReadFile(p, "/dst")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("copy corrupted data")
		}
		return nil
	})
}

func TestDiffDetectsDifference(t *testing.T) {
	run(t, func(p unix.Proc) error {
		if err := p.Mkdir("/a", 7); err != nil {
			return err
		}
		if err := p.Mkdir("/b", 7); err != nil {
			return err
		}
		if err := WriteFile(p, "/a/f", []byte("same content")); err != nil {
			return err
		}
		if err := WriteFile(p, "/b/f", []byte("same content")); err != nil {
			return err
		}
		d, err := Diff(p, "/a", "/b")
		if err != nil || d {
			return fmt.Errorf("identical dirs differ: %v, %v", d, err)
		}
		if err := WriteFile(p, "/b/f", []byte("other content")); err != nil {
			return err
		}
		d, err = Diff(p, "/a", "/b")
		if err != nil || !d {
			return fmt.Errorf("different dirs equal: %v, %v", d, err)
		}
		return nil
	})
}

func TestGccProducesObjects(t *testing.T) {
	run(t, func(p unix.Proc) error {
		if err := p.Mkdir("/src", 7); err != nil {
			return err
		}
		if err := WriteFile(p, "/src/a.c", make([]byte, 10000)); err != nil {
			return err
		}
		if err := WriteFile(p, "/src/b.txt", make([]byte, 5000)); err != nil {
			return err
		}
		if err := Gcc(p, "/src"); err != nil {
			return err
		}
		st, err := p.Stat("/src/a.o")
		if err != nil {
			return fmt.Errorf("object file missing: %w", err)
		}
		if st.Size != 10000*9/20 {
			return fmt.Errorf("object = %d bytes", st.Size)
		}
		if _, err := p.Stat("/src/b.o"); err == nil {
			return fmt.Errorf("gcc compiled a .txt file")
		}
		if err := RmGlob(p, "/src", ".o"); err != nil {
			return err
		}
		if _, err := p.Stat("/src/a.o"); err == nil {
			return fmt.Errorf("rm *.o left the object")
		}
		if _, err := p.Stat("/src/a.c"); err != nil {
			return fmt.Errorf("rm *.o removed a source: %w", err)
		}
		return nil
	})
}

func TestRmRFRemovesTree(t *testing.T) {
	run(t, func(p unix.Proc) error {
		spec := TreeSpec{
			Dirs:  []string{"x"},
			Files: []FileSpec{{Path: "x/a", Size: 100}, {Path: "b", Size: 200}},
		}
		if err := WriteTree(p, "/t", spec); err != nil {
			return err
		}
		if err := RmRF(p, "/t"); err != nil {
			return err
		}
		if _, err := p.Stat("/t"); err == nil {
			return fmt.Errorf("tree survived rm -rf")
		}
		return nil
	})
}

func TestGrepAndWc(t *testing.T) {
	run(t, func(p unix.Proc) error {
		content := []byte("one needle two needle three\nneedle")
		if err := WriteFile(p, "/f", content); err != nil {
			return err
		}
		n, err := Grep(p, "/f", "needle")
		if err != nil {
			return err
		}
		if n != 3 {
			return fmt.Errorf("grep = %d matches, want 3", n)
		}
		w, err := Wc(p, "/f")
		if err != nil {
			return err
		}
		if w != 6 {
			return fmt.Errorf("wc = %d words, want 6", w)
		}
		return nil
	})
}

func TestGzipShrinksGunzipRestoresSize(t *testing.T) {
	run(t, func(p unix.Proc) error {
		orig := make([]byte, 200_000)
		if err := WriteFile(p, "/in", orig); err != nil {
			return err
		}
		if err := Gzip(p, "/in", "/out.gz"); err != nil {
			return err
		}
		st, err := p.Stat("/out.gz")
		if err != nil {
			return err
		}
		if st.Size >= int64(len(orig)) || st.Size < int64(len(orig))/5 {
			return fmt.Errorf("compressed = %d bytes from %d", st.Size, len(orig))
		}
		if err := Gunzip(p, "/out.gz", "/restored", orig); err != nil {
			return err
		}
		st, err = p.Stat("/restored")
		if err != nil {
			return err
		}
		if st.Size != int64(len(orig)) {
			return fmt.Errorf("restored = %d bytes, want %d", st.Size, len(orig))
		}
		return nil
	})
}

// Tsp and Sor return nothing: they charge their computation and do
// none of it, and a lone process pays exactly the closed-form charge.
func TestTspAndSorAreCPUBound(t *testing.T) {
	s := exos.Boot(exos.Config{})
	var tspTime, sorTime sim.Time
	s.Spawn("tsp", 0, func(p unix.Proc) {
		start := p.Now()
		Tsp(p, 60, 20)
		tspTime = p.Now() - start
	})
	s.Run()
	s.Spawn("sor", 0, func(p unix.Proc) {
		start := p.Now()
		Sor(p, 50, 50)
		sorTime = p.Now() - start
	})
	s.Run()
	if want := sim.Time(20 * 60 * 60 / 2 * 40); tspTime != want {
		t.Errorf("tsp charged %d cycles, want %d", tspTime, want)
	}
	if want := sim.Time(50 * 48 * 48 * 12); sorTime != want {
		t.Errorf("sor charged %d cycles, want %d", sorTime, want)
	}
}

// Cksum returns the CRC-32 of the files' concatenated contents, the
// same for any repeat count.
func TestCksum(t *testing.T) {
	run(t, func(p unix.Proc) error {
		if err := WriteFile(p, "/f", []byte{1, 2, 3}); err != nil {
			return err
		}
		big := make([]byte, 100_000)
		fillContent(big, 3)
		if err := WriteFile(p, "/g", big); err != nil {
			return err
		}
		want := crc32.ChecksumIEEE(append([]byte{1, 2, 3}, big...))
		for _, repeat := range []int{1, 3} {
			got, err := Cksum(p, repeat, "/f", "/g")
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("cksum x%d = %08x, want %08x", repeat, got, want)
			}
		}
		return nil
	})
}
