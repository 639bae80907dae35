package exos

import (
	"errors"
	"testing"

	"xok/internal/cffs"
	"xok/internal/unix"
)

func TestFDErrors(t *testing.T) {
	s := boot(t, Config{})
	s.Spawn("t", 0, func(p unix.Proc) {
		buf := make([]byte, 8)
		if _, err := p.Read(unix.FD(42), buf); !errors.Is(err, unix.ErrBadFD) {
			t.Errorf("read bad fd: %v", err)
		}
		if _, err := p.Write(unix.FD(42), buf); !errors.Is(err, unix.ErrBadFD) {
			t.Errorf("write bad fd: %v", err)
		}
		if err := p.Close(unix.FD(42)); !errors.Is(err, unix.ErrBadFD) {
			t.Errorf("close bad fd: %v", err)
		}
		fd, err := p.Create("/f", 6)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Close(fd); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(fd); !errors.Is(err, unix.ErrBadFD) {
			t.Errorf("double close: %v", err)
		}
	})
	s.Run()
}

func TestPipeEndMisuse(t *testing.T) {
	s := boot(t, Config{})
	s.Spawn("t", 0, func(p unix.Proc) {
		r, w, err := p.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		if _, err := p.Write(r, buf); err == nil {
			t.Error("write to read end succeeded")
		}
		if _, err := p.Read(w, buf); err == nil {
			t.Error("read from write end succeeded")
		}
		if _, err := p.Seek(r, 0, unix.SeekSet); err == nil {
			t.Error("seek on pipe succeeded")
		}
	})
	s.Run()
}

func TestWriteToClosedPipe(t *testing.T) {
	s := boot(t, Config{})
	s.Spawn("t", 0, func(p unix.Proc) {
		r, w, err := p.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Close(r); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Write(w, []byte("x")); !errors.Is(err, unix.ErrPipe) {
			t.Errorf("write to reader-less pipe: %v", err)
		}
	})
	s.Run()
}

func TestSeekSemantics(t *testing.T) {
	s := boot(t, Config{})
	s.Spawn("t", 0, func(p unix.Proc) {
		fd, err := p.Create("/f", 6)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Write(fd, make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
		if off, _ := p.Seek(fd, -100, unix.SeekEnd); off != 900 {
			t.Errorf("SeekEnd = %d, want 900", off)
		}
		if off, _ := p.Seek(fd, 50, unix.SeekCur); off != 950 {
			t.Errorf("SeekCur = %d, want 950", off)
		}
		if _, err := p.Seek(fd, 0, 99); err == nil {
			t.Error("bad whence accepted")
		}
		// Read at EOF returns 0.
		p.Seek(fd, 0, unix.SeekEnd)
		n, err := p.Read(fd, make([]byte, 10))
		if err != nil || n != 0 {
			t.Errorf("read at EOF = %d, %v", n, err)
		}
	})
	s.Run()
}

func TestOpenDirectoryRejected(t *testing.T) {
	s := boot(t, Config{})
	s.Spawn("t", 0, func(p unix.Proc) {
		if err := p.Mkdir("/d", 7); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Open("/d"); !errors.Is(err, cffs.ErrIsDir) {
			t.Errorf("open(dir) = %v, want ErrIsDir", err)
		}
	})
	s.Run()
}

func TestCreateTruncatesExisting(t *testing.T) {
	s := boot(t, Config{})
	s.Spawn("t", 0, func(p unix.Proc) {
		fd, _ := p.Create("/f", 6)
		p.Write(fd, make([]byte, 5000))
		p.Close(fd)
		fd2, err := p.Create("/f", 6)
		if err != nil {
			t.Fatal(err)
		}
		p.Close(fd2)
		st, err := p.Stat("/f")
		if err != nil || st.Size != 0 {
			t.Errorf("recreated file size = %d, %v", st.Size, err)
		}
	})
	s.Run()
}
