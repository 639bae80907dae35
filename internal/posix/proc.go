package posix

import (
	"xok/internal/cffs"
	"xok/internal/kernel"
	"xok/internal/sim"
	"xok/internal/unix"
)

// Proc is one UNIX process: unix.Proc over the system's file systems,
// charged as its Personality says.
type Proc struct {
	s   *System
	e   *kernel.Env
	pid int
	uid uint16

	fds    map[unix.FD]*file
	nextFD unix.FD
}

type fileKind uint8

const (
	kindFile fileKind = iota
	kindPipeR
	kindPipeW
)

// file is an open-file object. Fork shares it between parent and
// child, offset included.
type file struct {
	kind fileKind
	fs   *cffs.FS
	ref  cffs.Ref
	off  int64
	pipe Pipe
}

var _ unix.Proc = (*Proc)(nil)

// Env exposes the environment (used by specialized applications that
// bypass the UNIX layer — the whole point of an exokernel).
func (p *Proc) Env() *kernel.Env { return p.e }

// Getpid is the trivial call of Section 7.1: a procedure call into
// ExOS (100 cycles), a trap on OpenBSD (270).
func (p *Proc) Getpid() int {
	p.s.pers.Enter(p.e, CallGetpid)
	return p.pid
}

// UID returns the process owner.
func (p *Proc) UID() uint16 { return p.uid }

// Compute charges application CPU time.
func (p *Proc) Compute(c sim.Time) { p.e.Use(c) }

// Now returns virtual time.
func (p *Proc) Now() sim.Time { return p.s.K.Now() }

func (p *Proc) allocFD(f *file) unix.FD {
	p.s.pers.SharedWrite(p.e)
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = f
	return fd
}

func (p *Proc) lookupFD(fd unix.FD) (*file, error) {
	f, ok := p.fds[fd]
	if !ok {
		return nil, unix.ErrBadFD
	}
	return f, nil
}

// Open opens an existing file.
func (p *Proc) Open(path string) (unix.FD, error) {
	p.s.pers.Enter(p.e, CallOpen)
	fs, rel := p.s.resolve(path)
	ref, in, err := fs.Lookup(p.e, rel)
	if err != nil {
		return -1, err
	}
	if in.Kind == cffs.KindDir {
		return -1, cffs.ErrIsDir
	}
	return p.allocFD(&file{kind: kindFile, fs: fs, ref: ref}), nil
}

// Create makes (or truncates-by-recreating) a file and opens it.
func (p *Proc) Create(path string, mode uint32) (unix.FD, error) {
	p.s.pers.Enter(p.e, CallCreate)
	fs, rel := p.s.resolve(path)
	if _, _, err := fs.Lookup(p.e, rel); err == nil {
		if err := fs.Unlink(p.e, rel); err != nil {
			return -1, err
		}
	}
	ref, err := fs.Create(p.e, rel, uint32(p.uid), uint32(p.uid), mode)
	if err != nil {
		return -1, err
	}
	return p.allocFD(&file{kind: kindFile, fs: fs, ref: ref}), nil
}

// Read reads from the descriptor's current offset.
func (p *Proc) Read(fd unix.FD, buf []byte) (int, error) {
	f, err := p.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	p.s.pers.Enter(p.e, CallRead)
	switch f.kind {
	case kindPipeR:
		return f.pipe.Read(p.e, buf)
	case kindPipeW:
		return 0, unix.ErrBadFD // read from write end
	}
	n, err := f.fs.ReadAt(p.e, f.ref, f.off, buf)
	f.off += int64(n)
	return n, err
}

// Write writes at the descriptor's current offset.
func (p *Proc) Write(fd unix.FD, buf []byte) (int, error) {
	f, err := p.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	p.s.pers.Enter(p.e, CallWrite)
	switch f.kind {
	case kindPipeW:
		return f.pipe.Write(p.e, buf)
	case kindPipeR:
		return 0, unix.ErrBadFD // write to read end
	}
	n, err := f.fs.WriteAt(p.e, f.ref, f.off, buf)
	f.off += int64(n)
	return n, err
}

// Seek repositions the descriptor.
func (p *Proc) Seek(fd unix.FD, off int64, whence int) (int64, error) {
	f, err := p.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	if f.kind != kindFile {
		return 0, unix.ErrSeekPipe
	}
	p.s.pers.Enter(p.e, CallSeek)
	pos := f.off
	switch whence {
	case unix.SeekSet:
		pos = off
	case unix.SeekCur:
		pos += off
	case unix.SeekEnd:
		// Size comes from the descriptor's inode, not its path: the
		// descriptor must follow the file across rename and go stale
		// (not resolve a new occupant) after unlink.
		in, err := f.fs.RefInode(p.e, f.ref)
		if err != nil {
			return 0, err
		}
		pos = int64(in.Size) + off
	default:
		return 0, unix.ErrInval
	}
	if pos < 0 {
		// A negative offset must not become the descriptor position:
		// a later read would slice a page at a negative index.
		return 0, unix.ErrInval
	}
	f.off = pos
	return f.off, nil
}

// Close releases the descriptor.
func (p *Proc) Close(fd unix.FD) error {
	f, err := p.lookupFD(fd)
	if err != nil {
		return err
	}
	p.s.pers.Enter(p.e, CallClose)
	p.s.pers.SharedWrite(p.e)
	delete(p.fds, fd)
	if f.pipe != nil {
		f.pipe.ends().closeEnd(p.e, f.kind == kindPipeW)
	}
	return nil
}

// Stat returns file metadata.
func (p *Proc) Stat(path string) (unix.Stat, error) {
	p.s.pers.Enter(p.e, CallStat)
	fs, rel := p.s.resolve(path)
	in, err := fs.Stat(p.e, rel)
	if err != nil {
		return unix.Stat{}, err
	}
	return unix.Stat{
		Size: int64(in.Size), Mode: in.Mode, UID: in.UID, GID: in.GID,
		MTime: in.MTime, IsDir: in.Kind == cffs.KindDir,
	}, nil
}

// Mkdir creates a directory.
func (p *Proc) Mkdir(path string, mode uint32) error {
	p.s.pers.Enter(p.e, CallMkdir)
	fs, rel := p.s.resolve(path)
	return fs.Mkdir(p.e, rel, uint32(p.uid), uint32(p.uid), mode)
}

// Readdir lists a directory.
func (p *Proc) Readdir(path string) ([]unix.DirEnt, error) {
	p.s.pers.Enter(p.e, CallReaddir)
	fs, rel := p.s.resolve(path)
	ents, err := fs.Readdir(p.e, rel)
	if err != nil {
		return nil, err
	}
	out := make([]unix.DirEnt, len(ents))
	for i, in := range ents {
		out[i] = unix.DirEnt{Name: in.Name, IsDir: in.Kind == cffs.KindDir,
			IsLink: in.Kind == cffs.KindLink, Size: int64(in.Size)}
	}
	return out, nil
}

// Unlink removes a file.
func (p *Proc) Unlink(path string) error {
	p.s.pers.Enter(p.e, CallUnlink)
	fs, rel := p.s.resolve(path)
	return fs.Unlink(p.e, rel)
}

// Rmdir removes an empty directory.
func (p *Proc) Rmdir(path string) error {
	p.s.pers.Enter(p.e, CallRmdir)
	fs, rel := p.s.resolve(path)
	return fs.Rmdir(p.e, rel)
}

// Rename renames a file. Cross-mount renames are rejected (EXDEV).
func (p *Proc) Rename(oldPath, newPath string) error {
	p.s.pers.Enter(p.e, CallRename)
	fsA, ra := p.s.resolve(oldPath)
	fsB, rb := p.s.resolve(newPath)
	if fsA != fsB {
		return unix.ErrXDev
	}
	return fsA.Rename(p.e, ra, rb)
}

// Chmod changes permission bits.
func (p *Proc) Chmod(path string, mode uint32) error {
	p.s.pers.Enter(p.e, CallChmod)
	fs, rel := p.s.resolve(path)
	return fs.Chmod(p.e, rel, mode)
}

// Symlink creates a symbolic link.
func (p *Proc) Symlink(target, path string) error {
	p.s.pers.Enter(p.e, CallSymlink)
	fs, rel := p.s.resolve(path)
	return fs.Symlink(p.e, target, rel, uint32(p.uid), uint32(p.uid))
}

// Sync flushes all mounted file systems (they share one XN, so one
// pass covers everything).
func (p *Proc) Sync() error {
	p.s.pers.Enter(p.e, CallSync)
	return p.s.FS.Sync(p.e)
}

// Pipe creates a pipe pair of the personality's kind.
func (p *Proc) Pipe() (unix.FD, unix.FD, error) {
	p.s.pers.Enter(p.e, CallPipe)
	pi := p.s.pers.Pipe(p.e)
	ends := pi.ends()
	ends.readers, ends.writers = 1, 1
	r := p.allocFD(&file{kind: kindPipeR, pipe: pi})
	w := p.allocFD(&file{kind: kindPipeW, pipe: pi})
	return r, w, nil
}

// Spawn forks and execs a child process running f. The child inherits
// the parent's descriptors, sharing the open-file objects and offsets.
func (p *Proc) Spawn(name string, f func(unix.Proc)) (unix.Handle, error) {
	p.s.K.Stats.Inc(sim.CtrForks)
	p.s.pers.SharedWrite(p.e) // process map update
	p.s.pers.Fork(p.e)
	pid := p.s.nextPID()
	inherited := make(map[unix.FD]*file, len(p.fds))
	for fd, fl := range p.fds {
		inherited[fd] = fl
		if fl.pipe != nil {
			fl.pipe.ends().addRef(fl.kind == kindPipeW)
		}
	}
	env := p.s.start(name, p.uid, pid, inherited, p.nextFD, f)
	return &Handle{parent: p, env: env}, nil
}

// closeAll releases every descriptor at process exit (UNIX closes a
// dying process's files; pipes must see their ends drop).
func (p *Proc) closeAll() {
	for fd := unix.FD(0); fd < p.nextFD; fd++ {
		f, ok := p.fds[fd]
		if !ok {
			continue
		}
		delete(p.fds, fd)
		if f.pipe != nil {
			f.pipe.ends().closeEnd(p.e, f.kind == kindPipeW)
		}
	}
}
