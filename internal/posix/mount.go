package posix

import (
	"sort"
	"strings"

	"xok/internal/cffs"
)

// The mount table (Section 5.2.1): "UNIX allows different file systems
// to be attached to its hierarchical name space. ExOS duplicates this
// functionality by maintaining a currently unprotected shared mount
// table that maps directories from one file system to another." Every
// personality resolves paths through it; the BSD models simply mount
// nothing.

type mount struct {
	prefix string
	fs     *cffs.FS
}

// Mount attaches fs at the given directory prefix (e.g. "/tmp"). The
// prefix directory need not exist on the parent file system — the
// mount shadows it, as in UNIX. Longest-prefix wins on lookup.
func (s *System) Mount(prefix string, fs *cffs.FS) {
	prefix = strings.TrimRight(prefix, "/")
	s.mounts = append(s.mounts, mount{prefix: prefix, fs: fs})
	sort.SliceStable(s.mounts, func(i, j int) bool {
		return len(s.mounts[i].prefix) > len(s.mounts[j].prefix)
	})
}

// Unmount detaches the file system at prefix.
func (s *System) Unmount(prefix string) {
	prefix = strings.TrimRight(prefix, "/")
	for i, m := range s.mounts {
		if m.prefix == prefix {
			s.mounts = append(s.mounts[:i], s.mounts[i+1:]...)
			return
		}
	}
}

// resolve maps a path to the owning file system and the path within
// it. The root file system backs everything not covered by a mount.
func (s *System) resolve(path string) (*cffs.FS, string) {
	for _, m := range s.mounts {
		if path == m.prefix {
			return m.fs, "/"
		}
		if strings.HasPrefix(path, m.prefix+"/") {
			return m.fs, path[len(m.prefix):]
		}
	}
	return s.FS, path
}
