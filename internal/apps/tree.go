// Package apps implements the UNIX application programs the paper's
// macrobenchmarks run — cp, gunzip/gzip, pax, diff, gcc, rm, grep, wc,
// cksum, tsp, sor — written once against unix.Proc so the identical
// "binaries" run on ExOS and on the BSD models (Section 6
// methodology). File I/O is real (bytes move through the simulated
// file systems); computation is charged through the calibrated cost
// model.
package apps

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"xok/internal/sim"
	"xok/internal/unix"
)

// FileSpec is one file in a synthetic source tree.
type FileSpec struct {
	Path string // relative, e.g. "src/alloc.c"
	Size int
}

// TreeSpec describes a source tree: the lcc-like workload of Table 1.
type TreeSpec struct {
	Dirs  []string
	Files []FileSpec
}

// LccTree synthesizes a tree with the lcc distribution's footprint:
// ~250 source files in ~20 directories totalling ~3.5 MB, whose pax
// archive is ~3.6 MB and whose gzipped archive is ~1.1 MB (Table 1:
// "the size of the compressed archive file for lcc is 1.1 MByte").
func LccTree() TreeSpec {
	rng := sim.NewRNG(0x1cc)
	var t TreeSpec
	dirs := []string{"src", "lib", "etc", "doc", "cpp", "lburg", "alpha", "mips", "sparc", "x86"}
	t.Dirs = append(t.Dirs, dirs...)
	for d := 0; d < len(dirs); d++ {
		nfiles := 18 + rng.Intn(14)
		for i := 0; i < nfiles; i++ {
			var name string
			var size int
			switch rng.Intn(10) {
			case 0, 1: // header
				name = fmt.Sprintf("h%02d.h", i)
				size = 1500 + rng.Intn(4000)
			case 2: // doc
				name = fmt.Sprintf("d%02d.txt", i)
				size = 3000 + rng.Intn(12000)
			default: // C source
				name = fmt.Sprintf("c%02d.c", i)
				size = 6000 + rng.Intn(24000)
			}
			t.Files = append(t.Files, FileSpec{
				Path: dirs[d] + "/" + name,
				Size: size,
			})
		}
	}
	return t
}

// fillContent writes deterministic bytes (so copies and diffs move
// real data).
func fillContent(buf []byte, seed uint32) {
	var x = seed | 1
	for i := 0; i+4 <= len(buf); i += 4 {
		x = x*1664525 + 1013904223
		binary.LittleEndian.PutUint32(buf[i:], x)
	}
}

// Archive header: "XARV <name> <size>\n" followed by the data — a
// pax/tar-like stream the simulated pax actually parses back.
const archiveMagic = "XARV"

// appendHeader appends one "XARV kind name size\n" archive header.
func appendHeader(b []byte, kind byte, name string, size int) []byte {
	b = append(b, archiveMagic...)
	b = append(b, ' ', kind, ' ')
	b = append(b, name...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(size), 10)
	return append(b, '\n')
}

// ArchiveBytes builds the archive stream for a tree, in one allocation
// sized beforehand.
func ArchiveBytes(t TreeSpec) []byte {
	var hdr []byte
	n := 0
	for _, d := range t.Dirs {
		hdr = appendHeader(hdr[:0], 'D', d, 0)
		n += len(hdr)
	}
	for _, f := range t.Files {
		hdr = appendHeader(hdr[:0], 'F', f.Path, f.Size)
		n += len(hdr) + f.Size
	}
	b := make([]byte, 0, n)
	for _, d := range t.Dirs {
		b = appendHeader(b, 'D', d, 0)
	}
	for i, f := range t.Files {
		b = appendHeader(b, 'F', f.Path, f.Size)
		b = b[:len(b)+f.Size]
		fillContent(b[len(b)-f.Size:], uint32(i))
	}
	return b
}

// ParseArchiveHeader reads one "XARV kind name size\n" header starting
// at data[off]. Returns kind, name, size and the offset past the
// newline.
func ParseArchiveHeader(data []byte, off int) (kind byte, name string, size int, next int, err error) {
	end := off
	for end < len(data) && data[end] != '\n' {
		end++
	}
	if end == len(data) {
		return 0, "", 0, 0, fmt.Errorf("apps: truncated archive header")
	}
	fields := strings.Fields(string(data[off:end]))
	if len(fields) != 4 || fields[0] != archiveMagic {
		return 0, "", 0, 0, fmt.Errorf("apps: bad archive header %q", string(data[off:end]))
	}
	sz, err := strconv.Atoi(fields[3])
	if err != nil {
		return 0, "", 0, 0, fmt.Errorf("apps: bad archive size: %v", err)
	}
	return fields[1][0], fields[2], sz, end + 1, nil
}

// WriteTree materializes a spec directly (test setup helper): mkdir
// the directories and write every file.
func WriteTree(p unix.Proc, root string, t TreeSpec) error {
	if err := p.Mkdir(root, 7); err != nil {
		return err
	}
	for _, d := range t.Dirs {
		if err := p.Mkdir(root+"/"+d, 7); err != nil {
			return err
		}
	}
	for i, f := range t.Files {
		fd, err := p.Create(root+"/"+f.Path, 6)
		if err != nil {
			return err
		}
		data := make([]byte, f.Size)
		fillContent(data, uint32(i))
		if _, err := p.Write(fd, data); err != nil {
			return err
		}
		if err := p.Close(fd); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile creates path holding n deterministic bytes.
func WriteFile(p unix.Proc, path string, data []byte) error {
	fd, err := p.Create(path, 6)
	if err != nil {
		return err
	}
	if _, err := p.Write(fd, data); err != nil {
		return err
	}
	return p.Close(fd)
}

// ReadFile slurps a whole file.
func ReadFile(p unix.Proc, path string) ([]byte, error) {
	var buf []byte
	return readInto(p, path, &buf)
}

// readInto slurps a whole file into *into, growing it if the file is
// larger, and returns the bytes read, which alias *into. Whatever the
// buffer's capacity, the reads ask for exactly the file's size, as
// ReadFile's do.
func readInto(p unix.Proc, path string, into *[]byte) ([]byte, error) {
	st, err := p.Stat(path)
	if err != nil {
		return nil, err
	}
	fd, err := p.Open(path)
	if err != nil {
		return nil, err
	}
	defer p.Close(fd)
	if int64(cap(*into)) < st.Size {
		*into = make([]byte, st.Size)
	}
	buf := (*into)[:st.Size]
	got := 0
	for got < len(buf) {
		n, err := p.Read(fd, buf[got:])
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		got += n
	}
	return buf[:got], nil
}
