package apps

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync"

	"xok/internal/sim"
	"xok/internal/unix"
)

// Per-byte CPU costs (cycles/byte), calibrated to late-90s software on
// a 200-MHz Pentium Pro.
const (
	// CPUGzip: gzip -6 compresses at ~1 MB/s.
	CPUGzip = 190
	// CPUGunzip: decompression at ~4.5 MB/s.
	CPUGunzip = 45
	// CPUGcc: cc1 chews ~160 KB/s of source (lcc's 3.5 MB ≈ 22 s of
	// compute, matching Figure 2's near-identical gcc bars).
	CPUGcc = 1250
	// CPUDiff: byte comparison of two streams.
	CPUDiff = 14
	// CPUGrep: Boyer-Moore scan.
	CPUGrep = 9
	// CPUWc: word counting.
	CPUWc = 8
	// CPUCksum: CRC over the file.
	CPUCksum = 6
	// gzipRatio is output/input for compression (and its inverse for
	// decompression bookkeeping).
	gzipRatioNum, gzipRatioDen = 3, 10
	// objRatio is object-file bytes per source byte.
	objRatioNum, objRatioDen = 9, 20
)

const ioChunk = 65536 // cp and friends use 64-KB buffers

// scratch is one program run's reusable I/O memory. A run takes one
// from scratchPool and puts it back when it ends, so the buffers
// outlive a file and a run: cp -r, and MAB's copy phase calling Cp once
// per file, copy through one chunk, and whole-file reads reuse buffers
// grown to the largest file read so far. Nothing a program returns or
// keeps aliases its scratch.
type scratch struct {
	chunk [ioChunk]byte
	file  [2][]byte // whole-file read buffers (diff reads two files at once)
	zeros []byte    // gcc's object contents: only ever read, so always zero
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// Cp copies one file ("copy small file" / "copy large file", Table 1).
func Cp(p unix.Proc, src, dst string) error {
	s := getScratch()
	defer scratchPool.Put(s)
	return cp(p, src, dst, s.chunk[:])
}

func cp(p unix.Proc, src, dst string, buf []byte) error {
	in, err := p.Open(src)
	if err != nil {
		return err
	}
	defer p.Close(in)
	out, err := p.Create(dst, 6)
	if err != nil {
		return err
	}
	defer p.Close(out)
	for {
		n, err := p.Read(in, buf)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		if _, err := p.Write(out, buf[:n]); err != nil {
			return err
		}
	}
}

// CpR recursively copies a tree ("copy large tree", Table 1).
func CpR(p unix.Proc, srcDir, dstDir string) error {
	s := getScratch()
	defer scratchPool.Put(s)
	var walk func(srcDir, dstDir string) error
	walk = func(srcDir, dstDir string) error {
		if err := p.Mkdir(dstDir, 7); err != nil {
			return err
		}
		ents, err := p.Readdir(srcDir)
		if err != nil {
			return err
		}
		for _, ent := range ents {
			src := srcDir + "/" + ent.Name
			dst := dstDir + "/" + ent.Name
			if ent.IsDir {
				if err := walk(src, dst); err != nil {
					return err
				}
			} else if err := cp(p, src, dst, s.chunk[:]); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(srcDir, dstDir)
}

// Gunzip decompresses src into dst. The simulation cannot run DEFLATE
// backwards from synthetic bytes, so the caller supplies the logical
// plaintext (generated from the same TreeSpec); the program still
// reads every compressed byte, charges decompression CPU, and writes
// every output byte through the file system.
func Gunzip(p unix.Proc, src, dst string, plaintext []byte) error {
	s := getScratch()
	defer scratchPool.Put(s)
	compressed, err := readInto(p, src, &s.file[0])
	if err != nil {
		return err
	}
	p.Compute(sim.Time(len(compressed) * CPUGunzip))
	out, err := p.Create(dst, 6)
	if err != nil {
		return err
	}
	defer p.Close(out)
	for off := 0; off < len(plaintext); off += ioChunk {
		end := off + ioChunk
		if end > len(plaintext) {
			end = len(plaintext)
		}
		if _, err := p.Write(out, plaintext[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// Gzip compresses src into dst at the standard ratio.
func Gzip(p unix.Proc, src, dst string) error {
	in, err := p.Open(src)
	if err != nil {
		return err
	}
	defer p.Close(in)
	out, err := p.Create(dst, 6)
	if err != nil {
		return err
	}
	defer p.Close(out)
	s := getScratch()
	defer scratchPool.Put(s)
	buf := s.chunk[:]
	for {
		n, err := p.Read(in, buf)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		p.Compute(sim.Time(n * CPUGzip))
		outN := n * gzipRatioNum / gzipRatioDen
		if _, err := p.Write(out, buf[:outN]); err != nil {
			return err
		}
	}
}

// PaxR unpacks an archive into destDir ("unpack file", Table 1),
// parsing the real archive stream.
func PaxR(p unix.Proc, archive, destDir string) error {
	s := getScratch()
	defer scratchPool.Put(s)
	data, err := readInto(p, archive, &s.file[0])
	if err != nil {
		return err
	}
	if err := p.Mkdir(destDir, 7); err != nil {
		return err
	}
	off := 0
	for off < len(data) {
		kind, name, size, next, err := ParseArchiveHeader(data, off)
		if err != nil {
			return err
		}
		off = next
		switch kind {
		case 'D':
			if err := p.Mkdir(destDir+"/"+name, 7); err != nil {
				return err
			}
		case 'F':
			if off+size > len(data) {
				return fmt.Errorf("apps: archive truncated in %s", name)
			}
			if err := WriteFile(p, destDir+"/"+name, data[off:off+size]); err != nil {
				return err
			}
			off += size
		default:
			return fmt.Errorf("apps: bad archive entry kind %c", kind)
		}
	}
	return nil
}

// PaxW packs a tree into an archive ("pack tree", Table 1).
func PaxW(p unix.Proc, dir, archive string) error {
	out, err := p.Create(archive, 6)
	if err != nil {
		return err
	}
	defer p.Close(out)
	s := getScratch()
	defer scratchPool.Put(s)
	var hdr []byte
	var walk func(rel string) error
	walk = func(rel string) error {
		full := dir
		if rel != "" {
			full = dir + "/" + rel
		}
		ents, err := p.Readdir(full)
		if err != nil {
			return err
		}
		for _, ent := range ents {
			childRel := ent.Name
			if rel != "" {
				childRel = rel + "/" + ent.Name
			}
			if ent.IsDir {
				hdr = appendHeader(hdr[:0], 'D', childRel, 0)
				if _, err := p.Write(out, hdr); err != nil {
					return err
				}
				if err := walk(childRel); err != nil {
					return err
				}
				continue
			}
			hdr = appendHeader(hdr[:0], 'F', childRel, int(ent.Size))
			if _, err := p.Write(out, hdr); err != nil {
				return err
			}
			data, err := readInto(p, dir+"/"+childRel, &s.file[0])
			if err != nil {
				return err
			}
			if _, err := p.Write(out, data); err != nil {
				return err
			}
		}
		return nil
	}
	return walk("")
}

// Diff compares two trees ("diff large tree", Table 1), reading both
// sides fully and charging the comparison. Returns true if they
// differ.
func Diff(p unix.Proc, a, b string) (bool, error) {
	s := getScratch()
	defer scratchPool.Put(s)
	var walk func(a, b string) (bool, error)
	walk = func(a, b string) (bool, error) {
		ents, err := p.Readdir(a)
		if err != nil {
			return false, err
		}
		differs := false
		for _, ent := range ents {
			pa, pb := a+"/"+ent.Name, b+"/"+ent.Name
			if ent.IsDir {
				d, err := walk(pa, pb)
				if err != nil {
					return false, err
				}
				differs = differs || d
				continue
			}
			da, err := readInto(p, pa, &s.file[0])
			if err != nil {
				return false, err
			}
			db, err := readInto(p, pb, &s.file[1])
			if err != nil {
				return false, err
			}
			p.Compute(sim.Time((len(da) + len(db)) * CPUDiff / 2))
			differs = differs || !bytes.Equal(da, db)
		}
		return differs, nil
	}
	return walk(a, b)
}

// Gcc "compiles" every .c file under dir: read source, burn compiler
// CPU, write the object file next to it ("compile", Table 1).
func Gcc(p unix.Proc, dir string) error {
	s := getScratch()
	defer scratchPool.Put(s)
	var walk func(dir string) error
	walk = func(dir string) error {
		ents, err := p.Readdir(dir)
		if err != nil {
			return err
		}
		for _, ent := range ents {
			path := dir + "/" + ent.Name
			if ent.IsDir {
				if err := walk(path); err != nil {
					return err
				}
				continue
			}
			if !isC(ent.Name) {
				continue
			}
			src, err := readInto(p, path, &s.file[0])
			if err != nil {
				return err
			}
			p.Compute(sim.Time(len(src) * CPUGcc))
			n := len(src) * objRatioNum / objRatioDen
			if len(s.zeros) < n {
				s.zeros = make([]byte, n)
			}
			if err := WriteFile(p, path[:len(path)-2]+".o", s.zeros[:n]); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(dir)
}

func isC(name string) bool {
	return len(name) > 2 && name[len(name)-2:] == ".c"
}

// RmGlob removes files under dir matching the suffix, recursively
// ("delete binary files": rm *.o).
func RmGlob(p unix.Proc, dir, suffix string) error {
	ents, err := p.Readdir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		path := dir + "/" + ent.Name
		if ent.IsDir {
			if err := RmGlob(p, path, suffix); err != nil {
				return err
			}
			continue
		}
		if len(ent.Name) >= len(suffix) && ent.Name[len(ent.Name)-len(suffix):] == suffix {
			if err := p.Unlink(path); err != nil {
				return err
			}
		}
	}
	return nil
}

// RmRF removes a whole tree ("delete the created source tree").
func RmRF(p unix.Proc, dir string) error {
	ents, err := p.Readdir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		path := dir + "/" + ent.Name
		if ent.IsDir {
			if err := RmRF(p, path); err != nil {
				return err
			}
		} else if err := p.Unlink(path); err != nil {
			return err
		}
	}
	return p.Rmdir(dir)
}

// Grep scans a file (or tree) for a pattern, charging scan CPU.
// Returns the number of matches (over the synthetic content this is
// typically zero; the cost is the point).
func Grep(p unix.Proc, path string, pattern string) (int, error) {
	s := getScratch()
	defer scratchPool.Put(s)
	var walk func(path string) (int, error)
	walk = func(path string) (int, error) {
		st, err := p.Stat(path)
		if err != nil {
			return 0, err
		}
		if st.IsDir {
			total := 0
			ents, err := p.Readdir(path)
			if err != nil {
				return 0, err
			}
			for _, ent := range ents {
				n, err := walk(path + "/" + ent.Name)
				if err != nil {
					return 0, err
				}
				total += n
			}
			return total, nil
		}
		data, err := readInto(p, path, &s.file[0])
		if err != nil {
			return 0, err
		}
		p.Compute(sim.Time(len(data) * CPUGrep))
		return bytes.Count(data, []byte(pattern)), nil
	}
	return walk(path)
}

// Wc counts words in the listed files.
func Wc(p unix.Proc, paths ...string) (int, error) {
	s := getScratch()
	defer scratchPool.Put(s)
	words := 0
	for _, path := range paths {
		data, err := readInto(p, path, &s.file[0])
		if err != nil {
			return 0, err
		}
		p.Compute(sim.Time(len(data) * CPUWc))
		inWord := false
		for _, c := range data {
			isSpace := c == ' ' || c == '\n' || c == '\t'
			if !isSpace && !inWord {
				words++
			}
			inWord = !isSpace
		}
	}
	return words, nil
}

// Cksum computes the CRC-32 (IEEE) of the files' concatenated contents
// `repeat` times over ("compute a checksum many times over a small set
// of files" — the CPU-heavy pool member in Figure 4) and returns it.
// Every pass reads the files afresh, so a pass whose sum differs from
// the first's means the file system returned different bytes for the
// same files: that is an error.
func Cksum(p unix.Proc, repeat int, paths ...string) (uint32, error) {
	s := getScratch()
	defer scratchPool.Put(s)
	var first uint32
	for r := 0; r < repeat; r++ {
		var sum uint32
		for _, path := range paths {
			data, err := readInto(p, path, &s.file[0])
			if err != nil {
				return 0, err
			}
			p.Compute(sim.Time(len(data) * CPUCksum))
			sum = crc32.Update(sum, crc32.IEEETable, data)
		}
		if r == 0 {
			first = sum
		} else if sum != first {
			return 0, fmt.Errorf("apps: cksum pass %d summed %08x, pass 0 %08x", r, sum, first)
		}
	}
	return first, nil
}

// Tsp solves a traveling-salesman instance by 2-opt: pure CPU (Figure
// 4 pool). Each round is one pass over the city pairs, charged at ~40
// cycles per comparison on the target machine. The tour is not
// computed on the host: no output reads it.
func Tsp(p unix.Proc, cities, rounds int) {
	for r := 0; r < rounds; r++ {
		p.Compute(sim.Time(cities * cities / 2 * 40))
	}
}

// Sor iteratively solves a Laplace equation by successive
// overrelaxation on an n x n grid: pure CPU (Figure 4 pool). Each
// iteration updates the interior, charged at ~12 cycles per stencil
// update (FP adds + multiply). The grid is not computed on the host: no
// output reads it.
func Sor(p unix.Proc, n, iters int) {
	for it := 0; it < iters; it++ {
		p.Compute(sim.Time((n - 2) * (n - 2) * 12))
	}
}
