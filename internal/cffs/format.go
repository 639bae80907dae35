// Package cffs implements C-FFS, the co-locating fast file system
// (Ganger & Kaashoek 1997; paper Section 4.5) as a library file system
// over XN. Its three structural properties drive the paper's
// unmodified-application speedups (Section 6.2):
//
//   - embedded inodes: inodes live inside directory blocks, so naming
//     a file and reaching its inode is one disk read, not two;
//   - co-location: a file's data is allocated contiguously, as close
//     to its directory block as possible, so directory-locality
//     becomes disk locality;
//   - asynchronous, ordered metadata writes: XN's tainted-block rules
//     replace FFS's synchronous metadata writes.
//
// All metadata interpretation happens through UDFs: XN never sees this
// package's layout except through the owns/acl/size programs installed
// at mkfs time. The format:
//
// Directory block (4096 B), template "cffs-dir":
//
//	off  0: magic  (4)
//	off  4: nSlots (4)   — informational; the format fixes 31
//	off  8: next   (8)   — continuation directory block, 0 = none
//	off 16: uid    (4)
//	off 20: gid    (4)
//	off 24: mode   (4)
//	off 28: pad    (4)
//	off 32: 31 slots of 128 B each
//
// Slot (128 B, relative offsets):
//
//	off   0: used(1) kind(1) nameLen(1) pad(1)
//	off   4: name[52]
//	off  56: uid(4) gid(4)
//	off  64: mode(4) size(4)
//	off  72: mtime(4) pad(4)
//	off  80: 3 extents of {start(8) count(4)} = 36
//	off 116: indirect(8)
//	off 124: pad(4)
//
// Indirect block, template "cffs-ind":
//
//	off 0: count(4) pad(4)
//	off 8: count entries of {start(8) count(4) pad(4)}
//
// Data block, template "cffs-data": opaque bytes (owns nothing; access
// control at the parent).
package cffs

import (
	"encoding/binary"
	"fmt"

	"xok/internal/udf"
)

// Format constants.
const (
	Magic = 0xCFF5

	DirHdrSize    = 32
	SlotSize      = 128
	SlotsPerBlock = 31

	SlotsOff = DirHdrSize

	MaxNameLen    = 52
	DirectExtents = 3
	IndEntrySize  = 16
	IndMaxEntries = 254
	IndEntriesOff = 8

	// Slot field offsets (relative to slot start).
	soUsed    = 0
	soKind    = 1
	soNameLen = 2
	soName    = 4
	soUID     = 56
	soGID     = 60
	soMode    = 64
	soSize    = 68
	soMTime   = 72
	soExt0    = 80
	soInd     = 116
	soGen     = 124

	extSize = 12

	// Header field offsets.
	hoMagic = 0
	hoSlots = 4
	hoNext  = 8
	hoUID   = 16
	hoGID   = 20
	hoMode  = 24

	// Entry kinds.
	KindFile = 1
	KindDir  = 2
	// KindLink is a symbolic link: structurally a one-block file whose
	// data is the target path, so allocation, ownership (the owns-udf's
	// file branch) and deallocation all reuse the file machinery.
	KindLink = 3
)

// Extent is a contiguous run of data blocks.
type Extent struct {
	Start uint64
	Count uint32
}

// Inode is the decoded form of a directory slot.
type Inode struct {
	Used  bool
	Kind  byte
	Name  string
	UID   uint32
	GID   uint32
	Mode  uint32
	Size  uint32
	MTime uint32
	Ext   [DirectExtents]Extent
	Ind   uint64
	// Gen is the slot's incarnation number, stamped at create time.
	// Descriptors carry it so I/O through a ref whose slot has been
	// recycled (unlink + create) fails with ErrStale instead of
	// reading or corrupting the new occupant.
	Gen uint32
}

// SlotOff returns the byte offset of slot i in a directory block.
func SlotOff(i int) int { return SlotsOff + i*SlotSize }

// DecodeSlot parses the slot at block offset off.
func DecodeSlot(blk []byte, i int) Inode {
	in := decodeSlotFields(blk, i)
	in.Name = string(slotName(blk, i))
	return in
}

// decodeSlotNamed parses slot i only if it is in use under name, and
// then without allocating: the returned Inode's Name is name itself.
func decodeSlotNamed(blk []byte, i int, name string) (Inode, bool) {
	if blk[SlotOff(i)+soUsed] == 0 || string(slotName(blk, i)) != name {
		return Inode{}, false
	}
	in := decodeSlotFields(blk, i)
	in.Name = name
	return in, true
}

// slotName returns the name bytes of slot i (aliasing blk).
func slotName(blk []byte, i int) []byte {
	s := blk[SlotOff(i):]
	n := int(s[soNameLen])
	if n > MaxNameLen {
		n = MaxNameLen
	}
	return s[soName : soName+n]
}

// decodeSlotFields parses every field of slot i except its name.
func decodeSlotFields(blk []byte, i int) Inode {
	s := blk[SlotOff(i):]
	var in Inode
	in.Used = s[soUsed] != 0
	in.Kind = s[soKind]
	in.UID = binary.LittleEndian.Uint32(s[soUID:])
	in.GID = binary.LittleEndian.Uint32(s[soGID:])
	in.Mode = binary.LittleEndian.Uint32(s[soMode:])
	in.Size = binary.LittleEndian.Uint32(s[soSize:])
	in.MTime = binary.LittleEndian.Uint32(s[soMTime:])
	for e := 0; e < DirectExtents; e++ {
		off := soExt0 + e*extSize
		in.Ext[e].Start = binary.LittleEndian.Uint64(s[off:])
		in.Ext[e].Count = binary.LittleEndian.Uint32(s[off+8:])
	}
	in.Ind = binary.LittleEndian.Uint64(s[soInd:])
	in.Gen = binary.LittleEndian.Uint32(s[soGen:])
	return in
}

// EncodeSlot serializes an inode into a fresh 128-byte slot image.
func EncodeSlot(in Inode) []byte {
	return encodeSlotInto(make([]byte, SlotSize), in, in.Name)
}

// encodeSlotInto serializes in under name (in.Name is not read) into
// s, SlotSize bytes overwritten entirely, and returns s: EncodeSlot's
// image in a buffer the caller owns, typically an array on its stack,
// with the name as a string or as bytes aliasing a slot.
func encodeSlotInto[N string | []byte](s []byte, in Inode, name N) []byte {
	s = s[:SlotSize]
	clear(s)
	if in.Used {
		s[soUsed] = 1
	}
	s[soKind] = in.Kind
	if len(name) > MaxNameLen {
		panic("cffs: name too long")
	}
	s[soNameLen] = byte(len(name))
	copy(s[soName:], name)
	binary.LittleEndian.PutUint32(s[soUID:], in.UID)
	binary.LittleEndian.PutUint32(s[soGID:], in.GID)
	binary.LittleEndian.PutUint32(s[soMode:], in.Mode)
	binary.LittleEndian.PutUint32(s[soSize:], in.Size)
	binary.LittleEndian.PutUint32(s[soMTime:], in.MTime)
	for e := 0; e < DirectExtents; e++ {
		off := soExt0 + e*extSize
		binary.LittleEndian.PutUint64(s[off:], in.Ext[e].Start)
		binary.LittleEndian.PutUint32(s[off+8:], in.Ext[e].Count)
	}
	binary.LittleEndian.PutUint64(s[soInd:], in.Ind)
	binary.LittleEndian.PutUint32(s[soGen:], in.Gen)
	return s
}

// EncodeDirHeader builds a directory block header.
func EncodeDirHeader(uid, gid, mode uint32) []byte {
	h := make([]byte, DirHdrSize)
	binary.LittleEndian.PutUint32(h[hoMagic:], Magic)
	binary.LittleEndian.PutUint32(h[hoSlots:], SlotsPerBlock)
	binary.LittleEndian.PutUint32(h[hoUID:], uid)
	binary.LittleEndian.PutUint32(h[hoGID:], gid)
	binary.LittleEndian.PutUint32(h[hoMode:], mode)
	return h
}

// DirNext reads the continuation pointer of a directory block.
func DirNext(blk []byte) uint64 { return binary.LittleEndian.Uint64(blk[hoNext:]) }

// The UDF programs. The directory type is self-referential (a
// directory owns subdirectory and continuation blocks of its own
// type), so the sources are generated with the concrete template IDs
// substituted in.

// OwnsUDFSource returns the directory owns-udf with the given type IDs.
func dirOwnsSource(dirT, dataT, indT int64) string {
	return fmt.Sprintf(`
	; cffs-dir owns-udf: continuation + per-slot extents
	li   r0, 0
	ldq  r1, r0, %[4]d     ; next
	li   r2, 0
	beq  r1, r2, slots
	li   r3, 1
	li   r4, %[1]d
	emit r1, r3, r4        ; (next, 1, dir)
slots:
	li   r5, %[5]d         ; slot base
	li   r6, 0             ; index
	li   r7, %[6]d         ; slot count
sloop:
	bge  r6, r7, done
	ldb  r8, r5, 0         ; used
	li   r2, 0
	beq  r8, r2, snext
	ldb  r9, r5, 1         ; kind
	li   r10, 2
	beq  r9, r10, isdir
	; file: up to 3 data extents + indirect
	ldq  r11, r5, 80
	ldw  r12, r5, 88
	li   r2, 0
	beq  r12, r2, e2
	li   r4, %[2]d
	emit r11, r12, r4
e2:
	ldq  r11, r5, 92
	ldw  r12, r5, 100
	li   r2, 0
	beq  r12, r2, e3
	li   r4, %[2]d
	emit r11, r12, r4
e3:
	ldq  r11, r5, 104
	ldw  r12, r5, 112
	li   r2, 0
	beq  r12, r2, eind
	li   r4, %[2]d
	emit r11, r12, r4
eind:
	ldq  r11, r5, 116
	li   r2, 0
	beq  r11, r2, snext
	li   r3, 1
	li   r4, %[3]d
	emit r11, r3, r4       ; (indirect, 1, ind)
	jmp  snext
isdir:
	ldq  r11, r5, 80       ; subdirectory first block
	ldw  r12, r5, 88
	li   r2, 0
	beq  r12, r2, snext
	li   r4, %[1]d
	emit r11, r12, r4
snext:
	addi r5, r5, %[7]d
	addi r6, r6, 1
	jmp  sloop
done:
	li   r0, 0
	ret  r0
`, dirT, dataT, indT, hoNext, SlotsOff, SlotsPerBlock, SlotSize)
}

// dirAclSource implements UNIX-ish permission checks over the header:
// superuser or owner always pass; others need the read (4) or write
// (2) "other" mode bit depending on the operation.
const dirAclSource = `
	envw r1, 2          ; caller uid
	li   r2, 0
	beq  r1, r2, ok     ; superuser
	li   r0, 0
	ldw  r3, r0, 16     ; dir uid
	beq  r1, r3, ok
	ldw  r4, r0, 24     ; mode
	envw r5, 1          ; op (1 = read)
	li   r6, 1
	beq  r5, r6, rdchk
	li   r6, 2          ; other-write bit
	and  r7, r4, r6
	bne  r7, r2, ok
	li   r0, 0
	ret  r0
rdchk:
	li   r6, 4          ; other-read bit
	and  r7, r4, r6
	bne  r7, r2, ok
	li   r0, 0
	ret  r0
ok:
	li   r0, 1
	ret  r0
`

const dirSizeSource = `
	li r0, 4096
	ret r0
`

func indOwnsSource(dataT int64) string {
	return fmt.Sprintf(`
	; cffs-ind owns-udf: extent table
	li   r0, 0
	ldw  r1, r0, 0      ; count
	li   r2, 0
	li   r3, %[2]d      ; entries base
iloop:
	bge  r2, r1, done
	ldq  r4, r3, 0
	ldw  r5, r3, 8
	li   r6, %[1]d
	emit r4, r5, r6
	addi r3, r3, %[3]d
	addi r2, r2, 1
	jmp  iloop
done:
	li   r0, 0
	ret  r0
`, dataT, IndEntriesOff, IndEntrySize)
}

const approveAllSource = `
	li r0, 1
	ret r0
`

const noOwnsSource = `
	li r0, 0
	ret r0
`

const blockSizeSource = `
	li r0, 4096
	ret r0
`

// mustAsm assembles a generated source, panicking on programmer error.
func mustAsm(name, src string) *udf.Program { return udf.MustAssemble(name, src) }
