package udf

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Interpretation errors. All of them are deterministic functions of the
// program and its inputs, so a hostile UDF cannot leak information
// through error timing.
var (
	ErrFuel        = errors.New("udf: fuel exhausted")
	ErrOOB         = errors.New("udf: memory access out of bounds")
	ErrDivZero     = errors.New("udf: division by zero")
	ErrFellOffEnd  = errors.New("udf: execution fell off program end")
	ErrEmitsBounds = errors.New("udf: too many extents emitted")
)

// Limits on one interpretation.
const (
	// DefaultFuel bounds interpreted instructions per run. Template
	// UDFs over one 4-KB metadata block touch each pointer a constant
	// number of times, so this is roomy.
	DefaultFuel = 100_000

	// MaxExtents bounds owns-udf output size.
	MaxExtents = 2048
)

// Env carries the nondeterministic inputs available to acl-uf and
// size-uf via ENVW (e.g. the time of day, credential digests). Index 0
// is conventionally the current time in seconds.
type Env []int64

// Run interprets p over the given inputs:
//
//	meta — the metadata bytes (LD* loads)
//	aux  — the proposed modification or other secondary input (LDA*)
//	env  — ENVW-visible words (nil for deterministic runs)
//
// fuel <= 0 selects DefaultFuel.
func Run(p *Program, meta, aux []byte, env Env, fuel int) (Result, error) {
	return RunInto(p, meta, aux, env, fuel, nil, nil)
}

// ReadWords is the number of uint64s in a read set over n bytes of
// metadata: one bit per 8-byte word.
func ReadWords(n int) int { return ((n+7)/8 + 63) / 64 }

// RunInto is Run for a caller that keeps what a run depends on. The
// extents are appended to ext[:0], so a buffer with room spares the
// allocation. When reads is non-nil, every load from meta sets the bit
// of each 8-byte word it touches: bit w%64 of reads[w/64] stands for
// bytes [8w, 8w+8). reads needs ReadWords(len(meta)) elements and is
// not cleared first. A run that gets no aux and no env depends only on
// len(meta) and the words it marks: over any meta of the same length
// that agrees on those words it takes the same steps to the same
// result and error.
func RunInto(p *Program, meta, aux []byte, env Env, fuel int, ext []Extent, reads []uint64) (Result, error) {
	if fuel <= 0 {
		fuel = DefaultFuel
	}
	res := Result{Extents: ext[:0]}
	var regs [NumRegs]int64
	instrs := p.Instrs
	pc := 0
	for {
		if uint(pc) >= uint(len(instrs)) {
			if pc == len(instrs) {
				return res, ErrFellOffEnd
			}
			return res, fmt.Errorf("udf: pc %d out of range", pc)
		}
		if res.Steps >= fuel {
			return res, ErrFuel
		}
		res.Steps++
		in := &instrs[pc]
		pc++
		switch in.Op {
		case OpLI:
			regs[in.Rd] = in.Imm
		case OpMOV:
			regs[in.Rd] = regs[in.Rs]
		case OpADD:
			regs[in.Rd] = regs[in.Rs] + regs[in.Rt]
		case OpSUB:
			regs[in.Rd] = regs[in.Rs] - regs[in.Rt]
		case OpMUL:
			regs[in.Rd] = regs[in.Rs] * regs[in.Rt]
		case OpDIV:
			if regs[in.Rt] == 0 {
				return res, ErrDivZero
			}
			regs[in.Rd] = regs[in.Rs] / regs[in.Rt]
		case OpMOD:
			if regs[in.Rt] == 0 {
				return res, ErrDivZero
			}
			regs[in.Rd] = regs[in.Rs] % regs[in.Rt]
		case OpAND:
			regs[in.Rd] = regs[in.Rs] & regs[in.Rt]
		case OpOR:
			regs[in.Rd] = regs[in.Rs] | regs[in.Rt]
		case OpXOR:
			regs[in.Rd] = regs[in.Rs] ^ regs[in.Rt]
		case OpSHL:
			regs[in.Rd] = regs[in.Rs] << (uint64(regs[in.Rt]) & 63)
		case OpSHR:
			regs[in.Rd] = int64(uint64(regs[in.Rs]) >> (uint64(regs[in.Rt]) & 63))
		case OpADDI:
			regs[in.Rd] = regs[in.Rs] + in.Imm
		case OpLDB:
			off := regs[in.Rs] + in.Imm
			if uint64(off) >= uint64(len(meta)) {
				return res, ErrOOB
			}
			if reads != nil {
				markReads(reads, off, 1)
			}
			regs[in.Rd] = int64(meta[off])
		case OpLDW:
			off := regs[in.Rs] + in.Imm
			if off < 0 || off > int64(len(meta)-4) {
				return res, ErrOOB
			}
			if reads != nil {
				markReads(reads, off, 4)
			}
			regs[in.Rd] = int64(binary.LittleEndian.Uint32(meta[off:]))
		case OpLDQ:
			off := regs[in.Rs] + in.Imm
			if off < 0 || off > int64(len(meta)-8) {
				return res, ErrOOB
			}
			if reads != nil {
				markReads(reads, off, 8)
			}
			regs[in.Rd] = int64(binary.LittleEndian.Uint64(meta[off:]))
		case OpLDAB:
			off := regs[in.Rs] + in.Imm
			if uint64(off) >= uint64(len(aux)) {
				return res, ErrOOB
			}
			regs[in.Rd] = int64(aux[off])
		case OpLDAW:
			off := regs[in.Rs] + in.Imm
			if off < 0 || off > int64(len(aux)-4) {
				return res, ErrOOB
			}
			regs[in.Rd] = int64(binary.LittleEndian.Uint32(aux[off:]))
		case OpLDAQ:
			off := regs[in.Rs] + in.Imm
			if off < 0 || off > int64(len(aux)-8) {
				return res, ErrOOB
			}
			regs[in.Rd] = int64(binary.LittleEndian.Uint64(aux[off:]))
		case OpMETA:
			regs[in.Rd] = int64(len(meta))
		case OpAUX:
			regs[in.Rd] = int64(len(aux))
		case OpENVW:
			if in.Imm < 0 || in.Imm >= int64(len(env)) {
				return res, ErrOOB
			}
			regs[in.Rd] = env[in.Imm]
		case OpEMIT:
			if len(res.Extents) >= MaxExtents {
				return res, ErrEmitsBounds
			}
			res.Extents = append(res.Extents, Extent{
				Start: regs[in.Rs],
				Count: regs[in.Rt],
				Type:  regs[in.Rd],
			})
		case OpBEQ:
			if regs[in.Rs] == regs[in.Rt] {
				pc = int(in.Imm)
			}
		case OpBNE:
			if regs[in.Rs] != regs[in.Rt] {
				pc = int(in.Imm)
			}
		case OpBLT:
			if regs[in.Rs] < regs[in.Rt] {
				pc = int(in.Imm)
			}
		case OpBGE:
			if regs[in.Rs] >= regs[in.Rt] {
				pc = int(in.Imm)
			}
		case OpJMP:
			pc = int(in.Imm)
		case OpRET:
			res.Ret = regs[in.Rs]
			return res, nil
		default:
			return res, fmt.Errorf("udf: invalid opcode %d at pc %d", in.Op, pc-1)
		}
	}
}

// markReads sets the read-set bits of the words a size-byte load at
// off touches: one word, or two when a wider load straddles a boundary.
func markReads(reads []uint64, off int64, size int64) {
	first, last := uint64(off)>>3, uint64(off+size-1)>>3
	reads[first>>6] |= 1 << (first & 63)
	reads[last>>6] |= 1 << (last & 63)
}
