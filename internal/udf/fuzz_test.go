package udf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// The kernel interprets UDFs supplied by arbitrary untrusted libFSes:
// no program that passes Verify may crash the interpreter, run outside
// its fuel, or touch memory outside its inputs. These fuzz tests throw
// random (but structurally valid) programs and random raw instruction
// streams at the verifier+interpreter pair.

// randomProgram builds an arbitrary instruction sequence from raw
// fuzz bytes. Opcodes/registers/targets are taken modulo their valid
// ranges so Verify accepts most of them; the interpreter must then
// survive whatever they do.
func randomProgram(raw []byte) *Program {
	p := &Program{Name: "fuzz"}
	for i := 0; i+5 <= len(raw) && len(p.Instrs) < 64; i += 5 {
		in := Instr{
			Op: Op(raw[i] % uint8(opCount)),
			Rd: raw[i+1] % NumRegs,
			Rs: raw[i+2] % NumRegs,
			Rt: raw[i+3] % NumRegs,
		}
		// Zero the fields each op does not encode, so the text form is
		// lossless (Disassemble only prints meaningful operands).
		switch in.Op {
		case OpBEQ, OpBNE, OpBLT, OpBGE:
			in.Rd = 0
			in.Imm = int64(raw[i+4]) % int64(len(raw)/5+1)
		case OpJMP:
			in.Rd, in.Rs, in.Rt = 0, 0, 0
			in.Imm = int64(raw[i+4]) % int64(len(raw)/5+1)
		case OpLI, OpENVW:
			in.Rs, in.Rt = 0, 0
			in.Imm = int64(int8(raw[i+4]))
		case OpADDI, OpLDB, OpLDW, OpLDQ, OpLDAB, OpLDAW, OpLDAQ:
			in.Rt = 0
			in.Imm = int64(int8(raw[i+4]))
		case OpMOV:
			in.Rt = 0
		case OpMETA, OpAUX:
			in.Rs, in.Rt = 0, 0
		case OpRET:
			in.Rd, in.Rt = 0, 0
		}
		p.Instrs = append(p.Instrs, in)
	}
	p.Instrs = append(p.Instrs, Instr{Op: OpRET})
	return p
}

func TestFuzzInterpreterNeverPanics(t *testing.T) {
	f := func(raw []byte, meta []byte, aux []byte) bool {
		if len(meta) > 256 {
			meta = meta[:256]
		}
		if len(aux) > 64 {
			aux = aux[:64]
		}
		p := randomProgram(raw)
		if err := Verify(p, false); err != nil {
			return true // rejected programs never run
		}
		res, err := Run(p, meta, aux, Env{1, 2, 3, 4}, 2000)
		if err != nil {
			return true // controlled abort is fine
		}
		// Bounded execution and output.
		return res.Steps <= 2000 && len(res.Extents) <= MaxExtents
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzDeterministicProgramsAreDeterministic(t *testing.T) {
	// Any program Verify accepts as deterministic must produce
	// identical results on identical inputs — the property XN's
	// security depends on.
	f := func(raw []byte, meta []byte) bool {
		if len(meta) > 256 {
			meta = meta[:256]
		}
		p := randomProgram(raw)
		if err := Verify(p, true); err != nil {
			return true
		}
		r1, e1 := Run(p, meta, nil, nil, 2000)
		r2, e2 := Run(p, meta, nil, nil, 2000)
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		if e1 != nil {
			return e1.Error() == e2.Error()
		}
		if r1.Ret != r2.Ret || r1.Steps != r2.Steps || len(r1.Extents) != len(r2.Extents) {
			return false
		}
		for i := range r1.Extents {
			if r1.Extents[i] != r2.Extents[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzAssemblerRoundTrip(t *testing.T) {
	// Disassemble(assembleable program) must reassemble to identical
	// instructions.
	f := func(raw []byte) bool {
		p := randomProgram(raw)
		if err := Verify(p, false); err != nil {
			return true
		}
		text := Disassemble(p)
		p2, err := Assemble("rt", text)
		if err != nil {
			return false
		}
		if len(p.Instrs) != len(p2.Instrs) {
			return false
		}
		for i := range p.Instrs {
			if p.Instrs[i] != p2.Instrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRunIntoReadSet pins the read set: each load marks the 8-byte
// words it touches, both of them when it straddles a boundary, and
// nothing else; the extents land in the caller's buffer.
func TestRunIntoReadSet(t *testing.T) {
	p := mustAssemble(t, `
	li   r1, 0
	ldb  r2, r1, 3      ; word 0
	ldw  r3, r1, 14     ; words 1 and 2
	ldq  r4, r1, 36     ; words 4 and 5
	ldw  r5, r1, 56     ; word 7
	ldab r6, r1, 0      ; aux: no mark
	li   r7, 1
	emit r2, r7, r7
	ret  r3
`)
	meta := make([]byte, 64*8+1)
	reads := make([]uint64, ReadWords(len(meta)))
	if len(reads) != 2 {
		t.Fatalf("ReadWords(%d) = %d, want 2", len(meta), len(reads))
	}
	buf := make([]Extent, 0, 4)
	res, err := RunInto(p, meta, []byte{1}, nil, 0, buf, reads)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(1<<0 | 1<<1 | 1<<2 | 1<<4 | 1<<5 | 1<<7); reads[0] != want || reads[1] != 0 {
		t.Errorf("read set %b %b, want %b 0", reads[0], reads[1], want)
	}
	if len(res.Extents) != 1 || &res.Extents[0] != &buf[:1][0] {
		t.Errorf("extents %v not in the caller's buffer", res.Extents)
	}
	last := mustAssemble(t, "meta r1\n addi r1, r1, -1\n ldb r0, r1, 0\n ret r0\n")
	clear(reads)
	if _, err := RunInto(last, meta, nil, nil, 0, nil, reads); err != nil || reads[0] != 0 || reads[1] != 1 {
		t.Errorf("load of the last byte: %v, read set %b %b, want 0 1", err, reads[0], reads[1])
	}
}

// fuzzFuel bounds FuzzRun's interpretations, as the quick.Check tests
// above bound theirs.
const fuzzFuel = 2000

// FuzzRun holds the interpreter to the properties XN relies on, for any
// program randomProgram builds from the input: a program Verify accepts
// stops within its fuel with a bounded output; a deterministic one
// gives the same result twice; its text form reassembles to the same
// instructions; and its read set is sound — changing every byte of
// meta outside the words it records leaves the return value, the
// extents, the step count and the error unchanged.
func FuzzRun(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		raw := make([]byte, 5*(1+rng.Intn(40)))
		meta := make([]byte, rng.Intn(256))
		rng.Read(raw)
		rng.Read(meta)
		f.Add(raw, meta, byte(rng.Intn(256)))
	}
	// Loads that straddle a word boundary: li r1,3; ldw r2,r1,4 (bytes
	// 7-10); ldq r3,r1,-2 (bytes 1-8); emit r2,r3,r1; ret r2.
	f.Add([]byte{
		byte(OpLI), 1, 0, 0, 3,
		byte(OpLDW), 2, 1, 0, 4,
		byte(OpLDQ), 3, 1, 0, 0xfe,
		byte(OpEMIT), 1, 2, 3, 0,
		byte(OpRET), 0, 2, 0, 0,
	}, []byte("0123456789abcdefghijklmn"), byte(0x5a))
	f.Fuzz(func(t *testing.T, raw, meta []byte, fill byte) {
		if len(meta) > 256 {
			meta = meta[:256]
		}
		p := randomProgram(raw)
		if Verify(p, false) != nil {
			return
		}
		if p2, err := Assemble("rt", Disassemble(p)); err != nil || !slices.Equal(p.Instrs, p2.Instrs) {
			t.Fatalf("round trip: %v\n%s", err, Disassemble(p))
		}
		res, err := Run(p, meta, []byte{1, 2, 3}, Env{1, 2, 3, 4}, fuzzFuel)
		if res.Steps > fuzzFuel || len(res.Extents) > MaxExtents {
			t.Fatalf("%d steps and %d extents past the bounds (%v)", res.Steps, len(res.Extents), err)
		}
		if Verify(p, true) != nil {
			return
		}
		reads := make([]uint64, ReadWords(len(meta)))
		r1, e1 := RunInto(p, meta, nil, nil, fuzzFuel, nil, reads)
		r2, e2 := Run(p, meta, nil, nil, fuzzFuel)
		if !sameRun(r1, e1, r2, e2) {
			t.Fatalf("deterministic program ran twice: %+v %v, then %+v %v", r1, e1, r2, e2)
		}
		other := slices.Clone(meta)
		for i := range other {
			w := i / 8
			if reads[w/64]&(1<<(w%64)) == 0 {
				other[i] ^= fill | 1
			}
		}
		for w := (len(meta) + 7) / 8; w < len(reads)*64; w++ {
			if reads[w/64]&(1<<(w%64)) != 0 {
				t.Fatalf("word %d marked, past the %d-byte buffer", w, len(meta))
			}
		}
		r3, e3 := Run(p, other, nil, nil, fuzzFuel)
		if !sameRun(r1, e1, r3, e3) {
			t.Fatalf("unread bytes changed the run: %+v %v, then %+v %v", r1, e1, r3, e3)
		}
	})
}

// sameRun reports whether two interpretations agree on everything.
func sameRun(a Result, ae error, b Result, be error) bool {
	return a.Ret == b.Ret && a.Steps == b.Steps && slices.Equal(a.Extents, b.Extents) &&
		fmt.Sprint(ae) == fmt.Sprint(be)
}
