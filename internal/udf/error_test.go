package udf

import (
	"errors"
	"strings"
	"testing"
)

// Error-path coverage for the three UDF components: the interpreter's
// abort conditions (every one of which the kernel must survive — a
// hostile template program exercises exactly these), the verifier's
// rejections, and the assembler's diagnostics.

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestInterpAborts(t *testing.T) {
	meta := make([]byte, 64)
	cases := []struct {
		name string
		src  string
		env  Env
		fuel int
		want error
	}{
		{name: "fuel exhausted on infinite loop",
			src:  "loop:\n jmp loop\n",
			fuel: 50, want: ErrFuel},
		{name: "load past end of meta",
			src:  "li r1, 0\n ldq r0, r1, 60\n ret r0\n",
			want: ErrOOB},
		{name: "load at negative offset",
			src:  "li r1, -9\n ldb r0, r1, 0\n ret r0\n",
			want: ErrOOB},
		{name: "aux load with empty aux",
			src:  "li r1, 0\n ldab r0, r1, 0\n ret r0\n",
			want: ErrOOB},
		{name: "divide by zero",
			src:  "li r1, 5\n li r2, 0\n div r0, r1, r2\n ret r0\n",
			want: ErrDivZero},
		{name: "modulo by zero",
			src:  "li r1, 5\n li r2, 0\n mod r0, r1, r2\n ret r0\n",
			want: ErrDivZero},
		{name: "fall off program end",
			src:  "li r0, 1\n",
			want: ErrFellOffEnd},
		{name: "envw index out of range",
			src: "envw r0, 3\n ret r0\n",
			env: Env{7}, want: ErrOOB},
		{name: "envw with nil env",
			src:  "envw r0, 0\n ret r0\n",
			want: ErrOOB},
		{name: "word load at the top of int64",
			src:  "li r1, -1\n li r2, 1\n shr r1, r1, r2\n ldw r0, r1, 0\n ret r0\n",
			want: ErrOOB},
		{name: "quad aux load at the top of int64",
			src:  "li r1, -1\n li r2, 1\n shr r1, r1, r2\n ldaq r0, r1, -3\n ret r0\n",
			want: ErrOOB},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := mustAssemble(t, c.src)
			_, err := Run(p, meta, nil, c.env, c.fuel)
			if !errors.Is(err, c.want) {
				t.Errorf("Run = %v, want %v", err, c.want)
			}
		})
	}
}

func TestInterpEmitBound(t *testing.T) {
	// An unrolled emit loop: branch back until the extent budget blows.
	src := `
	li r1, 1
	li r2, 1
	li r3, 0
loop:
	emit r1, r2, r3
	jmp loop
`
	p := mustAssemble(t, src)
	// Plenty of fuel so the emit bound fires first.
	_, err := Run(p, nil, nil, nil, MaxExtents*2+16)
	if !errors.Is(err, ErrEmitsBounds) {
		t.Fatalf("Run = %v, want ErrEmitsBounds", err)
	}
}

func TestInterpAbortStateIsDeterministic(t *testing.T) {
	// The abort must be a pure function of program + inputs: same
	// failing program twice, identical step count at the abort.
	p := mustAssemble(t, "li r1, 0\n li r2, 8\nloop:\n addi r1, r1, 1\n blt r1, r2, loop\n ldq r0, r1, 4096\n ret r0\n")
	r1, err1 := Run(p, make([]byte, 64), nil, nil, 0)
	r2, err2 := Run(p, make([]byte, 64), nil, nil, 0)
	if !errors.Is(err1, ErrOOB) || !errors.Is(err2, ErrOOB) {
		t.Fatalf("errs = %v, %v, want ErrOOB twice", err1, err2)
	}
	if r1.Steps != r2.Steps {
		t.Fatalf("abort step counts differ: %d vs %d", r1.Steps, r2.Steps)
	}
}

func TestVerifyRejections(t *testing.T) {
	if err := Verify(nil, true); !errors.Is(err, ErrEmpty) {
		t.Errorf("Verify(nil) = %v, want ErrEmpty", err)
	}
	if err := Verify(&Program{}, true); !errors.Is(err, ErrEmpty) {
		t.Errorf("Verify(empty) = %v, want ErrEmpty", err)
	}

	long := &Program{Instrs: make([]Instr, MaxProgramLen+1)}
	for i := range long.Instrs {
		long.Instrs[i] = Instr{Op: OpRET}
	}
	if err := Verify(long, true); !errors.Is(err, ErrTooLong) {
		t.Errorf("Verify(too long) = %v, want ErrTooLong", err)
	}

	// ENVW is legal in nondeterministic context, rejected in
	// deterministic context (owns-udf must not read the environment).
	envp := mustAssemble(t, "envw r0, 0\n ret r0\n")
	if err := Verify(envp, false); err != nil {
		t.Errorf("Verify(envw, nondet) = %v, want nil", err)
	}
	if err := Verify(envp, true); !errors.Is(err, ErrNondeterministic) {
		t.Errorf("Verify(envw, det) = %v, want ErrNondeterministic", err)
	}

	bad := []struct {
		name string
		p    *Program
		frag string
	}{
		{"invalid opcode", &Program{Instrs: []Instr{{Op: opCount}}}, "invalid opcode"},
		{"register out of range", &Program{Instrs: []Instr{{Op: OpMOV, Rd: NumRegs}}}, "register out of range"},
		{"branch target negative", &Program{Instrs: []Instr{{Op: OpJMP, Imm: -1}}}, "out of range"},
		{"branch target past end", &Program{Instrs: []Instr{{Op: OpBEQ, Imm: 5}}}, "out of range"},
	}
	for _, c := range bad {
		if err := Verify(c.p, true); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Verify(%s) = %v, want error containing %q", c.name, err, c.frag)
		}
	}
}

// TestAssembleDiagnostics goes beyond TestAssembleErrors (udf_test.go)
// by pinning which diagnostic each malformed source produces — a wrong
// but non-nil error would hide the real problem from a UDF author.
func TestAssembleDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string
	}{
		{"unknown mnemonic", "frob r0, r1\n", "unknown mnemonic"},
		{"bad operands", "li r0\n", "bad operands"},
		{"bad register", "li r99, 1\n", ""},
		{"bad immediate", "li r0, zzz\n", "bad immediate"},
		{"duplicate label", "x:\n li r0, 1\nx:\n ret r0\n", "duplicate label"},
		{"undefined label", "jmp nowhere\n ret r0\n", "undefined label"},
		{"bad label", "9bad!:\n ret r0\n", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble("t", c.src)
			if err == nil {
				t.Fatalf("Assemble(%q) succeeded", c.src)
			}
			if c.frag != "" && !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q does not contain %q", err, c.frag)
			}
		})
	}
}

// TestRunPCOutOfRangeViaRawProgram: a hand-built (unverified) program
// can jump outside [0, len]; the interpreter must abort, not panic —
// Verify normally rejects this, but the interpreter is the last line
// of defense.
func TestRunPCOutOfRangeViaRawProgram(t *testing.T) {
	p := &Program{Name: "raw", Instrs: []Instr{{Op: OpJMP, Imm: 99}}}
	if _, err := Run(p, nil, nil, nil, 0); err == nil {
		t.Fatal("Run with wild jump succeeded")
	}
	p2 := &Program{Name: "raw2", Instrs: []Instr{{Op: opCount}, {Op: OpRET}}}
	if _, err := Run(p2, nil, nil, nil, 0); err == nil {
		t.Fatal("Run with invalid opcode succeeded")
	}
}
