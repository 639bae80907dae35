package difftest

import (
	"xok/internal/machine"
	"xok/internal/parallel"
)

// Determinism mode: the same program runs twice on the same
// personality — under a cloned fault plan when one is armed — and the
// two runs must agree on everything, bit for bit: per-step outcomes,
// final tree, audit findings, cycle count, and the full trace digest.
// This is the property the rest of the repository silently assumes
// (crash-point enumeration, benchmark reproducibility, the replay
// tokens above); here it is checked mechanically across random
// programs.
//
// Cross-personality comparison is deliberately NOT done under faults:
// a kill-at-Nth-syscall or crash-at-depth plan fires at different
// program points on personalities with different syscall sequences, so
// personalities legitimately diverge. Within one personality the plan
// is cloned per run and must land identically.

func fuzzDeterminism(o *Options) (*Divergence, error) {
	// One unit of fanned-out work = one seed across every personality
	// (the per-seed inner loop stays serial inside the worker, matching
	// the order a serial campaign checks personalities in).
	type seedResult struct {
		div  *Divergence
		pers machine.Personality
		err  error
	}
	var (
		firstErr error
		firstDiv *Divergence
		divPers  machine.Personality
		divSeed  uint64
	)
	parallel.Stream(o.Parallel, o.Seeds, func(i int) seedResult {
		seed := o.BaseSeed + uint64(i)
		steps := Generate(seed, o.Steps)
		keep := allSteps(len(steps))
		for _, pers := range o.Personalities {
			div, err := o.determinismOnce(pers, seed, steps, keep)
			if err != nil || div != nil {
				return seedResult{div, pers, err}
			}
		}
		return seedResult{}
	}, func(i int, r seedResult) bool {
		seed := o.BaseSeed + uint64(i)
		if r.err != nil {
			firstErr = r.err
			return false
		}
		if r.div != nil {
			o.logf("seed %d: nondeterminism on %s — shrinking", seed, r.div.A)
			firstDiv, divPers, divSeed = r.div, r.pers, seed
			return false
		}
		if (i+1)%50 == 0 {
			o.logf("%d/%d seeds deterministic", i+1, o.Seeds)
		}
		return true
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if firstDiv != nil {
		return o.shrinkDeterminism(divPers, divSeed, Generate(divSeed, o.Steps), firstDiv)
	}
	return nil, nil
}

// determinismOnce runs the kept steps twice on one personality and
// compares exactly. With the snapshot fast path on, the second run
// forks from the personality's post-boot snapshot instead of booting —
// so the comparison doubles as the replay-equivalence proof that a
// snapshot captures the tracer and the fault plan's xorshift stream
// positions: a fork that rewound (or skipped) any stream would land
// faults at different points and fail the exact compare.
func (o *Options) determinismOnce(pers machine.Personality, seed uint64, steps []Step, keep []int) (*Divergence, error) {
	prefixes := stepPrefixes(steps, keep)
	run := func() (*Result, error) {
		var plan = o.Faults
		if plan != nil {
			// Clone per run: a plan consumes deterministic decisions as
			// it goes; reusing one object would make run 2 see different
			// faults than run 1 by construction.
			plan = plan.Clone()
		}
		return o.runProgram(pers, steps, keep, prefixes, plan, true)
	}
	r1, err := run()
	if err != nil {
		return nil, err
	}
	var r2 *Result
	second := " (2nd run)"
	if sn := o.snaps[pers]; sn != nil {
		r2 = o.forkProgram(sn, pers.String(), steps, keep, prefixes)
		second = " (forked run)"
	} else {
		r2, err = run()
		if err != nil {
			return nil, err
		}
	}
	if d := compare(r1, r2, true); d != "" {
		return &Divergence{
			Seed: seed, Steps: len(steps), Keep: keep,
			A: pers.String(), B: pers.String() + second,
			Where: d,
		}, nil
	}
	return nil, nil
}

func (o *Options) shrinkDeterminism(pers machine.Personality, seed uint64, steps []Step, div *Divergence) (*Divergence, error) {
	reproduces := func(keep []int) bool {
		d, err := o.determinismOnce(pers, seed, steps, keep)
		return err == nil && d != nil
	}
	keep := shrink(div.Keep, reproduces)
	div.Keep = keep
	div.Token = encodeToken(seed, len(steps), keep)
	final, err := o.determinismOnce(pers, seed, steps, keep)
	if err == nil && final != nil {
		final.Token = div.Token
		return final, nil
	}
	return div, nil
}
