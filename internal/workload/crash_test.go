package workload

import (
	"bytes"
	"slices"
	"testing"

	"xok/internal/cffs"
	"xok/internal/disk"
	"xok/internal/fault"
	"xok/internal/sim"
)

// TestCrashEnumerationMAB is the headline recovery check: crash the
// MAB workload at sampled synchronous-write boundaries with torn
// writes armed; every image must remount and audit clean, and the
// sweep must be bit-identical across two same-seed runs.
func TestCrashEnumerationMAB(t *testing.T) {
	cfg := CrashConfig{Plan: &fault.Plan{Seed: 42, TornWrites: true}, MaxPoints: 10}
	res, err := CrashEnumerate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Boundaries
	if want > cfg.MaxPoints {
		want = cfg.MaxPoints
	}
	if want == 0 || len(res.Points) != want {
		t.Fatalf("boundaries=%d points=%d, want %d sampled points", res.Boundaries, len(res.Points), want)
	}
	for _, pt := range res.Points {
		for _, v := range pt.Violations {
			t.Errorf("crash@%v: %s", pt.At, v)
		}
	}
	if res.Violations() != 0 {
		t.Fatalf("%d of %d crash points failed recovery", res.Violations(), len(res.Points))
	}

	cfg2 := CrashConfig{Plan: &fault.Plan{Seed: 42, TornWrites: true}, MaxPoints: 10}
	res2, err := CrashEnumerate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Digest != res.Digest {
		t.Fatalf("same seed diverged: digest %016x vs %016x", res.Digest, res2.Digest)
	}
	if res2.Boundaries != res.Boundaries {
		t.Fatalf("boundary count diverged: %d vs %d", res.Boundaries, res2.Boundaries)
	}
}

// TestCrashEnumerationSeedSensitivity: the recovery guarantee is
// seed-independent — any plan seed must sweep clean. (With only torn
// writes armed no rate-based channel draws from the seed streams, so
// torn content is fixed by the crash instant; seeds matter once
// readerr/loss-style knobs are armed.)
func TestCrashEnumerationSeedSensitivity(t *testing.T) {
	res, err := CrashEnumerate(CrashConfig{Plan: &fault.Plan{Seed: 7, TornWrites: true}, MaxPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations() != 0 {
		t.Fatalf("seed 7: %d crash points failed recovery", res.Violations())
	}
}

// TestCrashParallelMatchesSerial: fanning the per-point trials across
// workers must not change the sweep — same sampled boundaries, same
// per-point audit findings, same outcome digest. Each trial boots its
// own machine under its own plan clone, so this holds by construction;
// the test is the guard that keeps it true.
func TestCrashParallelMatchesSerial(t *testing.T) {
	mk := func(workers int) CrashResult {
		res, err := CrashEnumerate(CrashConfig{
			Plan:      &fault.Plan{Seed: 42, TornWrites: true},
			MaxPoints: 6,
			Parallel:  workers,
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		return res
	}
	serial := mk(1)
	for _, workers := range []int{3, 8} {
		par := mk(workers)
		if par.Digest != serial.Digest {
			t.Fatalf("parallel=%d digest %#x, serial %#x", workers, par.Digest, serial.Digest)
		}
		if par.Boundaries != serial.Boundaries || len(par.Points) != len(serial.Points) {
			t.Fatalf("parallel=%d shape differs: %d/%d boundaries, %d/%d points",
				workers, par.Boundaries, serial.Boundaries, len(par.Points), len(serial.Points))
		}
		for i := range par.Points {
			if par.Points[i].At != serial.Points[i].At {
				t.Fatalf("point %d crashes at %v parallel vs %v serial", i, par.Points[i].At, serial.Points[i].At)
			}
		}
	}
}

// TestCrashSnapshotMatchesFromBoot: the sweep's forked trials (each
// forks from the segment-boundary snapshot nearest its crash point)
// must reproduce the from-boot sweep exactly — same boundaries, same
// crash instants, same audit findings, same digest — serially and
// with trials forking concurrently from shared snapshots.
func TestCrashSnapshotMatchesFromBoot(t *testing.T) {
	mk := func(fromBoot bool, workers int) CrashResult {
		res, err := crashEnumerate(CrashConfig{
			Plan:      &fault.Plan{Seed: 42, TornWrites: true},
			MaxPoints: 8,
			Parallel:  workers,
		}, fromBoot, auditCrash)
		if err != nil {
			t.Fatalf("fromBoot=%v parallel=%d: %v", fromBoot, workers, err)
		}
		return res
	}
	ref := mk(true, 1)
	if ref.Violations() != 0 {
		t.Fatalf("from-boot sweep: %d crash points failed recovery", ref.Violations())
	}
	for _, workers := range []int{1, 4} {
		got := mk(false, workers)
		if got.Digest != ref.Digest || got.Boundaries != ref.Boundaries || len(got.Points) != len(ref.Points) {
			t.Fatalf("snapshot parallel=%d: digest %#x boundaries %d points %d, from-boot digest %#x boundaries %d points %d",
				workers, got.Digest, got.Boundaries, len(got.Points), ref.Digest, ref.Boundaries, len(ref.Points))
		}
	}
}

// TestCrashHandoffMatchesFlatAudit: at every crash point of the sweep,
// with torn writes armed and without faults, from boot and forked from
// segment snapshots, a disk that adopts the crash image reads the same
// media as the flattened image holds, and auditing the crash image in
// place gives the same violations as auditing it flattened
// (cffs.AuditFlat, the reference).
func TestCrashHandoffMatchesFlatAudit(t *testing.T) {
	for _, tc := range []struct {
		name     string
		plan     *fault.Plan
		fromBoot bool
	}{
		{"42:torn", &fault.Plan{Seed: 42, TornWrites: true}, false},
		{"42:torn/from-boot", &fault.Plan{Seed: 42, TornWrites: true}, true},
		{"no-faults", &fault.Plan{Seed: 42}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checked := 0
			audit := func(ci *disk.CrashImage, blocks int64) []string {
				got := auditCrash(ci, blocks)
				img := ci.Flatten()
				d := disk.New(sim.NewEngine(), nil, blocks)
				d.AdoptCrash(ci)
				for b, blk := range img {
					if !bytes.Equal(d.ViewBlock(b), blk) {
						t.Errorf("crash point %d: block %d differs from the flattened image", checked, b)
					}
				}
				d.Recycle()
				want := cffs.AuditFlat(img, blocks, "cffs", cffs.DefaultConfig())
				disk.RecycleImage(img)
				if !slices.Equal(got, want) {
					t.Errorf("crash point %d: audit %q from the crash image, %q flattened", checked, got, want)
				}
				checked++
				return got
			}
			res, err := crashEnumerate(CrashConfig{Plan: tc.plan, MaxPoints: 1 << 20}, tc.fromBoot, audit)
			if err != nil {
				t.Fatal(err)
			}
			if checked != res.Boundaries || checked == 0 {
				t.Fatalf("checked %d crash points of %d boundaries", checked, res.Boundaries)
			}
			if res.Violations() != 0 {
				t.Errorf("%d of %d crash points failed recovery", res.Violations(), len(res.Points))
			}
		})
	}
}
