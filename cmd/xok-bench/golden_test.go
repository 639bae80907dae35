package main

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xok/internal/parallel"
)

var update = flag.Bool("update", false, "re-pin testdata/stdout.sha256 from this run's output")

// goldenFile holds one "name sha256" line per pinned run.
const goldenFile = "testdata/stdout.sha256"

// goldenRuns are the pinned runs: a name (as in goldenFile), the -run
// experiment and the -seeds value it runs with (200 is the default).
var goldenRuns = []struct {
	name, run string
	seeds     int
}{
	{"figure2", "figure2", 200},
	{"mab", "mab", 200},
	{"protection", "protection", 200},
	{"table2", "table2", 200},
	{"emulator", "emulator", 200},
	{"xcp", "xcp", 200},
	{"crash", "crash", 200},
	{"difftest-seeds-100", "difftest", 100},
	{"figure3", "figure3", 200},
	{"figure4", "figure4", 200},
	{"figure5", "figure5", 200},
	{"cluster", "cluster", 200},
}

// TestStdoutGolden runs each pinned experiment as `xok-bench -run` does,
// with default flags but -seeds, and compares the sha256 of its stdout
// with the digest committed in testdata. Every experiment is
// deterministic, so a digest moves only when the simulated behaviour or
// the report format does. Re-pin with `go test ./cmd/xok-bench -update`,
// and say why in CHANGES.md.
func TestStdoutGolden(t *testing.T) {
	want := readGolden(t)
	bench.Parallel = parallel.Workers(*parallelFlag)
	defer func(seeds int) { *seedsFlag = seeds }(*seedsFlag)
	got := make(map[string]string)
	for _, g := range goldenRuns {
		*seedsFlag = g.seeds
		out := captureStdout(t, experiments[g.run])
		got[g.name] = fmt.Sprintf("%x", sha256.Sum256(out))
		if *update {
			continue
		}
		if w, ok := want[g.name]; !ok {
			t.Errorf("%s: no digest pinned in %s (run with -update)", g.name, goldenFile)
		} else if got[g.name] != w {
			t.Errorf("%s: stdout sha256 %s, pinned %s; stdout was:\n%s", g.name, got[g.name], w, out)
		}
	}
	if *update {
		var b strings.Builder
		for _, g := range goldenRuns {
			fmt.Fprintf(&b, "%s %s\n", g.name, got[g.name])
		}
		if err := os.WriteFile(filepath.FromSlash(goldenFile), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	want := make(map[string]string)
	f, err := os.Open(filepath.FromSlash(goldenFile))
	if os.IsNotExist(err) && *update {
		return want
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it wrote.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	fn()
	w.Close()
	return <-read
}
