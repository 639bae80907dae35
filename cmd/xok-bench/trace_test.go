package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"xok/internal/parallel"
	"xok/internal/trace"
)

// TestTraceBytesStable runs a small cluster, several machines on one
// engine, with -trace twice, serial and on two workers, and requires
// byte-identical trace files: the timeline depends on the simulation
// alone, never on host scheduling or the worker count.
func TestTraceBytesStable(t *testing.T) {
	defer func(conns, servers int, file string, tr *trace.Tracer, workers int) {
		*connsFlag, *serversFlag, *traceFlag = conns, servers, file
		bench.Trace, bench.Parallel = tr, workers
	}(*connsFlag, *serversFlag, *traceFlag, bench.Trace, bench.Parallel)
	*connsFlag, *serversFlag = 300, 2
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		*traceFlag = filepath.Join(dir, "trace.json")
		bench.Trace, bench.Parallel = trace.New(), parallel.Workers(i+1)
		captureStdout(t, func() {
			experiments["cluster"]()
			dumpTrace(bench.Trace)
		})
		b, err := os.ReadFile(*traceFlag)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = b
	}
	if len(files[0]) == 0 || !bytes.Equal(files[0], files[1]) {
		t.Errorf("cluster -trace wrote %d bytes serial and %d bytes on two workers, not the same bytes",
			len(files[0]), len(files[1]))
	}
}
