#!/usr/bin/env python3
"""Run one workload of the repository's benchmark and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cluster --seed 3 --seconds 20 --trace 0

The script builds the perfbench Go program (this directory, a module of
its own next to the simulator's), then runs repetitions of the workload
until --seconds have passed. A repetition times the set-up in one fresh
process and the run in another, each with GOMAXPROCS=1 and GOGC,
GOMEMLIMIT and GODEBUG unset, and each is followed by a process that
times the host-speed reference (-phase ref, calib.go). The run's host
times are its median CPU seconds divided by its median reference
score: CPU seconds at the nominal host speed. It checks every repetition's
outputs, prints one line per repetition, and ends with one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics,
medians over the repetitions. With --trace 1 repetitions alternate
between untraced and traced (CPU profile plus histogram tracer), the
metrics are its per_layer metrics, and the repetitions' spans are
written to <build dir>/spans-<workload>-<seed>.json in Chrome
trace_event format. A per-layer value of -1 means the workload's entry
point does not expose that layer (see README.md).

Everything it writes goes under the build directory: $CARGO_TARGET_DIR
if set, else .bench_build, relative to the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run must end within 180 s; no repetition starts that could end past
# this many seconds after the script started, build included.
BUDGET_S = 165
# Untraced repetitions a --trace 0 run makes at least, however short
# --seconds is.
MIN_REPS = 3
# The environment variables that tune the Go runtime. The benchmark
# pins GOMAXPROCS and clears the others.
GO_RUNTIME_VARS = ("GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS")
NOT_OBSERVED = -1


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def build(bdir):
    """Builds perfbench into bdir, keeping Go's caches there too."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(bdir, "gocache"),
        GOMODCACHE=os.path.join(bdir, "gomodcache"),
        GOPATH=os.path.join(bdir, "gopath"),
        XDG_CONFIG_HOME=os.path.join(bdir, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",
    )
    binary = os.path.join(bdir, "perfbench")
    try:
        p = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        fail("build failed:\n" + p.stdout + p.stderr)
    return binary


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in GO_RUNTIME_VARS}
    env["GOMAXPROCS"] = "1"
    return env


def run_process(binary, workload, seed, phase, traced, deadline):
    """Runs one perfbench process; returns its JSON object, or None if
    it crashed or timed out."""
    cmd = [binary, "-workload", workload, "-seed", str(seed), "-phase", phase]
    if traced:
        cmd.append("-traced")
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                           text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("process timed out: %s" % " ".join(cmd), file=sys.stderr)
        return None
    if p.returncode != 0:
        print("process failed (exit %d): %s\n%s" % (p.returncode, " ".join(cmd), p.stderr),
              file=sys.stderr)
        return None
    return json.loads(p.stdout.strip().splitlines()[-1])


def run_ref(binary, workload, deadline):
    """Runs the host-speed reference once; returns its score or None."""
    r = run_process(binary, workload, 0, "ref", False, deadline)
    return None if r is None else r["ref_score"]


def run_rep(binary, workload, seed, traced, refs, deadline):
    """Runs one repetition: an untraced one times the set-up in one
    fresh process and the run in another; a traced one only runs. A
    reference run follows each process, its score appended to refs.
    Returns the run's JSON object with the set-up's merged in, or None."""
    setup = None
    if not traced:
        setup = run_process(binary, workload, seed, "setup", False, deadline)
        ref = setup and run_ref(binary, workload, deadline)
        if ref is None:
            return None
        refs.append(ref)
    r = run_process(binary, workload, seed, "run", traced, deadline)
    ref = r and run_ref(binary, workload, deadline)
    if ref is None:
        return None
    refs.append(ref)
    if setup is not None:
        r["setup_cpu_s"] = setup["setup_cpu_s"]
        r["layers"].update(setup["layers"])
        r["spans"] = setup["spans"] + r["spans"]
    return r


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def layer_value(name, untraced, traced):
    """A per-layer metric's median. Profile-derived host.* metrics come
    from traced repetitions; the rest from untraced ones where they are
    observed there, else from traced ones (trace histograms)."""
    def observed(reps):
        return [r["layers"][name] for r in reps
                if r["layers"].get(name, NOT_OBSERVED) != NOT_OBSERVED]
    if name.startswith("host."):
        vals = observed(traced)
    else:
        vals = observed(untraced) or observed(traced)
    return statistics.median(vals) if vals else NOT_OBSERVED


def write_spans(path, reps):
    """Writes the repetitions' spans as Chrome trace_event JSON, one
    process per repetition."""
    events = []
    for pid, r in enumerate(reps, 1):
        label = "%s seed %d rep %d%s" % (r["workload"], r["seed"], pid,
                                         " (traced)" if r["traced"] else "")
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 1,
                       "args": {"name": label}})
        for s in r["spans"]:
            events.append({"ph": "X", "name": s["name"], "pid": pid, "tid": 1,
                           "ts": s["start_us"], "dur": s["end_us"] - s["start_us"],
                           "args": {"id": s["id"], "parent": s["parent"], "cpu_us": s["cpu_us"]}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + BUDGET_S
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    binary = build(bdir)

    start = time.monotonic()
    untraced, traced, lost = [], [], 0
    longest = 0.0
    refs = []
    while True:
        done = time.monotonic() - start
        if args.trace:
            enough = done >= args.seconds and untraced and traced
            want_traced = len(traced) < len(untraced)
        else:
            enough = done >= args.seconds and len(untraced) >= MIN_REPS
            want_traced = False
        if enough or time.monotonic() + longest > deadline:
            break
        t0 = time.monotonic()
        r = run_rep(binary, args.workload, args.seed, want_traced, refs, deadline)
        longest = max(longest, time.monotonic() - t0)
        if r is None:
            lost += 1
            break
        (traced if r["traced"] else untraced).append(r)
        print("rep %d %s: run_cpu_s=%.4f run_wall_s=%.4f setup_cpu_s=%.6f ref_score=%.4f "
              "peak_rss_mb=%.1f fingerprint=%s failed=%d/%d"
              % (len(untraced) + len(traced), "traced" if r["traced"] else "untraced",
                 r["run_cpu_s"], r["run_wall_s"], statistics.median(r["setup_cpu_s"] or [0]), refs[-1],
                 r["peak_rss_mb"], r["fingerprint"], r["failed"], r["attempted"]))
        for e in r["errors"] or []:
            print("  error: " + e)

    reps = untraced + traced
    if not reps:
        lost = max(lost, 1)  # the budget ran out before the first repetition
    # A repetition that did not complete counts as one failed operation.
    attempted = sum(r["attempted"] for r in reps) + lost
    failed = sum(r["failed"] for r in reps) + lost
    correct = lost == 0 and bool(untraced) and failed == 0
    # Simulated behaviour must not depend on the process. Traced
    # repetitions are compared among themselves: a traced cluster's
    # latency digest also covers the servers' histograms.
    for group in (untraced, traced):
        prints = set(r["fingerprint"] for r in group)
        if len(prints) > 1:
            correct = False
            print("fingerprints differ between repetitions: %s" % sorted(prints))
    if untraced:
        first = untraced[0]
        print("host: %s, %d CPUs, GOMAXPROCS=%d" % (first["go_version"], first["num_cpu"], first["gomaxprocs"]))
        print("fingerprint %s:" % first["fingerprint"])
        for line in first["fingerprint_lines"]:
            print("  " + line)

    metrics = {}
    if untraced:
        # Host times at the nominal host speed: the median CPU time over
        # the median reference score of the same run.
        ref = statistics.median(refs)
        e2e = {
            "run_s": median_of(untraced, "run_cpu_s") / ref,
            "setup_s": statistics.median(b for r in untraced for b in r["setup_cpu_s"]) / ref,
            "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
            "paper_err_pct": median_of(untraced, "paper_err_pct"),
        }
        for m in wanted:
            if args.trace:
                if m["name"] == "trace.overhead_frac":
                    v = (median_of(traced, "run_cpu_s") / median_of(untraced, "run_cpu_s") - 1) if traced else NOT_OBSERVED
                elif m["name"] == "host.run_cpu_s":
                    v = median_of(untraced, "run_cpu_s")
                elif m["name"] == "host.ref_score":
                    v = ref
                else:
                    v = layer_value(m["name"], untraced, traced)
            else:
                v = e2e[m["name"]]
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    if args.trace:
        path = os.path.join(bdir, "spans-%s-%d.json" % (args.workload, args.seed))
        write_spans(path, untraced + traced)
        print("spans: " + os.path.relpath(path, ROOT))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
