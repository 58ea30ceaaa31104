"""Layered benchmark of pvcdb's ``prob`` and ``query`` commands.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grouped_joint --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each op is one in-process ``pvcdb.cli.main([...])`` call writing to a
buffer: the command-line path without interpreter start-up.  The load
is a closed loop with one client in one process.  The seed selects the
generated inputs; pvcdb sees only the expression, TSV and probability
files.  Every output is checked against an independent reference after
the timed loop, and a small instance against pvcdb's brute-force oracle.
A wrong output, or an op that raises or exits non-zero, names the op and
exits 1 without printing numbers.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
op of a fixed list twice untraced and twice traced and reports per-layer
self times and counters (see ``tracer.py``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import reference

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOAD_NAMES = ("cond_minmax", "indep_agg", "grouped_joint", "join_project")

#: Set-ups per run; setup_s is their median.
SETUP_REPS = 5

#: Seconds ``probe()`` takes on the reference machine.  The shared host
#: this benchmark was built on changes speed by up to 1.8x in spells that
#: last minutes, for every kind of pure-Python work alike, so every
#: end-to-end time is scaled by REFERENCE_PROBE_S over the probe times
#: measured next to it: it reads as on a machine of fixed speed.
REFERENCE_PROBE_S = 0.0015

#: Probes on each side of a run whose median gives the speed at that run.
PROBE_WINDOW = 5

#: The layer that should dominate self time on each workload.
PREDICTED = {
    "cond_minmax": ("dtree.compile",),
    "indep_agg": ("dtree.compile", "dtree.distribution"),
    "grouped_joint": ("dtree.compile_joint",),
    "join_project": ("engine.evaluate",),
}

class BenchError(Exception):
    """A run that must not report numbers."""


def probe():
    """Seconds taken by a fixed pure-Python task of the kind pvcdb does
    (tuples, a dict, a sort with a key function); it does not call pvcdb."""
    start = time.perf_counter()
    table = {}
    for i in range(3000):
        table[(i % 97, i)] = i * 0.5
    sorted(table.items(), key=lambda item: item[1])
    return time.perf_counter() - start


def scaled(seconds, probes):
    """``seconds`` as on the reference machine, given probe times taken
    around them."""
    return seconds * REFERENCE_PROBE_S / statistics.median(probes)


def run_op(cli, argv, stderr=None):
    """One in-process CLI call; returns (exit code, output text)."""
    out = io.StringIO()
    with contextlib.redirect_stderr(stderr if stderr is not None else sys.stderr):
        code = cli.main(argv, out=out)
    return code, out.getvalue()


def time_op(cli, op, trace=None, op_id=None):
    """One timed op, under a root span of ``trace`` when given; returns
    (seconds, output text).  An op that raises or exits non-zero stops
    the run: every timed op must succeed."""
    start = time.perf_counter()
    try:
        if trace is None:
            code, text = run_op(cli, op.argv)
        else:
            code, text = trace.run_op(op_id, lambda: run_op(cli, op.argv))
    except Exception as exc:  # RecursionError, MemoryError, ...
        raise BenchError("%s raised %s: %s" % (op.label, type(exc).__name__, exc))
    elapsed = time.perf_counter() - start
    if code != 0:
        raise BenchError("%s exited %d" % (op.label, code))
    return elapsed, text


def ingest(cli, argv):
    """Read and parse one op's input files with pvcdb's own readers."""
    args = cli.build_parser().parse_args(argv)
    if args.command == "prob":
        cli.parse_expr(pathlib.Path(args.expr_file).read_text().strip())
        cli.load_probabilities(args.probs)
    else:
        cli.load_database(args.tables, args.probs, args.semiring)
        cli.parse_query(args.query)


class Bench:
    def __init__(self, name, seed, seconds, small=False):
        import workloads  # imports pvcdb, which run_one puts on the path

        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.small = small
        self.build, self.build_small, self.build_ladder = workloads.WORKLOADS[name]
        self.workdirs = []

    def rng(self, part):
        return random.Random("%s:%d:%s" % (self.name, self.seed, part))

    def setup(self, cli):
        """Generate the inputs, write the files, read every op's input
        back through pvcdb's parsers and warm up on the small instance;
        returns (seconds taken, scaled to the reference machine, ops,
        small instance)."""
        probes = [probe() for _ in range(PROBE_WINDOW)]
        start = time.perf_counter()
        WORK.mkdir(exist_ok=True)
        workdir = pathlib.Path(tempfile.mkdtemp(prefix=self.name + "-", dir=WORK))
        self.workdirs.append(workdir)
        ops = self.build(self.rng("ops"), workdir, small=self.small)
        for op in ops:
            ingest(cli, op.argv)
        small = self.build_small(self.rng("small"), workdir)
        code, _ = run_op(cli, small.argv)
        if code != 0:
            raise BenchError("warm-up op exited %d" % code)
        elapsed = time.perf_counter() - start
        probes += [probe() for _ in range(PROBE_WINDOW)]
        return scaled(elapsed, probes), ops, small

    def cleanup(self):
        for workdir in self.workdirs:
            shutil.rmtree(workdir, ignore_errors=True)

    @staticmethod
    def loop(cli, ops, seconds, log, outputs, min_runs=0):
        """Closed loop over ``ops``, going on round the list from run
        number ``len(log)`` until ``seconds`` have passed and ``log``
        holds at least ``min_runs`` runs.  A probe runs before each op.

        Appends (op index, latency, probe time), in seconds, to ``log``
        and adds each output to ``outputs`` by op index.
        """
        deadline = time.perf_counter() + seconds
        while len(log) < min_runs or time.perf_counter() < deadline:
            index = len(log) % len(ops)
            probe_s = probe()
            elapsed, text = time_op(cli, ops[index])
            log.append((index, elapsed, probe_s))
            outputs.setdefault(index, set()).add(text)

    @staticmethod
    def check(ops, outputs):
        for index, texts in sorted(outputs.items()):
            for text in texts:
                try:
                    ops[index].check(text)
                except reference.Mismatch as exc:
                    raise BenchError("wrong output of %s: %s" % (ops[index].label, exc))

    def check_small(self, cli, small):
        code, text = run_op(cli, small.argv)
        if code != 0:
            raise BenchError("small instance exited %d" % code)
        try:
            small.oracle(text)
        except reference.Mismatch as exc:
            raise BenchError("small %s instance disagrees with the oracle: %s" % (self.name, exc))

    def capacity(self, cli):
        """Largest ladder rung whose ops all succeed under the budget, and
        what stopped the ladder."""
        ladder = self.build_ladder(self.rng("ladder"), self.workdirs[-1])
        passed, stop = 0, "top of ladder"
        for size, argvs in ladder.rungs:
            for argv in argvs:
                stderr = io.StringIO()
                try:
                    code, _ = run_op(cli, argv + ["--node-budget", str(ladder.budget)], stderr)
                except Exception as exc:  # RecursionError, MemoryError, ...
                    code = type(exc).__name__
                if code != 0:
                    message = stderr.getvalue().strip().splitlines()
                    reason = "exit %d" % code if isinstance(code, int) else code
                    stop = "%s at %d (%s)" % (reason, size, message[-1] if message else "raised")
                    return passed, stop
            passed = size
        return passed, stop


def end_to_end(bench, cli):
    # The set-ups are spread over the run, between stretches of the timed
    # loop, so that their median samples the machine's speed over the
    # whole run, as the latencies do.  The loop uses the first set-up's
    # ops; the same seed makes the others identical.  The last stretch
    # goes on until every op has run at least once.
    seconds, ops, small = bench.setup(cli)
    setups = [seconds]
    log, outputs = [], {}
    for stretch in range(1, SETUP_REPS):
        min_runs = len(ops) if stretch == SETUP_REPS - 1 else 0
        bench.loop(cli, ops, bench.seconds / (SETUP_REPS - 1), log, outputs, min_runs)
        setups.append(bench.setup(cli)[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bench.check(ops, outputs)
    bench.check_small(cli, small)
    capacity, stop = bench.capacity(cli)
    if len(ops) < 2:
        raise BenchError("fewer than two ops")
    # Each run's latency is scaled by the median of the probes of the
    # PROBE_WINDOW runs on either side of it.
    probes = [probe_s for _, _, probe_s in log]
    latencies, unscaled = {}, {}
    for k, (index, elapsed, _) in enumerate(log):
        near = probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 1]
        latencies.setdefault(index, []).append(scaled(elapsed, near))
        unscaled.setdefault(index, []).append(elapsed)
    # One latency per distinct op, the median of its runs, so the op mix
    # is the same whatever the number of rounds the deadline allowed.
    per_op = [statistics.median(runs) for runs in latencies.values()]
    p90 = statistics.quantiles(per_op, n=10)[8]
    runs = len(log)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_ms.p50": (statistics.median(per_op) * 1000.0, "ms"),
        "latency_ms.p90": (p90 * 1000.0, "ms"),
        "throughput_ops_s": (runs / sum(sum(t) for t in latencies.values()), "ops/s"),
        "capacity_n": (capacity, "rows/terms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    notes = (
        "ops=%d runs=%d fail_ratio=0/%d beyond_p90=%d capacity_stop=%s"
        " unscaled_p50=%.4gms probe_median=%.4gms" % (
            len(per_op), runs, runs, sum(1 for t in per_op if t > p90), stop,
            statistics.median(statistics.median(t) for t in unscaled.values()) * 1000.0,
            statistics.median(probes) * 1000.0,
        )
    )
    return metrics, runs, notes


def per_layer(bench, cli):
    import tracer

    # Each of the workload's distinct ops runs twice untraced and twice
    # traced, back to back in the order U T T U or T U U T, so that drift
    # and slow spells of the machine hit both sides alike; the overhead
    # ratio is the median over the ops of the faster traced run over the
    # faster untraced one.  Spans and counters come from the first traced
    # run of each op only (``spare`` records the second), so a fixed op
    # list gives counters identical between runs of a commit.
    _, ops, small = bench.setup(cli)
    trace, spare = tracer.Tracer(), tracer.Tracer()
    outputs, ratios = {}, []
    for index, op in enumerate(ops):
        seconds = {True: [], False: []}
        for t in (None, trace, spare, None) if index % 2 == 0 else (trace, None, None, spare):
            if t is None:
                elapsed, text = time_op(cli, op)
            else:
                with t:
                    elapsed, text = time_op(cli, op, t, index)
            seconds[t is not None].append(elapsed)
            outputs.setdefault(index, set()).add(text)
        ratios.append(min(seconds[True]) / min(seconds[False]))
    bench.check(ops, outputs)
    bench.check_small(cli, small)

    busy = trace.busy()
    metrics = {}
    for layer, names in tracer.METRICS:
        counters = trace.counter(layer)
        for metric in names:
            if metric == "busy_s":
                metrics["%s.busy_s" % layer] = (busy.get(layer, 0.0), "s")
            else:
                metrics["%s.%s" % (layer, metric)] = (counters[metric], "count")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")

    WORK.mkdir(exist_ok=True)
    spans = WORK / ("spans-%s-seed%d.jsonl" % (bench.name, bench.seed))
    trace.dump(spans)
    layers = {name: t for name, t in busy.items() if name not in (tracer.OP, tracer.BOOKKEEPING)}
    total = sum(layers.values())
    dominant = max(layers, key=layers.get)
    verdict = "as predicted" if dominant in PREDICTED[bench.name] else "NOT as predicted"
    notes = "dominant=%s (%.0f%% of layer self time, %s: %s) spans=%s" % (
        dominant, 100.0 * layers[dominant] / total, verdict,
        "+".join(PREDICTED[bench.name]), spans.relative_to(ROOT),
    )
    return metrics, 4 * len(ops), notes


def format_row(name, metrics, notes):
    cells = ["%s=%.6g %s" % (metric, value, unit) for metric, (value, unit) in metrics.items()]
    return "row %s: %s | %s" % (name, "  ".join(cells), notes)


def run_one(args):
    if not (SRC / "pvcdb" / "__init__.py").is_file():
        print("error: %s has no pvcdb package to benchmark" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from pvcdb import cli

    bench = Bench(args.workload, args.seed, args.seconds, small=args.small)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, notes = measure(bench, cli)
    except BenchError as exc:
        print("error: %s: %s" % (args.workload, exc), file=sys.stderr)
        return 1
    finally:
        bench.cleanup()
    print(format_row(args.workload, metrics, notes))
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,  # a failed op stops the run before this
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.small:
            argv.append("--small")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        rows = [line for line in proc.stdout.splitlines() if line.startswith("row ")]
        print("\n".join(rows) if rows else "row %s: no result (exit %d)" % (name, proc.returncode))
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    # Exit through the finally clauses, which delete the work files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
