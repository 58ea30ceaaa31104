"""Tests of the benchmark itself, on its small inputs.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

import json
import pathlib
import random
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from pvcdb import cli, dtree  # noqa: E402
from pvcdb.errors import BudgetExceeded  # noqa: E402


def bench_json(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def counters(result):
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["indep_agg", "grouped_joint"])
def test_same_seed_gives_identical_counters(workload):
    args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1", "--small"]
    first, second = bench_json(*args), bench_json(*args)
    assert first["correct"] and first["failed"] == 0
    assert counters(first) == counters(second)
    assert counters(first)["dtree.compile.calls"] > 0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_different_seed_gives_different_inputs(workload, tmp_path):
    def inputs(seed):
        workdir = tmp_path / str(len(list(tmp_path.iterdir())))
        workdir.mkdir()
        ops = workloads.WORKLOADS[workload][0](random.Random(seed), workdir, small=True)
        return sorted(p.read_text() for p in workdir.rglob("*") if p.is_file()), ops

    (first, ops), (same, _), (other, _) = inputs(1), inputs(1), inputs(2)
    assert first == same
    assert first != other
    assert ops and all(op.argv[0] in ("prob", "query") for op in ops)


def test_end_to_end_metrics_of_a_small_run():
    result = bench_json("--workload", "join_project", "--seed", "3", "--seconds", "0.5", "--small")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {
        "setup_s", "latency_ms.p50", "latency_ms.p90", "throughput_ops_s",
        "capacity_n", "peak_rss_mb",
    }
    assert all(m["value"] > 0 for m in metrics.values())


def test_corrupted_reference_fails_the_run(monkeypatch, capsys):
    honest = reference.monoid_distribution

    def shifted(kind, terms):
        return {value + 1: p for value, p in honest(kind, terms).items()}

    monkeypatch.setattr(reference, "monoid_distribution", shifted)
    code = run.main(["--workload", "indep_agg", "--seed", "1", "--seconds", "0.2", "--small"])
    captured = capsys.readouterr()
    assert code == 1
    assert "wrong output of indep_agg op" in captured.err
    assert '"correct"' not in captured.out


def test_times_are_scaled_by_the_median_probe():
    # On a machine half as fast as the reference machine the probes take
    # twice as long; one probe slowed by an outside hiccup does not count.
    ref = run.REFERENCE_PROBE_S
    assert run.scaled(0.2, [2 * ref, 2 * ref, 50 * ref]) == pytest.approx(0.1)


def test_reference_agrees_with_brute_force():
    probs = [0.3, 0.6, 0.2, 0.9]
    clauses = [0b0011, 0b0110, 0b1000]
    brute = 0.0
    for world in range(16):
        p = 1.0
        for i, q in enumerate(probs):
            p *= q if world >> i & 1 else 1.0 - q
        if any(world & c == c for c in clauses):
            brute += p
    assert abs(reference.dnf_probability(clauses, probs) - brute) < 1e-12


def _ladder_bench(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    bench = run.Bench("indep_agg", 1, 1.0, small=True)
    bench.workdirs.append(tmp_path)
    return bench


def _fail_above(monkeypatch, limit, exc):
    honest = dtree.compile

    def compile_(expr, *args, **kwargs):
        if len(expr.vars()) > limit:
            raise exc
        return honest(expr, *args, **kwargs)

    monkeypatch.setattr(dtree, "compile", compile_)


def test_injected_recursion_error_stops_the_ladder(tmp_path, monkeypatch):
    bench = _ladder_bench(tmp_path, monkeypatch)
    _fail_above(monkeypatch, 150, RecursionError("injected"))
    capacity, stop = bench.capacity(cli)
    assert capacity == 100
    assert stop.startswith("RecursionError at 200")


def test_injected_budget_error_stops_the_ladder(tmp_path, monkeypatch):
    bench = _ladder_bench(tmp_path, monkeypatch)
    _fail_above(monkeypatch, 250, BudgetExceeded("node budget exhausted"))
    capacity, stop = bench.capacity(cli)
    assert capacity == 200
    assert stop == "exit 1 at 400 (error: node budget exhausted)"


def test_failed_timed_op_fails_the_run(monkeypatch, capsys):
    # The small oracle instance has 12 variables; timed ops up to 16.
    _fail_above(monkeypatch, 12, RecursionError("injected"))
    code = run.main(["--workload", "indep_agg", "--seed", "1", "--seconds", "0.2", "--small"])
    captured = capsys.readouterr()
    assert code == 1
    assert "raised RecursionError: injected" in captured.err
    assert '"correct"' not in captured.out


def test_missing_program_exits_nonzero(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "indep_agg", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
