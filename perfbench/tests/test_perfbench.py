"""Tests of the benchmark itself: its inputs, its checks, its tracer and its output."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from quadres import checkers, symbols
from quadres.symbols import SymbolEvidence

BENCH_DIR = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_same_seed_gives_identical_inputs():
    for make in (workloads.symbol_inputs, workloads.solve_inputs):
        assert make(7, 0) == make(7, 0)
        assert make(7, 1) == make(7, 1)
        assert make(7, 0) != make(7, 1)
        assert make(7, 0) != make(8, 0)


def test_rounds_repeat_op_sizes_but_not_free_inputs():
    first, second = workloads.symbol_inputs(7, 0), workloads.symbol_inputs(7, 1)
    assert [n for _, n in first] == [n for _, n in second]
    assert not {pair for pair in first} & {pair for pair in second}
    first, second = workloads.solve_inputs(7, 0), workloads.solve_inputs(7, 1)
    assert [p.board for p in first] == [p.board for p in second]
    kinds = workloads.PUZZLE_KINDS
    random_kind = sum(1 for k in range(len(first)) if kinds[k % len(kinds)] == "random")
    assert sum(a != b for a, b in zip(first, second)) == random_kind


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_symbol_inputs_are_coprime_odd_and_in_range(seed):
    pairs = workloads.symbol_inputs(seed, 0)
    assert len(pairs) == workloads.SYMBOL_BATCH
    for m, n in pairs:
        assert math.gcd(m, n) == 1
        assert n % 2 == 1 and 10**3 <= n <= 10**6
        assert 1 <= m < n


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solve_inputs_are_coprime_boards_in_range(seed):
    puzzles = workloads.solve_inputs(seed, 0)
    assert len(puzzles) == workloads.SOLVE_BATCH
    for p in puzzles:
        m, n = p.board.rows + 1, p.board.cols + 1
        assert math.gcd(m, n) == 1
        assert 40 <= m <= 200 and 40 <= n <= 200


def test_own_solution_check_matches_the_library_on_a_small_board():
    board = checkers.Board(rows=4, cols=6)
    puzzle = checkers.bottom_row_puzzle(board)
    solution = checkers.solve(puzzle)
    assert workloads.pebbles_lit_by(4, 6, solution.squares) == puzzle.squares
    assert workloads.pebbles_lit_by(4, 6, solution.squares | {(1, 0)}) is None  # light square


def _flip_every_other(real):
    calls = []

    def stub(m, n):
        calls.append((m, n))
        ev = real(m, n)
        if len(calls) % 2:
            return SymbolEvidence(value=-ev.value, negative_bounce_count=0, base_bounces=())
        return ev

    return stub


def test_wrong_symbols_are_counted_in_error_rate(monkeypatch):
    pairs = workloads.symbol_inputs(5, 0, count=10, log10_n=(1.0, 2.0))
    monkeypatch.setattr(symbols, "billiard_symbol", _flip_every_other(symbols.billiard_symbol))
    rnd = workloads.run_symbol_round(pairs)
    assert (len(rnd.op_s), rnd.failed) == (10, 5)
    assert run.context("symbol_queries", 5, 0, [rnd])["error_rate"] == 0.5


def test_raising_and_wrong_solutions_are_counted(monkeypatch):
    puzzles = workloads.solve_inputs(5, 0, count=8, sides=(5, 12))
    real = checkers.solve
    calls = []

    def stub(p):
        calls.append(p)
        if len(calls) == 1:
            raise RuntimeError("injected")
        solution = real(p)
        if len(calls) == 2:
            return checkers.CheckerSet(p.board, frozenset(sorted(solution.squares)[1:]))
        return solution

    monkeypatch.setattr(checkers, "solve", stub)
    rnd = workloads.run_solve_round(puzzles)
    assert (len(rnd.op_s), rnd.failed) == (8, 2)


def test_verify_ops_are_family_sweeps_and_fail_with_their_family(monkeypatch):
    from quadres import sweeps

    real = sweeps.run_family

    def stub(name, **kwargs):
        res = real(name, **kwargs)
        if name == "tilings":
            return sweeps.FamilyResult(name=name, checked=res.checked, failures=({"injected": True},))
        return res

    rnd = workloads.run_verify_round(["supplements", "tilings"])
    assert (len(rnd.op_s), rnd.failed) == (2, 0)
    assert rnd.op_checks == [rnd.families[f]["checked"] for f in ("supplements", "tilings")]
    monkeypatch.setattr(sweeps, "run_family", stub)
    rnd = workloads.run_verify_round(["supplements", "tilings"])
    assert (len(rnd.op_s), rnd.failed) == (2, 1)
    assert rnd.families["tilings"]["failure_count"] == 1


def test_percentile_weights_each_check():
    assert run.percentile([(v, 1) for v in range(1, 11)], 0.5) == 5
    assert run.percentile([(v, 1) for v in range(1, 11)], 0.9) == 9
    assert run.percentile([(2.0, 3), (1.0, 1)], 0.5) == 2.0


def test_gauge_samples_the_kernel_at_most_every_interval(monkeypatch):
    monkeypatch.setattr(workloads, "REF_INTERVAL_S", 60.0)
    rnd = workloads.Round()
    rnd.gauge()
    rnd.gauge()
    assert len(rnd.ref_s) == 1
    monkeypatch.setattr(workloads, "REF_INTERVAL_S", 0.0)
    rnd.gauge()
    assert len(rnd.ref_s) == 2 and rnd.ref_unit_s > 0


def test_a_uniformly_slower_round_costs_the_same(monkeypatch):
    def fake_round(slow, wrap=None):
        return workloads.Round(op_s=[0.001 * slow, 0.003 * slow], op_checks=[1, 1], ref_s=[0.0005 * slow])

    monkeypatch.setattr(workloads, "WORKLOADS", {"fake": (lambda seed, r: 1 + r % 2, fake_round)})
    monkeypatch.setattr(run, "import_seconds", lambda: 0.05)
    monkeypatch.setattr(run, "rounds_within", lambda seconds: range(4))
    metrics, raw, rounds = run.measure("fake", 1, 1.0)
    assert len(rounds) == 4
    assert metrics["wall_ref"] == (pytest.approx(8.0), "ref")
    assert metrics["checks_per_ref"] == (pytest.approx(0.25), "1/ref")
    assert metrics["op_p50_ref"] == (pytest.approx(2.0), "ref")
    assert metrics["op_p90_ref"] == (pytest.approx(6.0), "ref")
    assert raw["wall_s"] == (pytest.approx(0.006), "s")


def test_unstubbed_rounds_pass():
    assert workloads.run_symbol_round(workloads.symbol_inputs(3, 0, count=20, log10_n=(1.0, 3.0))).failed == 0
    assert workloads.run_solve_round(workloads.solve_inputs(3, 0, count=8, sides=(5, 20))).failed == 0


def test_span_self_times_sum_to_traced_wall():
    puzzles = workloads.solve_inputs(4, 0, count=8, sides=(5, 20))
    original = checkers.solve
    spans = tracer.Tracer()
    with tracer.installed(spans):
        assert checkers.solve is not original
        rnd = workloads.run_solve_round(puzzles, wrap=lambda call: spans.wrap("bench.op", call))
    assert checkers.solve is original
    assert rnd.failed == 0
    names = {s[tracer.NAME] for s in spans.spans}
    assert {"bench.op", "checkers.solve", "checkers.light_chase", "billiards.crossings"} <= names
    roots = [s for s in spans.spans if s[tracer.PARENT] < 0]
    assert len(roots) == len(puzzles) and all(s[tracer.NAME] == "bench.op" for s in roots)
    assert all(own >= -1e-9 for own in spans.self_times())
    assert sum(spans.self_times()) == pytest.approx(spans.wall_s(), rel=1e-9, abs=1e-9)


def test_tracer_reaches_functions_through_every_binding():
    from quadres import sweeps

    spans = tracer.Tracer()
    with tracer.installed(spans):
        sweeps.run_family("checkers_symbol", max_m=5, max_n=5)
    summary = spans.summary()
    for name in ("sweeps.run_family", "checkers.bottom_row_symbol", "billiards.trace_path",
                 "billiards.crossings", "symbols.billiard_symbol"):
        assert summary[name]["calls"] >= 1, name
    assert summary["billiards.trace_path"]["bounces"] > 0


def test_metric_names_match_benchmark_json(monkeypatch, capsys, tmp_path):
    small = {
        "symbol_queries": (lambda seed, r: workloads.symbol_inputs(seed, r, count=20, log10_n=(1.0, 3.0)),
                           workloads.run_symbol_round),
    }
    monkeypatch.setattr(workloads, "WORKLOADS", small)
    monkeypatch.setattr(run, "SETUP_PER_ROUND", 1)
    monkeypatch.setattr(run, "IMPORT_RUNS", 1)
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "symbol_queries", "--seed", "1", "--seconds", "0.01", "--trace", str(trace)]
        assert run.main(argv) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
        assert {(k, v["unit"]) for k, v in result["metrics"].items()} == {(m["name"], m["unit"]) for m in SPEC[section]}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_default", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
