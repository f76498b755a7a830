"""Benchmark for quadres: one closed-loop client driving the library's public API.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify_default --seed 1 --seconds 20 --trace 0

With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
runs each round twice, untraced and then with every layer function wrapped
in a span, and reports per-layer metrics.  Human-readable lines come first;
the last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  See perfbench/README.md for what each metric and
workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"
SETUP_PER_ROUND = 3
IMPORT_RUNS = 5

# The registry at the time the benchmark was defined; BENCHMARK.json names these.
FAMILIES = ("euler", "zolotarev", "jacobi", "supplements", "almost_reciprocity", "mod4",
            "reciprocity", "checkers_symbol", "kernel", "superposition", "tilings")
TRACED = {
    "billiards.trace_path": ("bounces",),
    "billiards.crossings": ("found",),
    "checkers.solve": (),
    "checkers.light_chase": ("cells", "residual_nonempty"),
    "checkers.apply_checkers": (),
    "checkers.neighbor_matrix": (),
    "checkers.bottom_row_symbol": (),
    "symbols.billiard_symbol": ("bounces_walked",),
    "oracles.euler_symbol": (),
    "oracles.jacobi_symbol": (),
    "oracles.zolotarev_perm_sign": (),
    "oracles.is_odd_prime": (),
    "tilings.count_tilings": (),
}
IMPORTED = ("quadres", "quadres.billiards", "quadres.symbols", "quadres.checkers", "quadres.oracles",
            "quadres.tilings", "quadres.render", "quadres.sweeps", "quadres.cli", "click",
            "concurrent.futures")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import quadres.cli."""
    code = "import time; t = time.perf_counter(); import quadres.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def percentile(weighted: list[tuple[float, int]], q: float) -> float:
    """Nearest-rank percentile of (value, weight) pairs: the smallest value
    with at least a share q of the total weight at or below it."""
    ordered = sorted(weighted)
    total = sum(weight for _, weight in ordered)
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= q * total:
            return value
    return ordered[-1][0]


def rounds_within(seconds: float):
    """Round numbers 0, 1, ... while the next round, taking as long as the
    last one did, still ends within `seconds`; always at least one."""
    start = last = time.perf_counter()
    round_no = 0
    while True:
        yield round_no
        round_no += 1
        now = time.perf_counter()
        if now + (now - last) - start > seconds:
            return
        last = now


def measure(workload: str, seed: int, seconds: float):
    """Untraced rounds within `seconds`; returns (metrics, raw, rounds).

    Op i of every round has the same size.  Its time in each round is
    divided by that round's reference unit (see workloads.reference_kernel)
    to give its cost in `ref`: a shared machine slows whole stretches of
    tens of seconds by up to 1.7 times, and the kernel slows with them.
    The op's median cost over the rounds is what `wall` sums and the
    latency percentiles rank.  Latency is per verified check: an op that
    verifies k checks (a verify family) counts as k checks of 1/k its cost
    each.  `raw` holds the same figures from plain times, for reading alone.
    The set-up samples are spread over the run and their median is reported.
    """
    from workloads import WORKLOADS

    make_inputs, run_round = WORKLOADS[workload]
    import_seconds()  # fills the bytecode cache, as an installed package has it
    setup, rounds = [], []
    for round_no in rounds_within(seconds):
        setup += [import_seconds() for _ in range(SETUP_PER_ROUND)]
        rounds.append(run_round(make_inputs(seed, round_no)))
    op_checks = rounds[0].op_checks
    checks = statistics.median(rnd.checks for rnd in rounds)

    def timings(times: list[list[float]]) -> dict:
        """Figures from `times[r][i]`, the time of op i in round r."""
        per_op = [statistics.median(op_times) for op_times in zip(*times)]
        wall = sum(per_op)
        per_check = [(t / k, k) for t, k in zip(per_op, op_checks) if k]
        return {"wall": wall, "checks_per": checks / wall,
                "op_p50": percentile(per_check, 0.50), "op_p90": percentile(per_check, 0.90)}

    in_ref = timings([[t / rnd.ref_unit_s for t in rnd.op_s] for rnd in rounds])
    in_s = timings([rnd.op_s for rnd in rounds])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (in_ref["wall"], "ref"),
        "checks_per_ref": (in_ref["checks_per"], "1/ref"),
        "op_p50_ref": (in_ref["op_p50"], "ref"),
        "op_p90_ref": (in_ref["op_p90"], "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "ref_unit_ms": (statistics.median(rnd.ref_unit_s for rnd in rounds) * 1e3, "ms"),
        "wall_s": (in_s["wall"], "s"),
        "checks_per_s": (in_s["checks_per"], "1/s"),
        "op_p50_ms": (in_s["op_p50"] * 1e3, "ms"),
        "op_p90_ms": (in_s["op_p90"] * 1e3, "ms"),
    }
    return metrics, raw, rounds


def round_layers(spans, plain) -> dict[str, float]:
    """Per-layer values of one pair of rounds: `spans` from the traced one, `plain` untraced."""
    summary, traced_wall = spans.summary(), spans.wall_s()
    out = {}
    for name, counters in TRACED.items():
        agg = summary.get(name, {})
        for key in ("calls", "self_s", *counters):
            out[f"{name}.{key}"] = agg.get(key, 0)
    for layer in tracer.LAYERS:
        own = sum(agg["self_s"] for name, agg in summary.items() if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = own
        out[f"{layer}.self_share"] = own / traced_wall if traced_wall else 0.0
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - plain.wall_s
    for family in FAMILIES:
        stats = plain.families.get(family, {})
        out[f"sweeps.{family}.elapsed_s"] = stats.get("elapsed_s", 0.0)
        out[f"sweeps.{family}.checked"] = stats.get("checked", 0)
    return out


def import_metric(module: str) -> str:
    return f"{module.removeprefix('quadres.')}.import_s"


def measure_layers(workload: str, seed: int, seconds: float):
    """Untraced/traced pairs of rounds within `seconds`; returns (metrics, rounds)."""
    from workloads import WORKLOADS

    make_inputs, run_round = WORKLOADS[workload]
    rounds, per_pair = [], []
    for round_no in rounds_within(seconds):
        inputs = make_inputs(seed, round_no)
        plain = run_round(inputs)
        spans = tracer.Tracer()
        with tracer.installed(spans):
            traced = run_round(inputs, wrap=lambda call: spans.wrap("bench.op", call))
        rounds += [plain, traced]
        if round_no == 0:
            spans.write(SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl.gz")
        per_pair.append(round_layers(spans, plain))
    metrics = {key: statistics.median(pair[key] for pair in per_pair) for key in per_pair[0]}
    imports = tracer.import_times(SRC, IMPORT_RUNS)
    for module in IMPORTED:
        metrics[import_metric(module)] = imports.get(module, 0.0)
    return {key: (value, _unit(key)) for key, value in metrics.items()}, rounds


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    return "ratio" if key.endswith("_share") else "count"


def context(workload: str, seed: int, trace: int, rounds) -> dict:
    """What a result depends on, with the field names `quadres verify --json` uses."""
    attempted = sum(len(rnd.op_s) for rnd in rounds)
    failed = sum(rnd.failed for rnd in rounds)
    ctx = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "rounds": len(rounds),
        "round_wall_s": [rnd.wall_s for rnd in rounds],
        "round_ref_unit_ms": [rnd.ref_unit_s * 1e3 for rnd in rounds],
        "ops": attempted,
        "checked": sum(rnd.checks for rnd in rounds),
        "elapsed_s": sum(rnd.wall_s for rnd in rounds),
        "failure_count": failed,
        "error_rate": failed / attempted,
    }
    families = {}
    for rnd in rounds:
        for name, stats in rnd.families.items():
            fam = families.setdefault(name, {"checked": 0, "elapsed_s": 0.0, "failure_count": 0})
            for key in fam:
                fam[key] += stats[key]
    if families:
        ctx["families"] = families
    return ctx


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_default", "symbol_queries", "solve_boards"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "quadres" / "__init__.py").is_file():
        print(f"error: no quadres package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quadres

    if Path(quadres.__file__).resolve().parent != SRC / "quadres":
        print(f"error: imported quadres from {quadres.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, rounds = measure_layers(args.workload, args.seed, args.seconds)
        raw = {}
    else:
        metrics, raw, rounds = measure(args.workload, args.seed, args.seconds)
    ctx = context(args.workload, args.seed, args.trace, rounds)
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>14.6f} {unit}")
    for name, (value, unit) in raw.items():
        print(f"{name:<36} {value:>14.6f} {unit}  (not normalised, for reading only)")
    print(f"{'error_rate':<36} {ctx['error_rate']:>14.6f} ratio")
    print("context " + json.dumps(ctx))
    print(json.dumps({
        "correct": ctx["failure_count"] == 0,
        "attempted": ctx["ops"],
        "failed": ctx["failure_count"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
