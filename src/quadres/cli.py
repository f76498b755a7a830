"""Command-line surface: trace, symbol, solve, verify, render.

Exit codes are a stable contract: 0 success, 1 mathematical disagreement
or failed check, 2 usage error.  With --json every command emits one
top-level object with fields `command`, `inputs` (m, n, flags), `result`,
and `checks` (a list of {name, status, witness}).  Each command computes
its result and its text lines once and hands both to `_finish`.
"""

from __future__ import annotations

import json
import math
import os

import click

from . import __version__
from .billiards import base_bounces, trace_path
from .checkers import (
    Board,
    PebbleSet,
    PuzzleNotUniquelySolvable,
    bottom_row_puzzle,
    kernel_element,
    left_column_puzzle,
    solve,
)
from .oracles import euler_symbol, is_odd_prime, jacobi_symbol, zolotarev_perm_sign
from .render import render_board_ascii, render_board_svg, render_path_svg
from .sweeps import FAMILIES, run_family
from .symbols import billiard_symbol, negative_bounce_count

DEFAULT_MAX_CELLS = 500 * 500

_PUZZLES = {
    "bottom-row": bottom_row_puzzle,
    "left-column": left_column_puzzle,
    "both": lambda board: bottom_row_puzzle(board) ^ left_column_puzzle(board),
}


def _max_cells() -> int:
    raw = os.environ.get("QUADRES_MAX_CELLS")
    try:
        limit = DEFAULT_MAX_CELLS if raw is None else int(raw)
    except ValueError:
        limit = 0  # refused below, with the same message as a nonpositive limit
    if limit < 1:
        raise click.UsageError(f"QUADRES_MAX_CELLS must be a positive integer, got {raw!r}")
    return limit


def _check_size(estimate: int, what: str) -> None:
    """Refuse a run whose work estimate passes the limit; `what` names the estimate and its unit."""
    if estimate > (limit := _max_cells()):
        raise click.UsageError(f"{what} exceeds the safety limit of {limit} (override with QUADRES_MAX_CELLS)")


def _check_path(m: int, n: int) -> None:
    """Refuse a path whose bounces, at most m + n - 2, cost more than the limit: 4 work units per side unit."""
    _check_size(4 * (m + n), f"{m}x{n} ({4 * (m + n)} work units for at most {m + n - 2} bounces)")


def _positive(_ctx, param, value):
    if value is not None and value < 1:
        raise click.BadParameter(f"{param.name} must be >= 1")
    return value


def _sides(command):
    """The M and N arguments every board command takes."""
    command = click.argument("n", type=int, callback=_positive)(command)
    return click.argument("m", type=int, callback=_positive)(command)


def _output(json_help: str = "Emit machine-readable JSON.", out_help: str = "Write output to FILE."):
    """The --json and --out options every command takes."""
    def decorate(command):
        command = click.option("--out", type=click.Path(dir_okay=False), default=None, help=out_help)(command)
        return click.option("--json", "as_json", is_flag=True, help=json_help)(command)
    return decorate


def _write(out: str, text: str, mode: str = "w") -> None:
    try:
        with open(out, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a missing or unwritable directory is a usage error, not a disagreement
        raise click.UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from exc


def _finish(command: str, m: int | None, n: int | None, flags: dict, result: dict, checks: list[dict],
            lines: list[str], as_json: bool, out: str | None, failed: bool = False) -> None:
    """Write the JSON envelope or the text lines to stdout or --out, then exit 1 if a check failed."""
    if as_json:
        envelope = {"command": command, "inputs": {"m": m, "n": n, "flags": flags},
                    "result": result, "checks": checks}
        text = json.dumps(envelope, indent=2)
    else:
        text = "\n".join(lines)
    if out:
        _write(out, text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)
    if failed:
        click.get_current_context().exit(1)


def _signed(value: int) -> str:
    return f"{value:+d}" if value else "0"


def _squares(squares) -> str:
    return " ".join(f"({c},{r})" for c, r in squares)


@click.group()
@click.version_option(version=__version__, prog_name="quadres")
def main() -> None:
    """Quadratic-residue symbols via billiards, checkers, and number theory."""


@main.command()
@_sides
@_output()
def trace(m: int, n: int, as_json: bool, out: str | None) -> None:
    """Trace the M x N billiard path and list its bounces."""
    _check_path(m, n)
    path = trace_path(m, n)
    result = {
        "bounces": [{"t": b.t, "x": b.x, "y": b.y, "wall": b.wall.value, "sign": b.sign} for b in path.bounces],
        "base_bounces": [list(bounce) for bounce in base_bounces(m, n)],
        "end": list(path.end),
        "length": path.length,
    }
    lines = [f"{'t':>6} {'x':>5} {'y':>5} {'wall':>7} {'sign':>5}"] if path.bounces else ["no bounces"]
    for b in path.bounces:
        lines.append(f"{b.t:>6} {b.x:>5} {b.y:>5} {b.wall.value:>7} {'+' if b.sign > 0 else '-':>5}")
    lines.append(f"end ({path.end[0]}, {path.end[1]}) at t={path.length}")
    _finish("trace", m, n, {"json": True}, result, [], lines, as_json, out)


@main.command()
@_sides
@click.option("--verify", "do_verify", is_flag=True,
              help="Cross-check against the Euler, Jacobi, and permutation-sign oracles.")
@_output()
def symbol(m: int, n: int, do_verify: bool, as_json: bool, out: str | None) -> None:
    """Compute the billiards symbol (M|N).

    For N over the size limit the bounce list is omitted and the value and
    negative-bounce count come from floor sums.  --verify counts the oracles'
    work against the limit: factoring N takes up to about sqrt(N) trial divisions, 32 to a work unit.
    """
    if do_verify:
        _check_size(units := 1 + math.isqrt(n) // 32, f"--verify on n={n} ({units} work units)")
    limit = _max_cells()
    listed = n <= limit  # the bounce list grows with n alone
    value, negatives = billiard_symbol(m, n).value, negative_bounce_count(m, n)
    bounces = [[x, s] for x, s, _ in base_bounces(m, n)] if listed and value else []  # none listed at gcd > 1
    oracle_values: dict[str, int] = {}
    if do_verify:
        try:
            prime = is_odd_prime(n)
        except ValueError as exc:  # primality is proven exact only below 3.3e24
            raise click.UsageError(str(exc)) from exc
        if prime:
            oracle_values["euler"] = euler_symbol(m, n)
        if n % 2 == 1:
            oracle_values["jacobi"] = jacobi_symbol(m, n)
        if math.gcd(m, n) == 1:
            oracle_values["zolotarev"] = zolotarev_perm_sign(m, n)
    checks = [{"name": name, "status": "pass" if oracle == value else "fail",
               "witness": {"billiard": value, name: oracle}} for name, oracle in oracle_values.items()]
    failed = any(c["status"] == "fail" for c in checks)

    result = {"value": value, "negative_bounces": negatives, "base_bounces": bounces}
    if not listed:
        result["base_bounces_omitted"] = True
    lines = [f"({m}|{n}) = {_signed(value)}"]
    if value and not listed:
        lines.append(f"negative bounces: {negatives} (bounce list omitted: n={n} exceeds the limit of {limit} on n)")
    elif value:
        lines.append(f"base-bounce signs: {' '.join('+' if s > 0 else '-' for _, s in bounces) or '(no bounces)'}")
    lines += [f"{c['name']}: {_signed(c['witness'][c['name']])} [{c['status']}]" for c in checks]
    if do_verify:
        lines.append("verdict: DISAGREEMENT" if failed else "verdict: OK")
    _finish("symbol", m, n, {"verify": do_verify, "json": True}, result, checks, lines, as_json, out, failed=failed)


@main.command(name="solve")
@_sides
@click.option("--bottom-row", "puzzle_kind", flag_value="bottom-row",
              help="Pebbles on every light square of the bottom row.")
@click.option("--left-column", "puzzle_kind", flag_value="left-column",
              help="Pebbles on every light square of the leftmost column.")
@click.option("--both", "puzzle_kind", flag_value="both",
              help="Bottom row and leftmost column together.")
@click.option("--kernel", "puzzle_kind", flag_value="kernel",
              help="A nonzero checker set solving the empty puzzle (gcd > 1 boards).")
@click.option("--pebble", "pebble_args", type=(int, int), multiple=True, metavar="COL ROW",
              help="Pebble at 0-based (COL, ROW); repeatable.")
@click.option("--render", "render_mode", type=click.Choice(["ascii", "svg"]), default=None,
              help="Attach a rendering of the solved board.")
@_output()
def solve_cmd(m: int, n: int, puzzle_kind: str | None, pebble_args, render_mode,
              as_json: bool, out: str | None) -> None:
    """Solve a parity-checkers puzzle on the (M-1) x (N-1) board."""
    _check_size(m * n, f"{m}x{n} ({m * n} cells)")
    if pebble_args and puzzle_kind:
        raise click.UsageError("--pebble cannot be combined with another puzzle kind")
    if not pebble_args and not puzzle_kind:
        raise click.UsageError("choose a puzzle: --bottom-row, --left-column, --both, --pebble COL ROW, or --kernel")
    board = Board(rows=m - 1, cols=n - 1)
    kind = puzzle_kind or "pebble"
    flags = {"puzzle": kind, "json": as_json}
    if kind == "pebble":
        flags["pebbles"] = [list(p) for p in pebble_args]
    if render_mode:
        flags["render"] = render_mode

    error = witness = None
    if kind == "kernel" and math.gcd(m, n) == 1:
        error = f"gcd({m}, {n}) = 1: only the empty checker set solves the empty puzzle"
    elif kind == "kernel":
        result_set, pebble_set = kernel_element(m, n), PebbleSet(board, frozenset())
    else:
        try:
            pebble_set = (_PUZZLES[kind](board) if kind in _PUZZLES
                          else PebbleSet(board, frozenset(tuple(p) for p in pebble_args)))
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        try:
            result_set = solve(pebble_set)
        except PuzzleNotUniquelySolvable:
            error, witness = f"gcd({m}, {n}) > 1: no unique solution", sorted(kernel_element(m, n).squares)

    if error:
        result, lines = {"error": error}, [error]
        checks = [{"name": "solvable", "status": "fail",
                   "witness": {"reason": error} if witness is None else {"kernel_element": witness}}]
        if witness is not None:
            lines.append(f"kernel witness: {_squares(witness)}")
    else:
        squares = sorted(result_set.squares)
        value = -1 if len(squares) % 2 else 1
        result = {"checkers": [list(sq) for sq in squares], "count": len(squares), "symbol": value}
        lines = [f"checkers ({len(squares)}): {_squares(squares)}", f"count s = {len(squares)}, (-1)^s = {value:+d}"]
        checks = []
        if render_mode:
            renderer = render_board_ascii if render_mode == "ascii" else render_board_svg
            result["render"] = renderer(board, pebble_set, result_set)
            lines.append(result["render"])
    _finish("solve", m, n, flags, result, checks, lines, as_json, out, failed=bool(error))


@main.command()
@click.option("--max-n", type=int, default=None, callback=_positive,
              help="Sweep bound for n (per family default if omitted).")
@click.option("--max-m", type=int, default=None, callback=_positive,
              help="Sweep bound for m (defaults to --max-n when only that is given).")
@click.option("--checks", "check_names", default=None,
              help="Comma-separated family names (default: all). Known: " + ", ".join(FAMILIES))
@click.option("--parallelism", type=int, default=1, callback=_positive,
              help="Worker processes for partitioning sweep cells.")
@_output()
def verify(max_n: int | None, max_m: int | None, check_names: str | None,
           parallelism: int, as_json: bool, out: str | None) -> None:
    """Run identity-check sweeps across all modules."""
    max_m = max_n if max_m is None else max_m
    names = list(FAMILIES)
    if check_names is not None:
        names = list(dict.fromkeys(c.strip() for c in check_names.split(",") if c.strip()))  # repeats run once
        if unknown := [c for c in names if c not in FAMILIES]:
            raise click.UsageError(f"unknown check families: {', '.join(unknown)}")
        if not names:
            raise click.UsageError(f"--checks {check_names!r} names no family; known: {', '.join(FAMILIES)}")
    reproduce = {}  # the command that reruns one family alone at the bounds it ran with
    for name in names:
        family = FAMILIES[name]
        grid_m, grid_n = family.bounds(max_m, max_n)
        work = family.work(grid_m, grid_n, _max_cells())  # stops counting once past the limit: a lower bound then
        _check_size(work, f"{name} sweep grid {grid_m}x{grid_n} (at least {work} work units)")
        reproduce[name] = f"quadres verify --checks {name} --max-m {grid_m} --max-n {grid_n}"
    if out:
        _write(out, "", "a")  # fail on an unwritable target before any family runs

    streamed = not as_json and out is None  # each family's line prints as that family finishes
    checks, lines = [], []
    for name in names:
        res = run_family(name, max_m=max_m, max_n=max_n, parallelism=parallelism)
        checks.append({"name": name, "status": "pass" if res.ok else "fail",
                       "witness": {"cells": res.cells, "checked": res.checked, "failures": list(res.failures)[:20],
                                   "failure_count": len(res.failures), "elapsed_s": res.elapsed_s,
                                   "checks_per_s": res.checks_per_s, "reproduce": reproduce[name]}})
        line = (f"{name:<20} cells {res.cells:>6}  checked {res.checked:>7}  failures {len(res.failures):>4}  "
                f"{res.elapsed_s * 1e3:8.1f} ms  {res.checks_per_s:>9.0f} checks/s  [{'PASS' if res.ok else 'FAIL'}]")
        if streamed:
            click.echo(line)
        else:
            lines.append(line)
    all_ok = all(c["status"] == "pass" for c in checks)
    lines.append("all checks passed" if all_ok else "CHECKS FAILED")
    flags = {"checks": names, "parallelism": parallelism, "json": True}
    _finish("verify", max_m, max_n, flags, {"families": len(checks), "all_ok": all_ok}, checks, lines,
            as_json, out, failed=not all_ok)


@main.command(name="render")
@_sides
@click.option("--split-k", type=int, default=None, callback=_positive,
              help="Split the path colors at the bottom bounce at (2k, 0).")
@click.option("--cell-px", type=int, default=24, help="Pixels per unit square (>= 4).")
@click.option("--grid/--no-grid", default=True, help="Draw the unit grid.")
@click.option("--signs/--no-signs", default=True, help="Annotate bottom bounces with +/-.")
@click.option("--color-before", default="steelblue", show_default=True,
              help="Stroke color before the split (or the whole path).")
@click.option("--color-after", default="darkorange", show_default=True,
              help="Stroke color after the split.")
@_output("Wrap the SVG in the JSON envelope.", "Write to FILE (.svg appended if missing).")
def render_cmd(m: int, n: int, split_k: int | None, cell_px: int, grid: bool, signs: bool,
               color_before: str, color_after: str, as_json: bool, out: str | None) -> None:
    """Render the M x N billiard path as SVG."""
    _check_path(m, n)
    try:
        svg = render_path_svg(trace_path(m, n), split_k, cell_px=cell_px, show_grid=grid,
                              color_before=color_before, color_after=color_after, annotate_signs=signs)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if out and not as_json and not out.endswith(".svg"):
        out += ".svg"
    flags = {"split_k": split_k, "cell_px": cell_px, "json": True}
    _finish("render", m, n, flags, {"svg": svg}, [], [svg], as_json, out)


if __name__ == "__main__":
    main()
