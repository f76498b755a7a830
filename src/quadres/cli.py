"""Command-line surface: trace, symbol, solve, verify, render.

Exit codes are a stable contract: 0 success, 1 mathematical disagreement
or failed check, 2 usage error.  With --json every command emits one
top-level object with fields `command`, `inputs` (m, n, flags), `result`,
and `checks` (a list of {name, status, witness}).
"""

from __future__ import annotations

import json
import math
import os

import click

from . import __version__
from .billiards import Rect, base_bounces, trace_path
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
from .render import RenderSpec, render_board_ascii, render_board_svg, render_path_svg
from .sweeps import FAMILIES, run_family
from .symbols import SymbolEvidence, billiard_symbol, bounce_evidence, negative_bounce_count

DEFAULT_MAX_CELLS = 500 * 500


def _max_cells() -> int:
    raw = os.environ.get("QUADRES_MAX_CELLS")
    try:
        return DEFAULT_MAX_CELLS if raw is None else int(raw)
    except ValueError as exc:
        raise click.UsageError(f"QUADRES_MAX_CELLS must be an integer, got {raw!r}") from exc


def _check_size(cells: int, what: str) -> None:
    limit = _max_cells()
    if cells > limit:
        raise click.UsageError(
            f"{what} exceeds the safety limit of {limit} cells "
            "(override with QUADRES_MAX_CELLS)"
        )


def _positive(_ctx, param, value):
    if value is not None and value < 1:
        raise click.BadParameter(f"{param.name} must be >= 1")
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:  # a missing or unwritable directory is a usage error, not a disagreement
            raise click.UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    else:
        click.echo(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2), out)


def _envelope(command: str, m: int | None, n: int | None, flags: dict,
              result: dict, checks: list[dict]) -> dict:
    return {
        "command": command,
        "inputs": {"m": m, "n": n, "flags": flags},
        "result": result,
        "checks": checks,
    }


@click.group()
@click.version_option(version=__version__, prog_name="quadres")
def main() -> None:
    """Quadratic-residue symbols via billiards, checkers, and number theory."""


@main.command()
@click.argument("m", type=int, callback=_positive)
@click.argument("n", type=int, callback=_positive)
@click.option("--json", "as_json", is_flag=True, help="Emit machine-readable JSON.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write output to FILE.")
def trace(m: int, n: int, as_json: bool, out: str | None) -> None:
    """Trace the M x N billiard path and list its bounces."""
    _check_size(m * n, f"{m}x{n}")
    path = trace_path(Rect(m=m, n=n))
    if as_json:
        result = {
            "bounces": [{"t": b.t, "x": b.x, "y": b.y, "wall": b.wall.value, "sign": b.sign} for b in path.bounces],
            "base_bounces": [[x, s, t] for x, s, t in base_bounces(path)],
            "end": list(path.end),
            "length": path.length,
        }
        _emit_json(_envelope("trace", m, n, {"json": True}, result, []), out)
        return
    lines = []
    if path.bounces:
        lines.append(f"{'t':>6} {'x':>5} {'y':>5} {'wall':>7} {'sign':>5}")
        for b in path.bounces:
            lines.append(f"{b.t:>6} {b.x:>5} {b.y:>5} {b.wall.value:>7} {'+' if b.sign > 0 else '-':>5}")
    else:
        lines.append("no bounces")
    lines.append(f"end ({path.end[0]}, {path.end[1]}) at t={path.length}")
    _emit("\n".join(lines), out)


@main.command()
@click.argument("m", type=int, callback=_positive)
@click.argument("n", type=int, callback=_positive)
@click.option("--verify", "do_verify", is_flag=True,
              help="Cross-check against the Euler, Jacobi, and permutation-sign oracles.")
@click.option("--json", "as_json", is_flag=True, help="Emit machine-readable JSON.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write output to FILE.")
@click.pass_context
def symbol(ctx, m: int, n: int, do_verify: bool, as_json: bool, out: str | None) -> None:
    """Compute the billiards symbol (M|N).

    For N over the size limit the bounce list is omitted and the value and
    negative-bounce count come from floor sums; --verify keeps the limit.
    """
    if do_verify:
        _check_size(n, f"n={n}")  # the permutation sign takes up to n steps for prime n
    limit = _max_cells()
    listed = n <= limit  # the bounce list grows with n alone
    ev = (bounce_evidence(m, n) if listed
          else SymbolEvidence(billiard_symbol(m, n).value, negative_bounce_count(m, n), ()))
    checks: list[dict] = []
    if do_verify:
        oracle_values: dict[str, int] = {}
        if is_odd_prime(n):
            oracle_values["euler"] = euler_symbol(m, n)
        if n % 2 == 1:
            oracle_values["jacobi"] = jacobi_symbol(m, n)
        if math.gcd(m, n) == 1:
            oracle_values["zolotarev"] = zolotarev_perm_sign(m, n)
        for name, value in oracle_values.items():
            checks.append({
                "name": name,
                "status": "pass" if value == ev.value else "fail",
                "witness": {"billiard": ev.value, name: value},
            })
    failed = [c for c in checks if c["status"] == "fail"]

    if as_json:
        result = {
            "value": ev.value,
            "negative_bounces": ev.negative_bounce_count,
            "base_bounces": [[x, s] for x, s in ev.base_bounces],
        }
        if not listed:
            result["base_bounces_omitted"] = True
        _emit_json(_envelope("symbol", m, n, {"verify": do_verify, "json": True}, result, checks), out)
    else:
        lines = [f"({m}|{n}) = {ev.value:+d}" if ev.value else f"({m}|{n}) = 0"]
        if ev.value and not listed:
            lines.append(f"negative bounces: {ev.negative_bounce_count} "
                         f"(bounce list omitted: n={n} exceeds the limit of {limit} cells)")
        elif ev.value:
            signs = " ".join("+" if s > 0 else "-" for _, s in ev.base_bounces) or "(no bounces)"
            lines.append(f"base-bounce signs: {signs}")
        for c in checks:
            name = c["name"]
            value = c["witness"][name]
            lines.append(f"{name}: {value:+d} [{c['status']}]" if value else f"{name}: 0 [{c['status']}]")
        if do_verify:
            lines.append("verdict: OK" if not failed else "verdict: DISAGREEMENT")
        _emit("\n".join(lines), out)
    if failed:
        ctx.exit(1)


@main.command(name="solve")
@click.argument("m", type=int, callback=_positive)
@click.argument("n", type=int, callback=_positive)
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
@click.option("--json", "as_json", is_flag=True, help="Emit machine-readable JSON.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write output to FILE.")
@click.pass_context
def solve_cmd(ctx, m: int, n: int, puzzle_kind: str | None, pebble_args, render_mode,
              as_json: bool, out: str | None) -> None:
    """Solve a parity-checkers puzzle on the (M-1) x (N-1) board."""
    _check_size(m * n, f"{m}x{n}")
    if pebble_args and puzzle_kind:
        raise click.UsageError("--pebble cannot be combined with another puzzle kind")
    if not pebble_args and not puzzle_kind:
        raise click.UsageError(
            "choose a puzzle: --bottom-row, --left-column, --both, --pebble COL ROW, or --kernel"
        )
    board = Board(rows=m - 1, cols=n - 1)
    kind = puzzle_kind or "pebble"
    flags = {"puzzle": kind, "json": as_json}
    if kind == "pebble":
        flags["pebbles"] = [list(p) for p in pebble_args]
    if render_mode:
        flags["render"] = render_mode

    if kind == "kernel":
        if math.gcd(m, n) == 1:
            _report_failure(ctx, as_json, out, "solve", m, n, flags,
                            f"gcd({m}, {n}) = 1: only the empty checker set solves the empty puzzle")
            return
        result_set = kernel_element(m, n)
        pebble_set = PebbleSet(board, frozenset())
    else:
        if kind == "bottom-row":
            pebble_set = bottom_row_puzzle(board)
        elif kind == "left-column":
            pebble_set = left_column_puzzle(board)
        elif kind == "both":
            pebble_set = bottom_row_puzzle(board) ^ left_column_puzzle(board)
        else:
            try:
                pebble_set = PebbleSet(board, frozenset(tuple(p) for p in pebble_args))
            except ValueError as exc:
                raise click.UsageError(str(exc)) from exc
        try:
            result_set = solve(pebble_set)
        except PuzzleNotUniquelySolvable:
            witness = kernel_element(m, n)
            _report_failure(
                ctx, as_json, out, "solve", m, n, flags,
                f"gcd({m}, {n}) > 1: no unique solution",
                witness={"kernel_element": sorted(witness.squares)},
            )
            return

    count = len(result_set.squares)
    value = -1 if count % 2 else 1
    renderers = {"ascii": render_board_ascii, "svg": render_board_svg}
    rendering = renderers[render_mode](board, pebble_set, result_set) if render_mode else None

    if as_json:
        result = {"checkers": [list(sq) for sq in sorted(result_set.squares)], "count": count, "symbol": value}
        if rendering is not None:
            result["render"] = rendering
        _emit_json(_envelope("solve", m, n, flags, result, []), out)
    else:
        lines = [
            f"checkers ({count}): " + " ".join(f"({c},{r})" for c, r in sorted(result_set.squares)),
            f"count s = {count}, (-1)^s = {value:+d}",
        ]
        if rendering is not None:
            lines.append(rendering)
        _emit("\n".join(lines), out)


def _report_failure(ctx, as_json: bool, out: str | None, command: str, m: int, n: int,
                    flags: dict, message: str, witness: dict | None = None) -> None:
    if as_json:
        checks = [{"name": "solvable", "status": "fail", "witness": witness or {"reason": message}}]
        _emit_json(_envelope(command, m, n, flags, {"error": message}, checks), out)
    else:
        lines = [message]
        if witness and "kernel_element" in witness:
            squares = " ".join(f"({c},{r})" for c, r in witness["kernel_element"])
            lines.append(f"kernel witness: {squares}")
        _emit("\n".join(lines), out)
    ctx.exit(1)


@main.command()
@click.option("--max-n", type=int, default=None, callback=_positive,
              help="Sweep bound for n (per family default if omitted).")
@click.option("--max-m", type=int, default=None, callback=_positive,
              help="Sweep bound for m (defaults to --max-n when only that is given).")
@click.option("--checks", "check_names", default=None,
              help="Comma-separated family names (default: all). Known: " + ", ".join(FAMILIES))
@click.option("--parallelism", type=int, default=1, callback=_positive,
              help="Worker processes for partitioning sweep cells.")
@click.option("--json", "as_json", is_flag=True, help="Emit machine-readable JSON.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write output to FILE.")
@click.pass_context
def verify(ctx, max_n: int | None, max_m: int | None, check_names: str | None,
           parallelism: int, as_json: bool, out: str | None) -> None:
    """Run identity-check sweeps across all modules."""
    if max_m is None:
        max_m = max_n
    names = list(FAMILIES)
    if check_names is not None:
        names = list(dict.fromkeys(c.strip() for c in check_names.split(",") if c.strip()))  # repeats run once
        unknown = [c for c in names if c not in FAMILIES]
        if unknown:
            raise click.UsageError(f"unknown check families: {', '.join(unknown)}")
        if not names:
            raise click.UsageError(f"--checks {check_names!r} names no family; known: {', '.join(FAMILIES)}")
    reproduce = {}  # the command that reruns one family alone at the bounds it ran with
    for name in names:
        family = FAMILIES[name]
        grid_m, grid_n = family.bounds(max_m, max_n)
        cost = family.cost(grid_m, grid_n)
        _check_size(cost, f"{name} sweep grid {grid_m}x{grid_n} ({cost} cells of work)")
        reproduce[name] = f"quadres verify --checks {name} --max-m {grid_m} --max-n {grid_n}"

    results = []
    text_lines = []
    for name in names:
        res = run_family(name, max_m=max_m, max_n=max_n, parallelism=parallelism)
        results.append(res)
        status = "PASS" if res.ok else "FAIL"
        line = (f"{name:<20} cells {res.cells:>6}  checked {res.checked:>7}  failures {len(res.failures):>4}  "
                f"{res.elapsed_s * 1e3:8.1f} ms  {res.checks_per_s:>9.0f} checks/s  [{status}]")
        text_lines.append(line)
        if not as_json and out is None:
            click.echo(line)

    all_ok = all(r.ok for r in results)
    if as_json:
        checks = [
            {
                "name": r.name,
                "status": "pass" if r.ok else "fail",
                "witness": {"cells": r.cells, "checked": r.checked, "failures": list(r.failures)[:20],
                            "failure_count": len(r.failures), "elapsed_s": r.elapsed_s,
                            "checks_per_s": r.checks_per_s, "reproduce": reproduce[r.name]},
            }
            for r in results
        ]
        payload = _envelope(
            "verify", max_m, max_n,
            {"checks": names, "parallelism": parallelism, "json": True},
            {"families": len(results), "all_ok": all_ok},
            checks,
        )
        _emit_json(payload, out)
    else:
        summary = "all checks passed" if all_ok else "CHECKS FAILED"
        text_lines.append(summary)
        if out is not None:
            _emit("\n".join(text_lines), out)
        else:
            click.echo(summary)
    if not all_ok:
        ctx.exit(1)


@main.command(name="render")
@click.argument("m", type=int, callback=_positive)
@click.argument("n", type=int, callback=_positive)
@click.option("--split-k", type=int, default=None, callback=_positive,
              help="Split the path colors at the bottom bounce at (2k, 0).")
@click.option("--cell-px", type=int, default=24, help="Pixels per unit square (>= 4).")
@click.option("--grid/--no-grid", default=True, help="Draw the unit grid.")
@click.option("--signs/--no-signs", default=True, help="Annotate bottom bounces with +/-.")
@click.option("--color-before", default="steelblue", show_default=True,
              help="Stroke color before the split (or the whole path).")
@click.option("--color-after", default="darkorange", show_default=True,
              help="Stroke color after the split.")
@click.option("--json", "as_json", is_flag=True, help="Wrap the SVG in the JSON envelope.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write to FILE (.svg appended if missing).")
def render_cmd(m: int, n: int, split_k: int | None, cell_px: int, grid: bool, signs: bool,
               color_before: str, color_after: str, as_json: bool, out: str | None) -> None:
    """Render the M x N billiard path as SVG."""
    _check_size(m * n, f"{m}x{n}")
    try:
        spec = RenderSpec(cell_px=cell_px, show_grid=grid, color_before=color_before,
                          color_after=color_after, annotate_signs=signs)
        svg = render_path_svg(trace_path(Rect(m=m, n=n)), spec, split_k=split_k)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if as_json:
        flags = {"split_k": split_k, "cell_px": cell_px, "json": True}
        _emit_json(_envelope("render", m, n, flags, {"svg": svg}, []), out)
        return
    if out and not out.endswith(".svg"):
        out += ".svg"
    _emit(svg, out)


if __name__ == "__main__":
    main()
