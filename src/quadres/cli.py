"""Command-line surface: trace, symbol, solve, verify, render, parsed by argparse.

Exit codes are a stable contract: 0 success, 1 mathematical disagreement or failed check, 2 usage error.
With --json every command emits one top-level object with fields `command`, `inputs` (m, n, flags),
`result`, and `checks` (a list of {name, status, witness}).  Each command computes its result and its
text lines once and hands both to `_finish`.
"""

import argparse
import math
import os
import sys

from . import __version__

DEFAULT_MAX_CELLS = 500 * 500


class UsageError(Exception):
    """A command refuses its arguments after parsing: `main` prints `Error: <message>` and returns 2."""


class _Parser(argparse.ArgumentParser):
    """No abbreviated options, `--help` alone, and a refused command line prints its usage and `Error: ...`, exit 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="show this help message and exit")

    def error(self, message):
        self.exit(2, f"{self.format_usage()}Error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):  # a command's leftovers are refused with its own usage
        namespace, extras = super().parse_known_args(args, namespace)
        return self.error(f"unrecognized arguments: {' '.join(extras)}") if extras else (namespace, extras)


def _max_cells() -> int:
    raw = os.environ.get("QUADRES_MAX_CELLS")
    try:
        limit = DEFAULT_MAX_CELLS if raw is None else int(raw)
    except ValueError:
        limit = 0  # refused below, with the same message as a nonpositive limit
    if limit < 1:
        raise UsageError(f"QUADRES_MAX_CELLS must be a positive integer, got {raw!r}")
    return limit


def _check_size(estimate: int, what: str) -> None:
    """Refuse a run whose work estimate passes the limit; `what` names the estimate and its unit."""
    if estimate > (limit := _max_cells()):
        raise UsageError(f"{what} exceeds the safety limit of {limit} (override with QUADRES_MAX_CELLS)")


def _check_path(m: int, n: int) -> None:
    """Refuse a path whose bounces, at most m + n - 2, cost more than the limit: 4 work units per side unit."""
    _check_size(4 * (m + n), f"{m}x{n} ({4 * (m + n)} work units for at most {m + n - 2} bounces)")


def _positive(text: str) -> int:
    """A side or a bound: an integer >= 1.  A negative one is read as a number, since no option looks like one."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _write(out: str, text: str, mode: str = "w") -> None:
    try:
        with open(out, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a missing or unwritable directory is a usage error, not a disagreement
        raise UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from exc


def _finish(command: str, m: int | None, n: int | None, flags: dict, result: dict, checks: list[dict],
            lines: list[str], as_json: bool, out: str | None) -> int:
    """Write the JSON envelope or the text lines to stdout or --out; return 1 if a check failed, else 0."""
    if as_json:
        import json  # only here: text output does not load it
        text = json.dumps({"command": command, "inputs": {"m": m, "n": n, "flags": flags}, "result": result,
                           "checks": checks}, indent=2)
    else:
        text = "\n".join(lines)
    if out:
        _write(out, text if text.endswith("\n") else text + "\n")
    else:
        print(text)
    return int(any(c["status"] == "fail" for c in checks))


def _signed(value: int) -> str:
    return f"{value:+d}" if value else "0"


def _squares(squares) -> str:
    return " ".join(f"({c},{r})" for c, r in squares)


def trace(m: int, n: int, as_json: bool, out: str | None) -> int:
    """Trace the M x N billiard path and list its bounces."""
    from . import billiards
    _check_path(m, n)
    path = billiards.trace_path(m, n)
    result = {"bounces": [{"t": b.t, "x": b.x, "y": b.y, "wall": b.wall.value, "sign": b.sign} for b in path.bounces],
              "base_bounces": [[b.x, b.sign, b.t] for b in path.bounces if b.wall is billiards.Wall.BOTTOM],
              "end": list(path.end), "length": path.length}
    lines = [f"{'t':>6} {'x':>5} {'y':>5} {'wall':>7} {'sign':>5}"] if path.bounces else ["no bounces"]
    lines += [f"{b.t:>6} {b.x:>5} {b.y:>5} {b.wall.value:>7} {'+' if b.sign > 0 else '-':>5}" for b in path.bounces]
    lines.append(f"end ({path.end[0]}, {path.end[1]}) at t={path.length}")
    return _finish("trace", m, n, {"json": True}, result, [], lines, as_json, out)


def symbol(m: int, n: int, do_verify: bool, as_json: bool, out: str | None) -> int:
    """Compute the billiards symbol (M|N).

    For N over the size limit the bounce list is omitted and the value and
    negative-bounce count come from floor sums.  --verify counts the oracles'
    work against the limit: factoring N takes up to about sqrt(N) trial divisions, 32 to a work unit.
    """
    from . import billiards, symbols
    if do_verify:
        _check_size(units := 1 + math.isqrt(n) // 32, f"--verify on n={n} ({units} work units)")
    limit = _max_cells()
    listed = n <= limit  # the bounce list grows with n alone
    value, negatives = symbols._value(m, n), symbols.negative_bounce_count(m, n)
    bounces = [[x, s] for x, s, _ in billiards.base_bounces(m, n)] if listed and value else []  # none listed at gcd > 1
    oracle_values: dict[str, int] = {}
    if do_verify:
        from . import oracles  # only here: the plain symbol needs no oracle
        try:
            prime = oracles.is_odd_prime(n)
        except ValueError as exc:  # primality is proven exact only below 3.3e24
            raise UsageError(str(exc)) from exc
        if prime:  # proven once: the Euler row takes it on trust
            oracle_values["euler"] = oracles.euler_row(n, [m])[0]
        if n % 2 == 1:
            oracle_values["jacobi"] = oracles.jacobi_symbol(m, n)
        if math.gcd(m, n) == 1:
            oracle_values["zolotarev"] = oracles.zolotarev_perm_sign(m, n)
    checks = [{"name": name, "status": "pass" if oracle == value else "fail",
               "witness": {"billiard": value, name: oracle}} for name, oracle in oracle_values.items()]
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
        lines.append("verdict: DISAGREEMENT" if any(c["status"] == "fail" for c in checks) else "verdict: OK")
    return _finish("symbol", m, n, {"verify": do_verify, "json": True}, result, checks, lines, as_json, out)


def solve_cmd(m: int, n: int, puzzle_kind: str | None, pebble_args, render_mode, as_json: bool, out: str | None) -> int:
    """Solve a parity-checkers puzzle on the (M-1) x (N-1) board."""
    from . import checkers, render
    puzzles = {"bottom-row": checkers.bottom_row_puzzle, "left-column": checkers.left_column_puzzle,
               "both": lambda board: checkers.bottom_row_puzzle(board) ^ checkers.left_column_puzzle(board)}
    _check_size(m * n, f"{m}x{n} ({m * n} cells)")
    if pebble_args and puzzle_kind:
        raise UsageError("--pebble cannot be combined with another puzzle kind")
    if not pebble_args and not puzzle_kind:
        raise UsageError("choose a puzzle: --bottom-row, --left-column, --both, --pebble COL ROW, or --kernel")
    board = checkers.Board(rows=m - 1, cols=n - 1)
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
        result_set, pebble_set = checkers.kernel_element(m, n), checkers.PebbleSet(board, frozenset())
    else:
        try:
            pebble_set = (puzzles[kind](board) if kind in puzzles
                          else checkers.PebbleSet(board, frozenset(tuple(p) for p in pebble_args)))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        try:
            result_set = checkers.solve(pebble_set)
        except checkers.PuzzleNotUniquelySolvable:
            error, witness = f"gcd({m}, {n}) > 1: no unique solution", sorted(checkers.kernel_element(m, n).squares)

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
            renderer = render.render_board_ascii if render_mode == "ascii" else render.render_board_svg
            result["render"] = renderer(board, pebble_set, result_set)
            lines.append(result["render"])
    return _finish("solve", m, n, flags, result, checks, lines, as_json, out)


def verify(max_n: int | None, max_m: int | None, check_names: str | None,
           parallelism: int, as_json: bool, out: str | None) -> int:
    """Run identity-check sweeps across all modules."""
    from . import sweeps
    names = list(sweeps.FAMILIES)
    if check_names is not None:
        names = list(dict.fromkeys(c.strip() for c in check_names.split(",") if c.strip()))  # repeats run once
        if unknown := [c for c in names if c not in sweeps.FAMILIES]:
            raise UsageError(f"unknown check families: {', '.join(unknown)}; known: {', '.join(sweeps.FAMILIES)}")
        if not names:
            raise UsageError(f"--checks {check_names!r} names no family; known: {', '.join(sweeps.FAMILIES)}")
    planned = {}  # each family's work units, and the command that reruns it alone at the bounds it ran with
    for name in names:
        grid_m, grid_n = (family := sweeps.FAMILIES[name]).bounds(max_m, max_n)
        work = family.work(grid_m, grid_n, _max_cells())  # stops counting once past the limit: a lower bound then
        _check_size(work, f"{name} sweep grid {grid_m}x{grid_n} (at least {work} work units)")
        planned[name] = work, f"quadres verify --checks {name} --max-m {grid_m} --max-n {grid_n}"
    if out:
        _write(out, "", "a")  # fail on an unwritable target before any family runs

    streamed = not as_json and out is None  # each family's line prints as that family finishes
    checks, lines = [], []
    for res in sweeps.run_families(names, max_m, max_n, parallelism):
        work, reproduce = planned[res.name]
        checks.append({"name": res.name, "status": "pass" if res.ok else "fail",
                       "witness": {"cells": res.cells, "checked": res.checked, "failures": list(res.failures)[:20],
                                   "failure_count": len(res.failures), "work_units": work, "elapsed_s": res.elapsed_s,
                                   "checks_per_s": res.checks_per_s, "reproduce": reproduce}})
        line = (f"{res.name:<20} cells {res.cells:>6}  checked {res.checked:>7}  failures {len(res.failures):>4}  "
                f"units {work:>7}  {res.elapsed_s * 1e3:8.1f} ms  {res.checks_per_s:>9.0f} checks/s  "
                f"[{'PASS' if res.ok else 'FAIL'}]")
        if streamed:
            print(line, flush=True)
        else:
            lines.append(line)
    all_ok = all(c["status"] == "pass" for c in checks)
    lines.append("all checks passed" if all_ok else "CHECKS FAILED")
    return _finish("verify", max_m, max_n, {"checks": names, "parallelism": parallelism, "json": True},
                   {"families": len(checks), "all_ok": all_ok}, checks, lines, as_json, out)


def render_cmd(m: int, n: int, split_k: int | None, cell_px: int, grid: bool, signs: bool,
               color_before: str, color_after: str, as_json: bool, out: str | None) -> int:
    """Render the M x N billiard path as SVG."""
    from . import billiards, render
    _check_path(m, n)
    try:
        svg = render.render_path_svg(billiards.trace_path(m, n), split_k, cell_px=cell_px, show_grid=grid,
                                     color_before=color_before, color_after=color_after, annotate_signs=signs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if out and not as_json and not out.endswith(".svg"):
        out += ".svg"
    flags = {"split_k": split_k, "cell_px": cell_px, "json": True}
    return _finish("render", m, n, flags, {"svg": svg}, [], [svg], as_json, out)


def _command(commands, run, json_help="Emit machine-readable JSON.", out_help="Write output to FILE.", sides=True):
    """Add the subcommand that calls `run`, helped by its docstring: M and N if it takes sides, then --json, --out."""
    sub = commands.add_parser(run.__name__.removesuffix("_cmd"), help=run.__doc__.split("\n")[0],
                              description=run.__doc__)
    sub.set_defaults(run=run)
    for side in ("m", "n") if sides else ():
        sub.add_argument(side, type=_positive)
    sub.add_argument("--json", dest="as_json", action="store_true", help=json_help)
    sub.add_argument("--out", metavar="FILE", help=out_help)
    return sub


def _parser() -> _Parser:
    parser = _Parser(prog="quadres", description="Quadratic-residue symbols via billiards, checkers and number theory.")
    parser.add_argument("--version", action="version", version=f"quadres, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    _command(commands, trace)
    _command(commands, symbol).add_argument("--verify", dest="do_verify", action="store_true",
                                            help="Cross-check against the Euler, Jacobi and Zolotarev oracles.")
    solve = _command(commands, solve_cmd)
    for kind, text in (("bottom-row", "Pebbles on every light square of the bottom row."),
                       ("left-column", "Pebbles on every light square of the leftmost column."),
                       ("both", "Bottom row and leftmost column."), ("kernel", "Nonzero checkers, no pebbles.")):
        solve.add_argument(f"--{kind}", dest="puzzle_kind", action="store_const", const=kind, help=text)  # last wins
    solve.add_argument("--pebble", dest="pebble_args", type=int, nargs=2, action="append", default=[],
                       metavar=("COL", "ROW"), help="Pebble at 0-based (COL, ROW); repeatable.")
    solve.add_argument("--render", dest="render_mode", choices=["ascii", "svg"], help="Attach a drawing of the board.")
    sweep = _command(commands, verify, sides=False)
    sweep.add_argument("--max-n", type=_positive, help="Sweep bound for n (per family default if omitted).")
    sweep.add_argument("--max-m", type=_positive, help="Sweep bound for m (default: --max-n if only that is given).")
    sweep.add_argument("--checks", dest="check_names", help="Comma-separated family names (default: all).")
    sweep.add_argument("--parallelism", type=_positive, default=1, help="Worker processes for the sweep cells.")
    figure = _command(commands, render_cmd, "Wrap the SVG in the JSON envelope.", "Write to FILE (.svg appended).")
    figure.add_argument("--split-k", type=_positive, help="Split the path colors at the bottom bounce at (2k, 0).")
    figure.add_argument("--cell-px", type=int, default=24, help="Pixels per unit square (>= 4).")
    for toggle, text in (("grid", "Draw the unit grid."), ("signs", "Annotate bottom bounces with +/-.")):
        figure.add_argument(f"--{toggle}", action=argparse.BooleanOptionalAction, default=True, help=text)
    figure.add_argument("--color-before", default="steelblue", help="Color before the split (default %(default)s).")
    figure.add_argument("--color-after", default="darkorange", help="Color after the split (default %(default)s).")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code; a command line argparse refuses exits 2 from inside it."""
    args = vars(_parser().parse_args(argv))
    try:
        if args["out"] and os.path.isdir(args["out"]):  # refused before any work, and before render appends .svg
            raise UsageError(f"--out {args['out']} is a directory")
        return args.pop("run")(**args)
    except UsageError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # a reader such as `head` closed stdout: stop quietly, without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit has somewhere to go
        return 1


if __name__ == "__main__":
    sys.exit(main())
