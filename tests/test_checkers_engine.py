"""Differential and property tests of the row-bitmask checkers engine.

The reference below is the set-based engine the bitmask one replaced:
per-square neighbour counting, a square-by-square light chase, and the
bottom-row residual cleared from the traced path's crossings.  It works on
plain sets of (col, row) squares and shares no code with `quadres.checkers`.
The single-pebble counts are checked against the straddling crossings of
the traced path, found by bisecting the sorted visit times.  The packed
walk is checked grid for grid against `ref_walk`, the walk it replaced, and
the arch layout against `ref_walk`'s stretches, against the walk-based
two-colouring it replaced (`ref_two_color`), and against the dict-based
`two_color_checkers` of `tests/reference.py` for single-pebble solutions.
The closed-form kernel element is checked against the traced path's
once-visited points, `kernel_checkers`.  The kernel dimension from path
polynomials is checked against the top-row chase it replaced,
`ref_kernel_dimension`, and against gcd(m, n) // 2.
"""

import inspect
import math
import random
import sys
import timeit
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadres.billiards import trace_path
from quadres.checkers import (
    Board,
    CheckerSet,
    PebbleSet,
    PuzzleNotUniquelySolvable,
    _laid_rows,
    _lay,
    _walk,
    apply_checkers,
    bottom_row_count,
    bottom_row_puzzle,
    bottom_row_symbol,
    kernel_dimension,
    kernel_element,
    left_column_puzzle,
    light_chase,
    single_pebble_counts,
    solve,
)
from quadres.sweeps import _combined_solution
from quadres.symbols import billiard_symbol
from quadres.tilings import count_tilings
from reference import (
    combined_puzzle_count,
    crossings,
    dark_squares,
    kernel_checkers,
    neighbor_matrix,
    ref_base_bounces,
    ref_clear_bottom_row,
    ref_count_tilings,
    ref_kernel_dimension,
    ref_rows,
    ref_two_color,
    ref_walk,
    solve_single_pebble,
    two_color_checkers,
)


def ref_neighbors(rows, cols, col, row):
    around = ((col - 1, row), (col + 1, row), (col, row - 1), (col, row + 1))
    return [(c, r) for c, r in around if 0 <= c < cols and 0 <= r < rows]


def ref_apply(rows, cols, checkers):
    lit = set()
    for col, row in checkers:
        lit ^= set(ref_neighbors(rows, cols, col, row))
    return lit


def ref_light_chase(rows, cols, pebbled):
    placed = set()
    for row in range(rows - 1, 0, -1):
        for col in range((row + 1) % 2, cols, 2):
            parity = sum(1 for sq in ref_neighbors(rows, cols, col, row) if sq in placed) % 2
            if parity != ((col, row) in pebbled):
                placed.add((col, row - 1))
    return placed, set(pebbled) ^ ref_apply(rows, cols, placed)


def ref_solve(rows, cols, pebbled):
    placed, residual = ref_light_chase(rows, cols, pebbled)
    if residual:
        path = trace_path(rows + 1, cols + 1)
        times = {x: t for x, _, t in ref_base_bounces(path)}
        cuts = sorted(times[col + 1] for col, _ in residual)
        for c in crossings(path):
            if (bisect_left(cuts, c.t2) - bisect_right(cuts, c.t1)) % 2:
                placed ^= {(c.x - 1, c.y - 1)}
    return placed


def ref_single_pebble_counts(m, n):
    """(x, crossings straddling the bounce) for every bottom bounce of the traced path."""
    path = trace_path(m, n)
    cross = crossings(path)
    firsts = sorted(c.t1 for c in cross)
    seconds = sorted(c.t2 for c in cross)
    # crossings with t1 < t, less those with t2 < t too; a bounce is never a crossing time
    return [(x, bisect_left(firsts, t) - bisect_left(seconds, t)) for x, _, t in ref_base_bounces(path)]


def coprime_sides(limit):
    return [(m, n) for m in range(1, limit + 1) for n in range(1, limit + 1) if math.gcd(m, n) == 1]


def random_puzzle(board, rng, density=0.5):
    return PebbleSet(board, frozenset(sq for sq in board.light_squares() if rng.random() < density))


@st.composite
def coprime_puzzles(draw, max_side=60):
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side).filter(lambda n: math.gcd(m, n) == 1))
    board = Board(rows=m - 1, cols=n - 1)
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from((0.02, 0.5, 1.0)))
    return random_puzzle(board, random.Random(seed), density)


@settings(max_examples=150, deadline=None)
@given(coprime_puzzles())
def test_solve_matches_reference(p):
    board = p.board
    sol = solve(p)
    assert sol.squares == ref_solve(board.rows, board.cols, p.squares)
    assert apply_checkers(sol) == p
    assert sol.count() == len(sol.squares)


@settings(max_examples=150, deadline=None)
@given(coprime_puzzles())
def test_light_chase_and_apply_match_reference(p):
    board = p.board
    partial, residual = light_chase(p)
    want_partial, want_residual = ref_light_chase(board.rows, board.cols, p.squares)
    assert partial.squares == want_partial
    assert residual.squares == want_residual
    assert apply_checkers(partial).squares == ref_apply(board.rows, board.cols, partial.squares)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 2**32 - 1))
def test_apply_checkers_matches_reference_on_any_board(rows, cols, seed):
    board = Board(rows=rows, cols=cols)
    rng = random.Random(seed)
    c = CheckerSet(board, frozenset(sq for sq in dark_squares(board) if rng.random() < 0.5))
    assert apply_checkers(c).squares == ref_apply(rows, cols, c.squares)


def test_neighbor_matrix_matches_set_built_matrix():
    for rows in range(15):
        for cols in range(15):
            board = Board(rows=rows, cols=cols)
            index = {sq: j for j, sq in enumerate(dark_squares(board))}
            want = [
                sum(1 << index[sq] for sq in ref_neighbors(rows, cols, col, row))
                for col, row in board.light_squares()
            ]
            matrix = neighbor_matrix(board)
            assert (matrix.rows, matrix.cols) == (len(want), len(index)), (rows, cols)
            assert matrix.data == want, (rows, cols)


def test_large_random_puzzle_checked_by_set_count():
    board = Board(rows=198, cols=199)  # m=199, n=200
    p = random_puzzle(board, random.Random(199200))
    sol = solve(p)
    assert all(board.is_dark(col, row) and board.in_bounds(col, row) for col, row in sol.squares)
    assert ref_apply(board.rows, board.cols, sol.squares) == p.squares


def test_puzzle_builders_match_square_lists():
    for rows, cols in [(0, 4), (4, 0), (1, 1), (4, 6), (5, 7), (6, 5)]:
        board = Board(rows=rows, cols=cols)
        bottom = {(c, 0) for c in range(cols) if rows and c % 2 == 1}
        left = {(0, r) for r in range(rows) if cols and r % 2 == 1}
        assert bottom_row_puzzle(board) == PebbleSet(board, bottom)
        assert left_column_puzzle(board) == PebbleSet(board, left)


def test_configuration_value_semantics():
    board = Board(rows=4, cols=6)
    a = PebbleSet(board, frozenset({(1, 0), (2, 1)}))
    b = a ^ PebbleSet(board, frozenset({(2, 1)}))
    assert b == PebbleSet(board, frozenset({(1, 0)}))
    assert hash(b) == hash(PebbleSet(board, {(1, 0)}))
    assert b.squares == {(1, 0)} and b.count() == 1
    assert PebbleSet(board, frozenset()) != CheckerSet(board, frozenset())
    with pytest.raises(ValueError):
        a ^ CheckerSet(board, frozenset({(0, 0)}))


def _refuse(*args, **kwargs):
    raise AssertionError("the checkers engine called an oracle it is checked against")


def _refuse_everywhere(monkeypatch, targets):
    """Replace every binding of the target functions in every quadres module and the references by _refuse."""
    modules = [mod for name, mod in sys.modules.items()
               if name in ("quadres", "reference") or name.startswith("quadres.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if callable(value) and value in targets:
                monkeypatch.setattr(module, attr, _refuse)


def test_solver_calls_no_oracle(monkeypatch):
    """solve and bottom_row_symbol run with every cross-check method disabled."""
    import quadres
    import reference
    from quadres import billiards, oracles, symbols

    _refuse_everywhere(monkeypatch, {
        symbols.billiard_symbol, symbols._value, billiards.base_bounces, billiards._fold, oracles.jacobi_symbol,
        oracles.euler_symbol, oracles.euler_row, oracles.zolotarev_perm_sign, oracles.zolotarev_row,
        reference.solve_elimination,
    })
    assert quadres.billiard_symbol is _refuse and reference.solve_elimination is _refuse
    assert quadres.base_bounces is _refuse and billiards._fold is _refuse

    p = random_puzzle(Board(rows=6, cols=10), random.Random(3))
    assert apply_checkers(solve(p)) == p
    assert bottom_row_symbol(7, 11) == -1
    assert solve(bottom_row_puzzle(Board(rows=4, cols=6))).count() == 7
    assert combined_puzzle_count(7, 11) == 15


def test_checkers_binds_nothing_from_another_quadres_module():
    import inspect

    from quadres import checkers

    bound = {inspect.getmodule(value) for value in vars(checkers).values()} - {None}
    assert {module.__name__ for module in bound if module.__name__.startswith("quadres")} == {"quadres.checkers"}


def test_solve_single_pebble_matches_two_color_reference():
    for m, n in coprime_sides(20):
        for k in range(1, (n + 1) // 2):  # every 0 < 2k < n
            want = {(x - 1, y - 1) for x, y in two_color_checkers(m, n, k)}
            assert solve_single_pebble(m, n, k).squares == want, (m, n, k)


def test_solve_single_pebble_rejects_a_missing_bounce():
    for m, n, k in [(5, 7, 0), (5, 7, 4), (5, 7, -1), (4, 1, 1), (1, 2, 1)]:
        with pytest.raises(ValueError, match="need 0 < 2k < n"):
            solve_single_pebble(m, n, k)


def _legs():
    """Every function of billiards, symbols and oracles: the legs the checkers engine is checked against."""
    from quadres import billiards, oracles, symbols

    return {f for module in (billiards, symbols, oracles)
            for _, f in inspect.getmembers(module, inspect.isfunction) if f.__module__ == module.__name__}


def _refuse_the_walk_and_other_legs(monkeypatch):
    """Refuse the piece-by-piece walk and every function of billiards, symbols and oracles."""
    import quadres
    from quadres import checkers

    _refuse_everywhere(monkeypatch, {checkers._walk, *_legs()})
    assert checkers._walk is _refuse and quadres.base_bounces is _refuse and checkers._lay is not _refuse


def test_kernel_element_matches_once_visited_reference(monkeypatch):
    """The closed form, with no layout, walk, lcm or other leg, against the traced path's once-visited points."""
    import quadres
    from quadres import checkers

    cells = [(m, n) for m in range(2, 61) for n in range(2, 61) if math.gcd(m, n) > 1]
    assert len(cells) == 1397
    want = [{(x - 1, y - 1) for x, y in kernel_checkers(m, n)} for m, n in cells]
    _refuse_everywhere(monkeypatch, {checkers._walk, checkers._lay, checkers._laid_rows, *_legs()})
    monkeypatch.setattr(math, "lcm", _refuse)
    assert checkers._lay is _refuse and checkers._laid_rows is _refuse and quadres.base_bounces is _refuse
    for (m, n), squares in zip(cells, want):
        elem = kernel_element(m, n)
        assert elem.squares == squares, (m, n)
        assert elem.squares and not apply_checkers(elem).squares, (m, n)
    # large and thin boards, their counts as the laid path gave them
    for m, n, count in [(3000, 2, 1500), (2, 3000, 1500), (600, 900, 1794), (1001, 7007, 7000),
                        (3000, 3002, 2251500), (2048, 4096, 4094)]:
        elem = kernel_element(m, n)
        assert elem.count() == count and not apply_checkers(elem).count(), (m, n)


def test_bottom_row_count_matches_the_walked_two_coloring(monkeypatch):
    cells = coprime_sides(60)
    want = [ref_two_color(m, n, range(2 * m, m * n, 2 * m)).bit_count() for m, n in cells]
    _refuse_the_walk_and_other_legs(monkeypatch)
    assert [bottom_row_count(m, n) for m, n in cells] == want


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 400), st.integers(1, 400))
@example(399, 400)
@example(400, 1)
def test_bottom_row_count_matches_the_walked_two_coloring_on_large_sides(m, n):
    assume(math.gcd(m, n) == 1)
    want = ref_two_color(m, n, range(2 * m, m * n, 2 * m)).bit_count()
    with pytest.MonkeyPatch.context() as monkeypatch:
        _refuse_the_walk_and_other_legs(monkeypatch)
        assert bottom_row_count(m, n) == want


def test_solve_matches_the_walked_two_coloring(monkeypatch):
    """Bottom-row, left-column, both and random puzzles: the chase, then the walk-based clearing."""
    rng = random.Random(40)
    puzzles = []
    for m, n in coprime_sides(40):
        board = Board(rows=m - 1, cols=n - 1)
        puzzles += [bottom_row_puzzle(board), left_column_puzzle(board),
                    bottom_row_puzzle(board) ^ left_column_puzzle(board), random_puzzle(board, rng)]
    want = []
    for p in puzzles:
        m, n = p.board.rows + 1, p.board.cols + 1
        partial, residual = light_chase(p)
        cleared = ref_clear_bottom_row(m, n, residual.row_bits[0]) if any(residual.row_bits) else [0] * (m - 1)
        want.append(tuple(a ^ b for a, b in zip(partial.row_bits, cleared)))
    assert sum(1 for p in puzzles if any(light_chase(p)[1].row_bits)) > 2000  # most puzzles reach the layout
    _refuse_the_walk_and_other_legs(monkeypatch)
    for p, rows in zip(puzzles, want):
        assert solve(p).row_bits == rows, p.board


def test_path_built_checker_sets_call_no_billiards_function(monkeypatch):
    """The packed walk answers every path question with all of `quadres.billiards` disabled."""
    import inspect

    import quadres
    from quadres import billiards

    rng = random.Random(5)
    puzzles = [random_puzzle(Board(rows=m - 1, cols=n - 1), rng) for m, n in [(7, 11), (12, 5), (20, 21)]]
    singles = [(m, n, k) for m, n in coprime_sides(12) for k in range(1, (n + 1) // 2)]
    kernels = [(m, n) for m in range(2, 13) for n in range(2, 13) if math.gcd(m, n) > 1]
    want_solve = [ref_solve(p.board.rows, p.board.cols, p.squares) for p in puzzles]
    want_singles = [{(x - 1, y - 1) for x, y in two_color_checkers(m, n, k)} for m, n, k in singles]
    want_kernels = [{(x - 1, y - 1) for x, y in kernel_checkers(m, n)} for m, n in kernels]
    want_counts = [ref_single_pebble_counts(m, n) for m, n in coprime_sides(12)]
    _refuse_everywhere(monkeypatch, {
        f for _, f in inspect.getmembers(billiards, inspect.isfunction) if f.__module__ == billiards.__name__
    })
    assert quadres.trace_path is _refuse and billiards._fold is _refuse

    assert [solve(p).squares for p in puzzles] == want_solve
    assert [solve_single_pebble(m, n, k).squares for m, n, k in singles] == want_singles
    assert [kernel_element(m, n).squares for m, n in kernels] == want_kernels
    assert [single_pebble_counts(m, n) for m, n in coprime_sides(12)] == want_counts
    assert bottom_row_symbol(7, 11) == -1
    assert solve(bottom_row_puzzle(Board(rows=4, cols=6))).count() == 7


def laid_arches(m, n, kind, seed=0):
    """The arches of one kind up to time mn: every one, bottom_row_count's, or a random set.

    On a gcd > 1 board the path ends at lcm(m, n) < mn; its arches past that point retrace it, which the
    layout handles as it does any chosen set.
    """
    arches = range((n + 1) // 2)  # the last is cut at the top when n is odd
    if kind == "alternate":  # bottom_row_count's color-1 arches
        arches = arches[1::2]
    elif kind == "arches":
        rng = random.Random(seed)
        arches = [k for k in arches if rng.random() < 0.5]
    return arches


def walked_rows(m, n, arches):
    """Board rows of `ref_walk` run over the given arches, the last cut at time mn."""
    grid = 0
    for grid in ref_walk(m, n, [(2 * m * k, min(2 * m * (k + 1), m * n)) for k in arches]):
        pass
    return ref_rows(m, n, grid)


def test_walk_matches_reference_walk():
    # the walk yields at every bottom bounce; the layout matches the reference walked over the same arches
    for m in range(1, 41):
        for n in range(1, 41):
            bounces = range(2 * m, m * n, 2 * m)
            stretches = [(t - 2 * m, t) for t in bounces]  # single_pebble_counts' stretches
            assert [grid for _, grid in zip(bounces, _walk(m, n))] == list(ref_walk(m, n, stretches)), (m, n)
            for kind in ("path", "alternate", "arches"):
                arches = laid_arches(m, n, kind, seed=m * 41 + n)
                assert _laid_rows(m, n, _lay(m, n, arches)) == walked_rows(m, n, arches), (m, n, kind)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 150), st.integers(1, 150), st.sampled_from(("path", "alternate", "arches")),
       st.integers(0, 2**32 - 1))
def test_walk_matches_reference_walk_on_large_sides(m, n, kind, seed):
    bounces = range(2 * m, m * n, 2 * m)
    stretches = [(t - 2 * m, t) for t in bounces]
    assert [grid for _, grid in zip(bounces, _walk(m, n))] == list(ref_walk(m, n, stretches))
    arches = laid_arches(m, n, kind, seed)
    assert _laid_rows(m, n, _lay(m, n, arches)) == walked_rows(m, n, arches)


def test_single_pebble_counts_match_straddling_crossings():
    for m, n in coprime_sides(60):
        assert single_pebble_counts(m, n) == ref_single_pebble_counts(m, n), (m, n)


def test_single_pebble_counts_match_solution_sizes():
    for m, n in coprime_sides(30):
        for x, count in single_pebble_counts(m, n):
            assert solve_single_pebble(m, n, x // 2).count() == count, (m, n, x)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 150), st.integers(1, 150))
def test_single_pebble_counts_match_reference_on_large_sides(m, n):
    assume(math.gcd(m, n) == 1)
    assert single_pebble_counts(m, n) == ref_single_pebble_counts(m, n)


def test_single_pebble_counts_reject_common_factor():
    with pytest.raises(PuzzleNotUniquelySolvable):
        single_pebble_counts(6, 9)


def test_bottom_row_walk_matches_the_solved_puzzle():
    # the whole checker set laid from the alternate arches, not only its parity
    for m, n in coprime_sides(60):
        grid = _lay(m, n, range(1, (n + 1) // 2, 2))
        want = solve(bottom_row_puzzle(Board(rows=m - 1, cols=n - 1))).row_bits
        assert tuple(_laid_rows(m, n, grid)) == want, (m, n)
        assert bottom_row_symbol(m, n) == (-1) ** sum(bits.bit_count() for bits in want), (m, n)


def test_bottom_row_symbol_is_one_walk(monkeypatch):
    """No board, light chase, solve, row read-back or piece-by-piece walk: only the layout and its popcount."""
    from quadres import checkers

    def refuse(*args, **kwargs):
        raise AssertionError("bottom_row_symbol went through the general solver")

    for name in ("Board", "PebbleSet", "CheckerSet", "light_chase", "solve", "_laid_rows", "_walk"):
        monkeypatch.setattr(checkers, name, refuse)
    assert [bottom_row_symbol(m, n) for m, n in [(5, 7), (7, 11), (4, 1), (1, 6), (2, 1)]] == [-1, -1, 1, 1, 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 150), st.integers(1, 150))
def test_bottom_row_symbol_matches_billiards_on_large_sides(m, n):
    assume(math.gcd(m, n) == 1)
    assert bottom_row_symbol(m, n) == billiard_symbol(m, n).value


def test_single_pebble_counts_call_no_path_tracer_or_oracle(monkeypatch):
    """The lattice walk runs with the path tracer, the bounce lister and every oracle disabled."""
    import quadres
    from quadres import billiards, oracles, symbols

    cells = coprime_sides(20)
    want = [ref_single_pebble_counts(m, n) for m, n in cells]
    _refuse_everywhere(monkeypatch, {
        billiards.trace_path, billiards._fold, symbols.billiard_symbol, symbols._value, billiards.base_bounces,
        oracles.jacobi_symbol, oracles.euler_symbol, oracles.euler_row, oracles.zolotarev_perm_sign,
        oracles.zolotarev_row,
    })
    assert quadres.trace_path is _refuse and quadres.base_bounces is _refuse and billiards._fold is _refuse
    assert [single_pebble_counts(m, n) for m, n in cells] == want


def test_bridge_sweep_reports_a_wrong_count(monkeypatch):
    """One count off by one makes the checkers_bridge sweep fail at exactly that bounce."""
    from quadres import sweeps

    real = sweeps.ck.single_pebble_counts
    x, count = real(7, 11)[2]

    def off_by_one(m, n):
        counts = real(m, n)
        if (m, n) == (7, 11):
            counts[2] = (x, count + 1)
        return counts

    monkeypatch.setattr(sweeps.ck, "single_pebble_counts", off_by_one)
    result = sweeps.run_family("checkers_bridge")
    assert [(f["m"], f["n"], f["k"], f["checkers"]) for f in result.failures] == [(7, 11, x // 2, count + 1)]
    assert result.checked == 3830


def test_bottom_row_count_matches_both_one_sided_solutions():
    """s(m, n) counts the bottom-row solution; transposing the board, s(n, m) counts the left-column one."""
    for m, n in coprime_sides(40):
        board = Board(rows=m - 1, cols=n - 1)
        assert bottom_row_count(m, n) == solve(bottom_row_puzzle(board)).count(), (m, n)
        assert bottom_row_count(n, m) == solve(left_column_puzzle(board)).count(), (m, n)


def test_bottom_row_count_rejects_a_missing_or_shared_board():
    with pytest.raises(PuzzleNotUniquelySolvable):
        bottom_row_count(6, 9)
    for m, n in [(0, 1), (-1, 2), (2, -1)]:
        with pytest.raises(ValueError, match="sides must be positive"):
            bottom_row_count(m, n)


def test_combined_solution_solves_every_odd_board():
    """The odd rows' dark squares solve the combined puzzle, coprime or not, with (m-1)(n-1)/4 checkers."""
    for m in range(1, 62, 2):
        for n in range(1, 62, 2):
            board = Board(rows=m - 1, cols=n - 1)
            combined = _combined_solution(board)
            assert apply_checkers(combined) == bottom_row_puzzle(board) ^ left_column_puzzle(board), (m, n)
            assert combined.count() == (m - 1) * (n - 1) // 4, (m, n)


def test_combined_solution_is_the_solved_one():
    for m, n in coprime_sides(39):
        if m % 2 and n % 2:
            board = Board(rows=m - 1, cols=n - 1)
            combined = _combined_solution(board)
            assert combined == solve(bottom_row_puzzle(board) ^ left_column_puzzle(board)), (m, n)
            assert combined.count() == combined_puzzle_count(m, n), (m, n)


def test_superposition_sweep_calls_no_solver_or_other_leg(monkeypatch):
    """s, t and u come from the laid bottom-row arches and the explicit set alone."""
    from quadres import billiards, checkers, sweeps

    _refuse_everywhere(monkeypatch, {*_legs(), checkers.solve, checkers.light_chase})
    assert sweeps.ck.solve is _refuse and sweeps.ck.light_chase is _refuse and billiards._fold is _refuse
    assert sweeps.symbols.billiard_symbol is _refuse and sweeps.oracles.jacobi_symbol is _refuse

    result = sweeps.run_family("superposition")
    assert (result.cells, result.checked, result.failures) == (182, 182, ())


def test_kernel_dimension_matches_elimination_rank():
    for m in range(2, 30):
        for n in range(2, 30):
            matrix = neighbor_matrix(Board(rows=m - 1, cols=n - 1))
            assert kernel_dimension(m, n) == matrix.cols - matrix.rank(), (m, n)


def test_kernel_dimension_matches_the_chase():
    """The path-polynomial gcd against the top-row chase it replaced, on every board up to 59x59."""
    for m in range(1, 61):
        for n in range(1, 61):
            assert kernel_dimension(m, n) == ref_kernel_dimension(m, n) == ref_kernel_dimension(n, m), (m, n)


def test_kernel_dimension_is_half_the_gcd_on_wide_and_large_boards():
    """p_k mod p_s has period 2s + 2, so a long side near 10^12 costs no more steps than a short one."""
    rng = random.Random(26)
    pairs = [(rng.randrange(1, 400), rng.randrange(1, 400)) for _ in range(200)]
    pairs += [(g * a, g * b) for g in (2, 6, 10) for a, b in [(7, 9), (11, 13), (5, 17)]]
    for m, n in pairs:
        assert kernel_dimension(m, n) == kernel_dimension(n, m) == math.gcd(m, n) // 2, (m, n)
    for m, n in [(3000, 3002), (2048, 4096), (1001, 7007), (64, 100000), (100, 10**12 + 39), (600, 6 * 10**11)]:
        assert kernel_dimension(m, n) == kernel_dimension(n, m) == math.gcd(m, n) // 2, (m, n)
        best = min(timeit.repeat(lambda: kernel_dimension(m, n), number=1, repeat=3))
        assert best < 0.01, (m, n, best)


def test_kernel_dimension_is_transpose_symmetric():
    """A board and its transpose have the same kernel, as the polynomial gcd is symmetric in the sides."""
    for m in range(1, 41):
        for n in range(1, 41):
            assert kernel_dimension(m, n) == kernel_dimension(n, m), (m, n)


def test_kernel_dimension_of_empty_and_invalid_boards():
    assert [kernel_dimension(1, n) for n in (1, 2, 9)] == [0, 0, 0]
    assert [kernel_dimension(m, 1) for m in (2, 9)] == [0, 0]
    for m, n in [(0, 5), (5, 0), (-1, 3)]:
        with pytest.raises(ValueError, match="sides must be positive"):
            kernel_dimension(m, n)


@pytest.mark.parametrize("fn", [single_pebble_counts, kernel_element])
@pytest.mark.parametrize("m, n", [(1, 0), (0, 5), (-1, 3), (-3, 5)])
def test_walks_refuse_a_missing_board(fn, m, n):
    """Checked before gcd: (1, 0) would walk no board and (0, 5) would shift by a negative count."""
    with pytest.raises(ValueError, match="sides must be positive"):
        fn(m, n)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 199), st.integers(1, 199))
@example(198, 198)  # random sides rarely share a large factor
@example(120, 180)
@example(199, 1)
def test_kernel_and_cokernel_dimensions_follow_gcd(m, n):
    g = math.gcd(m, n)
    squares = (m - 1) * (n - 1)
    nullity = kernel_dimension(m, n)
    assert nullity == g // 2
    assert squares // 2 - ((squares + 1) // 2 - nullity) == (g - 1) // 2  # light - rank


def test_kernel_dimension_and_tiling_count_call_no_elimination_gcd_or_oracle(monkeypatch):
    """The path polynomials and the profile count run with the references, gcd, lcm and every oracle disabled."""
    import inspect

    import quadres
    import reference
    from quadres import oracles

    sides = [(m, n) for m in range(1, 16) for n in range(1, 16)]
    boards = [(r, c) for r in range(8) for c in range(8) if r * c <= reference.MAX_BRUTE_CELLS]
    want_nullity = [math.gcd(m, n) // 2 for m, n in sides]
    want_counts = [ref_count_tilings(r, c) for r, c in boards]
    _refuse_everywhere(monkeypatch, {
        reference.Mod2Matrix, reference.neighbor_matrix, reference.solve_elimination, ref_count_tilings,
        *(f for _, f in inspect.getmembers(oracles, inspect.isfunction) if f.__module__ == oracles.__name__),
    })
    monkeypatch.setattr(math, "gcd", _refuse)
    monkeypatch.setattr(math, "lcm", _refuse)
    assert quadres.jacobi_symbol is _refuse and reference.neighbor_matrix is _refuse

    assert [kernel_dimension(m, n) for m, n in sides] == want_nullity
    assert [count_tilings(r, c) for r, c in boards] == want_counts
    assert count_tilings(8, 8) == 12988816


def test_kernel_sweep_reports_a_wrong_nullity(monkeypatch):
    """A nullity off by one makes the kernel sweep fail at exactly that board."""
    from quadres import sweeps

    real = sweeps.ck.kernel_dimension

    def off_by_one(m, n):
        return real(m, n) + ((m, n) == (6, 9))

    monkeypatch.setattr(sweeps.ck, "kernel_dimension", off_by_one)
    result = sweeps.run_family("kernel")
    assert result.failures == ({"m": 6, "n": 9, "nullity": 2, "cokernel": 2, "gcd": 3},)
    assert result.checked == 169
