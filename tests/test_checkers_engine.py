"""Differential and property tests of the row-bitmask checkers engine.

The reference below is the set-based engine the bitmask one replaced:
per-square neighbour counting, a square-by-square light chase, and the
bottom-row residual cleared from the traced path's crossings.  It works on
plain sets of (col, row) squares and shares no code with `quadres.checkers`.
"""

import math
import random
import sys
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadres.billiards import Rect, bottom_bounce_times, crossings, trace_path
from quadres.checkers import (
    Board,
    CheckerSet,
    PebbleSet,
    apply_checkers,
    bottom_row_puzzle,
    bottom_row_symbol,
    combined_puzzle_count,
    left_column_puzzle,
    light_chase,
    neighbor_matrix,
    solve,
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
        path = trace_path(Rect(m=rows + 1, n=cols + 1))
        times = bottom_bounce_times(path)
        cuts = sorted(times[col + 1] for col, _ in residual)
        for c in crossings(path):
            if (bisect_left(cuts, c.t2) - bisect_right(cuts, c.t1)) % 2:
                placed ^= {(c.x - 1, c.y - 1)}
    return placed


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
    c = CheckerSet(board, frozenset(sq for sq in board.dark_squares() if rng.random() < 0.5))
    assert apply_checkers(c).squares == ref_apply(rows, cols, c.squares)


def test_neighbor_matrix_matches_set_built_matrix():
    for rows in range(15):
        for cols in range(15):
            board = Board(rows=rows, cols=cols)
            index = {sq: j for j, sq in enumerate(board.dark_squares())}
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


def test_solver_calls_no_oracle(monkeypatch):
    """solve and bottom_row_symbol run with every cross-check method disabled."""
    import quadres
    from quadres import checkers, oracles, symbols

    targets = {
        symbols.billiard_symbol, symbols._bottom_signs, oracles.jacobi_symbol,
        oracles.euler_symbol, oracles.zolotarev_perm_sign, checkers.solve_elimination,
    }
    modules = [mod for name, mod in sys.modules.items() if name == "quadres" or name.startswith("quadres.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if callable(value) and value in targets:
                monkeypatch.setattr(module, attr, _refuse)
    assert quadres.billiard_symbol is _refuse and checkers.solve_elimination is _refuse

    p = random_puzzle(Board(rows=6, cols=10), random.Random(3))
    assert apply_checkers(solve(p)) == p
    assert bottom_row_symbol(7, 11).value == -1
    assert bottom_row_symbol(5, 7).negative_bounce_count == 7
    assert combined_puzzle_count(7, 11) == 15
