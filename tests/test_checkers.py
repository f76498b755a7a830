"""Tests for the parity-checkers puzzle: board types, solvers, mod-2 algebra."""

import itertools
import math
import random

import pytest

from quadres.checkers import (
    Board,
    CheckerSet,
    PebbleSet,
    PuzzleNotUniquelySolvable,
    apply_checkers,
    bottom_row_puzzle,
    bottom_row_symbol,
    kernel_element,
    left_column_puzzle,
    light_chase,
    solve,
)
from quadres.symbols import billiard_symbol
from reference import (
    Mod2Matrix,
    checkers_at,
    combined_puzzle_count,
    config_bits,
    dark_squares,
    neighbor_matrix,
    pebbles,
    solve_elimination,
    solve_single_pebble,
)

FIG_S1_CHECKERS = frozenset({(0, 2), (1, 1), (1, 3), (2, 2), (4, 0), (4, 2), (5, 3)})
FIG_S1_PEBBLES = frozenset({(1, 0), (3, 0), (5, 0)})


def random_pebbles(board, rng):
    lights = board.light_squares()
    return PebbleSet(board, frozenset(sq for sq in lights if rng.random() < 0.5))


def test_board_coloring():
    board = Board(rows=4, cols=6)
    assert board.is_dark(0, 0)
    assert not board.is_dark(1, 0)
    assert len(board.light_squares()) == len(dark_squares(board)) == 12


def test_board_validation():
    with pytest.raises(ValueError):
        Board(rows=-1, cols=3)


def test_configurations_validate_support():
    board = Board(rows=4, cols=6)
    with pytest.raises(ValueError):
        PebbleSet(board, frozenset({(0, 0)}))  # dark square
    with pytest.raises(ValueError):
        CheckerSet(board, frozenset({(1, 0)}))  # light square
    with pytest.raises(ValueError):
        PebbleSet(board, frozenset({(7, 0)}))  # off board


def test_xor_requires_same_board():
    a = pebbles(Board(rows=4, cols=6), (1, 0))
    b = pebbles(Board(rows=4, cols=4), (1, 0))
    with pytest.raises(ValueError):
        a ^ b


def test_bits_ordering():
    board = Board(rows=2, cols=3)
    # lights in row-major bottom-to-top order: (1,0), (0,1), (2,1)
    assert config_bits(pebbles(board, (2, 1))) == (0, 0, 1)
    assert config_bits(pebbles(board, (1, 0))) == (1, 0, 0)


def test_apply_checkers_first_figure():
    board = Board(rows=4, cols=6)
    result = apply_checkers(CheckerSet(board, FIG_S1_CHECKERS))
    assert result.squares == FIG_S1_PEBBLES


def test_apply_checkers_trivial():
    board = Board(rows=4, cols=6)
    assert apply_checkers(CheckerSet(board, frozenset())).squares == frozenset()
    assert apply_checkers(checkers_at(Board(rows=3, cols=3), (0, 0))).squares == {(1, 0), (0, 1)}


def test_apply_checkers_linearity():
    rng = random.Random(7)
    for rows in range(1, 13, 3):
        for cols in range(1, 13, 3):
            board = Board(rows=rows, cols=cols)
            darks = dark_squares(board)
            for _ in range(5):
                c1 = CheckerSet(board, frozenset(sq for sq in darks if rng.random() < 0.5))
                c2 = CheckerSet(board, frozenset(sq for sq in darks if rng.random() < 0.5))
                assert apply_checkers(c1 ^ c2) == apply_checkers(c1) ^ apply_checkers(c2)


def test_light_chase_empty():
    board = Board(rows=4, cols=6)
    partial, residual = light_chase(PebbleSet(board, frozenset()))
    assert not partial.squares and not residual.squares


def test_light_chase_bottom_row_untouched():
    board = Board(rows=4, cols=6)
    p = pebbles(board, (1, 0), (5, 0))
    partial, residual = light_chase(p)
    assert not partial.squares
    assert residual == p


def test_light_chase_reduces_to_bottom_row():
    board = Board(rows=4, cols=6)
    for col in (0, 2, 4):  # the top-row light squares
        p = pebbles(board, (col, 3))
        partial, residual = light_chase(p)
        assert residual == p ^ apply_checkers(partial)
        assert all(row == 0 for _, row in residual.squares)


def test_light_chase_residual_contract_random():
    rng = random.Random(11)
    for rows, cols in [(4, 6), (6, 10), (5, 5), (7, 4), (1, 8), (8, 1)]:
        board = Board(rows=rows, cols=cols)
        for _ in range(10):
            p = random_pebbles(board, rng)
            partial, residual = light_chase(p)
            assert residual == p ^ apply_checkers(partial)
            assert all(row == 0 for _, row in residual.squares)


def test_solve_single_pebble_7_11_3():
    sol = solve_single_pebble(7, 11, 3)
    assert sol.squares == {
        (0, 0), (0, 4), (1, 1), (1, 3), (1, 5), (2, 4), (3, 1), (4, 0), (4, 2),
        (4, 4), (5, 1), (5, 5), (6, 0), (7, 5), (8, 0), (8, 4), (9, 1), (9, 3),
    }
    assert apply_checkers(sol).squares == {(5, 0)}  # bottom-row square number 6


def test_solve_single_pebble_5_7_2():
    sol = solve_single_pebble(5, 7, 2)
    assert apply_checkers(sol).squares == {(3, 0)}


def test_solve_single_pebble_3_4_1_matches_brute_force():
    board = Board(rows=2, cols=3)
    want = pebbles(board, (1, 0))
    solutions = []
    for size in range(len(dark_squares(board)) + 1):
        for combo in itertools.combinations(dark_squares(board), size):
            if apply_checkers(CheckerSet(board, frozenset(combo))) == want:
                solutions.append(frozenset(combo))
    assert len(solutions) == 1
    assert solve_single_pebble(3, 4, 1).squares == solutions[0]


def test_solve_single_pebble_rejects_shared_factor():
    with pytest.raises(PuzzleNotUniquelySolvable):
        solve_single_pebble(6, 9, 1)


def test_solve_first_figure():
    board = Board(rows=4, cols=6)
    sol = solve(bottom_row_puzzle(board))
    assert sol.squares == FIG_S1_CHECKERS


def test_solve_empty_puzzle_gives_empty():
    board = Board(rows=4, cols=6)
    assert solve(PebbleSet(board, frozenset())).squares == frozenset()


def test_solve_round_trip_random():
    rng = random.Random(23)
    board = Board(rows=6, cols=10)
    for _ in range(25):
        p = random_pebbles(board, rng)
        assert apply_checkers(solve(p)) == p


def test_solve_rejects_shared_factor():
    board = Board(rows=5, cols=8)  # m=6, n=9
    with pytest.raises(PuzzleNotUniquelySolvable):
        solve(PebbleSet(board, frozenset()))


def test_solve_degenerate_boards():
    assert solve(PebbleSet(Board(rows=0, cols=4), frozenset())).squares == frozenset()
    assert solve(PebbleSet(Board(rows=4, cols=0), frozenset())).squares == frozenset()


def test_mod2_matrix_basics():
    # [[1, 1], [0, 1]] over GF(2)
    m = Mod2Matrix(rows=2, cols=2, data=[0b11, 0b10])
    assert m.entry(0, 0) == 1 and m.entry(1, 0) == 0
    assert m.rank() == 2
    assert m.is_invertible()
    sol = m.solve(0b01)  # x0 + x1 = 1, x1 = 0
    assert sol.unique and sol.particular == 0b01


def test_mod2_matrix_singular():
    m = Mod2Matrix(rows=2, cols=2, data=[0b11, 0b11])
    assert m.rank() == 1
    assert not m.is_invertible()
    sol = m.solve(0b00)
    assert sol.consistent and not sol.unique
    assert sol.kernel_basis == (0b11,)
    bad = m.solve(0b01)
    assert not bad.consistent and bad.particular is None


def test_mod2_matrix_rectangular():
    # one equation, two unknowns: x0 + x1 = 1
    m = Mod2Matrix(rows=1, cols=2, data=[0b11])
    sol = m.solve(0b1)
    assert sol.consistent and not sol.unique
    assert len(sol.kernel_basis) == 1


def test_mod2_matrix_zero_size():
    m = Mod2Matrix(rows=0, cols=0, data=[])
    assert m.is_invertible()
    assert m.solve(0).unique


def test_solve_elimination_matches_constructive():
    rng = random.Random(41)
    for m in range(2, 13):
        for n in range(2, 13):
            if math.gcd(m, n) != 1:
                continue
            board = Board(rows=m - 1, cols=n - 1)
            for _ in range(3):
                p = random_pebbles(board, rng)
                res = solve_elimination(p)
                assert res.unique, (m, n)
                assert res.solution == solve(p), (m, n)


def test_solve_elimination_singular_kernel():
    board = Board(rows=5, cols=8)  # m=6, n=9
    res = solve_elimination(PebbleSet(board, frozenset()))
    assert res.consistent and not res.unique
    assert res.kernel_basis
    fig5 = kernel_element(6, 9)
    # the known kernel element lies in the span of the reported basis
    span = {frozenset()}
    for basis_elem in res.kernel_basis:
        span |= {s ^ basis_elem.squares for s in span}
    assert fig5.squares in span


def test_solve_elimination_zero_rows_board():
    res = solve_elimination(PebbleSet(Board(rows=0, cols=5), frozenset()))
    assert res.unique and res.solution.squares == frozenset()


def test_unique_solvability_iff_coprime():
    for m in range(2, 15):
        for n in range(2, 15):
            board = Board(rows=m - 1, cols=n - 1)
            matrix = neighbor_matrix(board)
            assert matrix.is_invertible() == (math.gcd(m, n) == 1), (m, n)
            if math.gcd(m, n) == 1:
                # at least one side of the board is even, balancing the colors
                assert len(board.light_squares()) == len(dark_squares(board))


def test_kernel_element_examples():
    elem = kernel_element(6, 9)
    assert elem.squares == {
        (0, 0), (1, 1), (3, 3), (4, 4), (6, 4), (7, 3), (7, 1), (6, 0),
        (4, 0), (3, 1), (1, 3), (0, 4),
    }
    assert apply_checkers(elem).squares == frozenset()

    elem = kernel_element(2, 2)
    assert elem.squares == {(0, 0)}
    assert apply_checkers(elem).squares == frozenset()


def test_kernel_element_3_3_matches_brute_force():
    board = Board(rows=2, cols=2)
    nontrivial = [
        frozenset(combo)
        for size in range(1, 3)
        for combo in itertools.combinations(dark_squares(board), size)
        if not apply_checkers(CheckerSet(board, frozenset(combo))).squares
    ]
    assert nontrivial == [frozenset({(0, 0), (1, 1)})]
    assert kernel_element(3, 3).squares == {(0, 0), (1, 1)}


def test_kernel_element_rejects_coprime():
    with pytest.raises(ValueError):
        kernel_element(5, 7)


def test_bottom_row_symbol_examples():
    assert bottom_row_symbol(5, 7) == -1
    assert solve(bottom_row_puzzle(Board(4, 6))).count() == 7
    assert bottom_row_symbol(7, 11) == -1  # 7 is not a square mod 11
    assert bottom_row_symbol(4, 1) == 1
    assert bottom_row_symbol(1, 6) == 1
    with pytest.raises(PuzzleNotUniquelySolvable):
        bottom_row_symbol(6, 9)
    for m, n in [(0, 1), (-1, 2), (2, -1)]:  # coprime, but no board
        with pytest.raises(ValueError, match="sides must be positive"):
            bottom_row_symbol(m, n)


def test_bottom_row_symbol_matches_billiards():
    for m in range(1, 31):
        for n in range(1, 31):
            if math.gcd(m, n) != 1:
                continue
            assert bottom_row_symbol(m, n) == billiard_symbol(m, n).value, (m, n)


def test_combined_puzzle_count_examples():
    assert combined_puzzle_count(7, 11) == 15
    assert combined_puzzle_count(3, 5) == 2
    assert combined_puzzle_count(5, 7) == 6


def test_combined_puzzle_7_11_is_doubly_spaced_grid():
    board = Board(rows=6, cols=10)
    sol = solve(bottom_row_puzzle(board) ^ left_column_puzzle(board))
    assert sol.squares == {
        (c, r) for c in range(1, 10, 2) for r in range(1, 6, 2)
    }


def test_combined_puzzle_count_validation():
    with pytest.raises(ValueError):
        combined_puzzle_count(4, 7)
    with pytest.raises(ValueError):
        combined_puzzle_count(3, 9)


def test_combined_count_formula_and_parity():
    for m in range(3, 32, 2):
        for n in range(3, 32, 2):
            if math.gcd(m, n) != 1:
                continue
            board = Board(rows=m - 1, cols=n - 1)
            s = len(solve(bottom_row_puzzle(board)).squares)
            t = len(solve(left_column_puzzle(board)).squares)
            u = combined_puzzle_count(m, n)
            assert u == (m - 1) * (n - 1) // 4, (m, n)
            assert u % 2 == (s + t) % 2, (m, n)
