"""Tests for domino tiling counts and the parity corollary.

The profile count is checked against the backtracking counter it replaced,
`ref_count_tilings` in `tests/reference.py`, and the invertibility it is
compared with against the reference GF(2) elimination.
"""

import math

import pytest

from quadres.checkers import Board
from quadres.tilings import MAX_TILING_WORK, count_tilings, tiling_parity_check
from reference import MAX_BRUTE_CELLS, neighbor_matrix, ref_count_tilings


def test_count_examples():
    assert count_tilings(2, 3) == 3
    assert count_tilings(2, 2) == 2
    assert count_tilings(1, 3) == 0
    assert count_tilings(4, 4) == 36


def test_count_known_strip_values():
    # 2 x n counts follow the Fibonacci recurrence f(n) = f(n-1) + f(n-2)
    fib = [1, 1]
    while len(fib) <= 21:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 22):
        assert count_tilings(2, n) == fib[n], n


def test_count_transpose_symmetric():
    for rows in range(1, 7):
        for cols in range(1, 7):
            assert count_tilings(rows, cols) == count_tilings(cols, rows)


def test_count_empty_board():
    assert count_tilings(0, 5) == 1
    assert count_tilings(3, 0) == 1


def test_count_rejects_large_board():
    for rows, cols in [(13, 13), (12, 13), (40, 13)]:  # 2^min(r, c) * r * c over the work bound
        with pytest.raises(ValueError, match="over the bound"):
            count_tilings(rows, cols)
    assert 2**12 * 12 * 12 <= MAX_TILING_WORK  # 12x12, and so the full acceptance range, stays in bounds
    assert count_tilings(2, 1000) > 0  # a long strip is cheap: the bound counts profiles, not cells


def test_count_matches_backtracking_reference():
    boards = [(r, c) for r in range(MAX_BRUTE_CELLS + 1) for c in range(MAX_BRUTE_CELLS + 1)
              if r * c <= MAX_BRUTE_CELLS]
    for rows, cols in boards:
        assert count_tilings(rows, cols) == ref_count_tilings(rows, cols), (rows, cols)


def test_count_known_square_values():
    # domino tilings of the 2k x 2k board, k = 0..6 (Kasteleyn 1961; Temperley & Fisher 1961)
    want = [1, 2, 36, 6728, 12988816, 258584046368, 53060477521960000]
    assert [count_tilings(2 * k, 2 * k) for k in range(7)] == want


def test_parity_check_examples():
    report = tiling_parity_check(2, 3)
    assert report.count == 3 and report.parity == "odd"
    assert report.gcd_flag and report.rank_full and report.consistent

    report = tiling_parity_check(2, 2)
    assert report.count == 2 and report.parity == "even"
    assert not report.gcd_flag and not report.rank_full and report.consistent

    report = tiling_parity_check(4, 4)
    assert report.count == 36 and report.parity == "even" and report.consistent


def test_parity_check_validation():
    with pytest.raises(ValueError):
        tiling_parity_check(0, 3)


def test_parity_corollary_sweep():
    for rows in range(1, 7):
        for cols in range(1, 7):
            report = tiling_parity_check(rows, cols)
            assert report.consistent, (rows, cols)
            assert (report.count % 2 == 1) == (math.gcd(rows + 1, cols + 1) == 1)


def test_parity_check_beyond_brute_force_bound():
    for rows, cols in [(13, 13), (13, 14)]:  # past the work bound: parity from invertibility
        report = tiling_parity_check(rows, cols)
        assert report.count is None
        assert report.consistent
        assert report.parity == ("odd" if report.rank_full else "even")


def test_parity_corollary_to_12x12():
    for rows in range(1, 13):
        for cols in range(1, 13):
            report = tiling_parity_check(rows, cols)
            assert report.count is not None and report.consistent, (rows, cols)


def test_rank_full_matches_elimination():
    for rows in range(1, 9):
        for cols in range(1, 9):
            want = neighbor_matrix(Board(rows=rows, cols=cols)).is_invertible()
            assert tiling_parity_check(rows, cols).rank_full == want, (rows, cols)


def test_odd_cell_boards_always_even():
    for rows in range(1, 6, 2):
        for cols in range(1, 6, 2):
            report = tiling_parity_check(rows, cols)
            assert report.count == 0 and report.parity == "even"
            assert not report.gcd_flag
