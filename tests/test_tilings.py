"""Tests for domino tiling counts and the `tilings` sweep row that compares their parity.

The profile count is checked against the backtracking counter it replaced,
`ref_count_tilings` in `tests/reference.py`.  The row compares the count's
parity with the gcd condition and with invertibility, read from the kernel
chase, which is checked against the reference GF(2) elimination.  The row's
cells are every board of its grid, so every record carries a count.
"""

import itertools
import math

import pytest

from quadres import sweeps
from quadres.checkers import Board
from quadres.sweeps import FAMILIES, run_family
from quadres.tilings import count_tilings
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
    assert count_tilings(2, 1000) > 0  # a long strip is cheap: the work grows with profiles, not cells


def test_count_matches_backtracking_reference():
    boards = [(r, c) for r in range(MAX_BRUTE_CELLS + 1) for c in range(MAX_BRUTE_CELLS + 1)
              if r * c <= MAX_BRUTE_CELLS]
    for rows, cols in boards:
        assert count_tilings(rows, cols) == ref_count_tilings(rows, cols), (rows, cols)


def test_count_known_square_values():
    # domino tilings of the 2k x 2k board, k = 0..7 (Kasteleyn 1961; Temperley & Fisher 1961)
    want = [1, 2, 36, 6728, 12988816, 258584046368, 53060477521960000, 112202208776036178000000]
    assert [count_tilings(2 * k, 2 * k) for k in range(8)] == want


def test_parity_check_examples():
    # 2x3 has an odd count and gcd(3, 4) = 1; 2x2 and 4x4 have even counts and gcd 3 and 5
    for rows, cols, count, invertible in [(2, 3, 3, True), (2, 2, 2, False), (4, 4, 36, False)]:
        assert (count_tilings(rows, cols), sweeps._invertible(rows, cols)) == (count, invertible)
        assert sweeps._tilings_check(rows, cols) == (1, []), (rows, cols)


def test_parity_check_validation():
    # the row makes no board without squares, and the count refuses a negative side
    assert list(FAMILIES["tilings"].make_cells(0, 5)) == list(FAMILIES["tilings"].make_cells(5, 0)) == []
    assert min(min(board) for board in FAMILIES["tilings"].make_cells(9, 9)) == 1
    with pytest.raises(ValueError, match="nonnegative"):
        count_tilings(0, -3)


def test_parity_corollary_sweep():
    for rows in range(1, 7):
        for cols in range(1, 7):
            assert sweeps._tilings_check(rows, cols) == (1, []), (rows, cols)
            assert (count_tilings(rows, cols) % 2 == 1) == (math.gcd(rows + 1, cols + 1) == 1)


def test_parity_corollary_to_12x12():
    result = run_family("tilings", max_m=12, max_n=12)
    assert (result.cells, result.checked) == (144, 144) and result.ok, result.failures[:3]  # every board counted
    for rows in range(1, 13):
        for cols in range(1, 13):
            assert (count_tilings(rows, cols) % 2 == 1) == (math.gcd(rows + 1, cols + 1) == 1), (rows, cols)


def test_rank_full_matches_elimination():
    # both orientations: the chase always runs down the long side, whichever side that is
    for rows in range(1, 9):
        for cols in range(1, 9):
            want = neighbor_matrix(Board(rows=rows, cols=cols)).is_invertible()
            assert sweeps._invertible(rows, cols) == want, (rows, cols)


def test_invertibility_is_chased_down_the_long_side(monkeypatch):
    """Each chase step is a short row: kernel_dimension(2, 20001) takes about 1,700 times (20001, 2)'s time."""
    calls = []
    real = sweeps.ck.kernel_dimension
    monkeypatch.setattr(sweeps.ck, "kernel_dimension", lambda m, n: calls.append((m, n)) or real(m, n))
    assert sweeps._invertible(2, 7) and sweeps._invertible(7, 2)  # gcd(3, 8) = 1
    assert calls == [(8, 3), (8, 3)]


def test_row_fails_where_invertibility_disagrees(monkeypatch):
    """A wrong chase fails the row with the exact count, once per orientation of the board."""
    real = sweeps.ck.kernel_dimension
    monkeypatch.setattr(sweeps.ck, "kernel_dimension", lambda m, n: real(m, n) + ((m, n) == (4, 3)))
    record = {"count": 3, "gcd_flag": True, "rank_full": False}  # the 2x3 board, chased as 3 rows of 2
    assert run_family("tilings", max_m=4, max_n=4).failures == ({"rows": 2, "cols": 3, **record},
                                                                {"rows": 3, "cols": 2, **record})


def test_odd_cell_boards_always_even():
    for rows in range(1, 6, 2):
        for cols in range(1, 6, 2):
            assert count_tilings(rows, cols) == 0
            assert not sweeps._invertible(rows, cols) and math.gcd(rows + 1, cols + 1) > 1
            assert sweeps._tilings_check(rows, cols) == (1, [])


@pytest.mark.parametrize("max_m, max_n, cells", [(12, 12, 144), (13, 13, 169), (21, 13, 273), (13, 21, 273)])
def test_row_cells_are_the_m_major_grid(max_m, max_n, cells):
    want = list(itertools.product(range(1, max_m + 1), range(1, max_n + 1)))
    assert list(FAMILIES["tilings"].make_cells(max_m, max_n)) == want and len(want) == cells


def test_row_walks_no_rows_when_the_grid_has_no_columns():
    # _grid walks no row without columns, so a huge row bound costs nothing; with one column it is lazy
    assert list(FAMILIES["tilings"].make_cells(10**9, 0)) == []
    assert list(itertools.islice(FAMILIES["tilings"].make_cells(10**9, 1), 2)) == [(1, 1), (2, 1)]


def test_row_cost_sums_the_work_of_its_boards():
    """The row's work is the work of its boards, each over 40 and at least 1.

    A board's work is its transfer count's, 2^s * s * long for short side s, plus 8 units a cell for the
    count's per-cell dict and the chase.
    """
    tilings_row = FAMILIES["tilings"]
    bounds = [*range(0, 16), 20, 29, 60]
    for max_m, max_n in itertools.product(bounds, repeat=2):
        boards = tilings_row.make_cells(max_m, max_n)
        work = sum(1 + (2 ** min(r, c) * r * c + 8 * min(r, c) * r * c) // 40 for r, c in boards)
        assert tilings_row.work(max_m, max_n, 10**30) == work, (max_m, max_n)
