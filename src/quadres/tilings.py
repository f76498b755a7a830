"""Domino tilings of the checkerboard, counted exactly.

The number of perfect domino tilings of a rows-by-cols board is odd
exactly when the board's checker-to-pebble map is invertible mod 2,
which happens exactly when gcd(rows+1, cols+1) = 1; the `tilings` sweep
compares the three.  The count here is an independent combinatorial
oracle: a transfer count over row profiles, with no determinant, rank or
gcd, and it imports no other quadres module.
"""


def count_tilings(rows: int, cols: int) -> int:
    """Exact number of perfect domino tilings, by a broken-profile transfer count.

    Cells are filled in scan order, a line of the shorter side at a time.  Bit c
    of a profile is set when the next cell of column c is already covered by a
    vertical domino from the line before; each profile carries its number of
    partial tilings.  Kasteleyn (1961) gives the totals in closed form.  The work
    is at most 2^min(rows, cols) * rows * cols profile steps.
    """
    if rows < 0 or cols < 0:
        raise ValueError("dimensions must be nonnegative")
    width, height = sorted((rows, cols))
    ways = {0: 1}  # the empty board has the empty tiling
    for _ in range(height):
        for col in range(width):
            bit = 1 << col
            after: dict[int, int] = {}
            for profile, count in ways.items():
                if profile & bit:  # covered from the line before: nothing reaches the next line
                    nexts: tuple[int, ...] = (profile ^ bit,)
                elif col + 1 < width and not profile & bit << 1:  # into the next line, or along this one
                    nexts = (profile | bit, profile | bit << 1)
                else:  # the next cell of this line is taken: into the next line only
                    nexts = (profile | bit,)
                for nxt in nexts:
                    after[nxt] = after.get(nxt, 0) + count
            ways = after
    return ways.get(0, 0)

