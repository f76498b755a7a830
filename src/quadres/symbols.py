"""The billiards residue symbol (m|n) and its closed forms.

(m|n) is the product of the bottom-bounce signs of the m-by-n billiard
path, 0 when gcd(m, n) > 1, and +1 for an empty product.  It extends the
Legendre symbol to arbitrary positive m and n, including even n, where it
agrees with the permutation-sign (Zolotarev) definition rather than the
Kronecker symbol: in particular (5|8) = +1.  The supplements and the
even-denominator form are closed forms; the identities that link (m|n)
to them and to (n|m) are checked in `sweeps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SymbolEvidence:
    """A symbol value: (-1) to the number of negative bottom bounces, or 0 when gcd(m, n) > 1."""

    value: int


_VALUE_ONLY = {value: SymbolEvidence(value) for value in (-1, 0, 1)}


def _floor_sum(count: int, n: int, a: int) -> int:
    """Sum of floor(a*k/n) for 0 <= k < count, by Euclid-style descent in O(log n)."""
    total, a = a // n * (count * (count - 1) >> 1), a % n
    top = a * count
    while top >= n:  # the same lattice points with the axes swapped, a and b then reduced mod n
        count, b = top // n, top % n
        n, a = a, n
        total += a // n * (count * (count - 1) >> 1) + b // n * count
        a, b = a % n, b % n
        top = a * count + b
    return total


def billiard_symbol(m: int, n: int) -> SymbolEvidence:
    """(m|n) from one floor sum, without walking the bounces."""
    if m < 1 or n < 1:
        raise ValueError(f"sides must be positive, got {m}x{n}")
    return _VALUE_ONLY[_value(m, n)]


def _value(m: int, n: int) -> int:
    """(m|n) as a plain int, for m >= 0 and n >= 1, which it does not check.

    The bottom bounce at time 2mk (0 < k < n/2) is negative iff floor(2mk/n),
    the side-wall contacts before it, is odd; so (m|n) is (-1) to their sum.
    """
    return 0 if math.gcd(m, n) != 1 else -1 if _floor_sum((n + 1) // 2, n, 2 * m) % 2 else 1


def negative_bounce_count(m: int, n: int) -> int:
    """The number of negative bottom bounces of the m-by-n path, in O(log n); 0 when gcd > 1.

    The bounce at time 2mk is negative iff floor(2mk/n) is odd, so the count is
    sum floor(2mk/n) - 2 sum floor(mk/n) over 0 <= k < n/2, with no bounce listed.
    """
    if m < 1 or n < 1:
        raise ValueError(f"sides must be positive, got {m}x{n}")
    if math.gcd(m, n) != 1:
        return 0
    half = (n + 1) // 2
    return _floor_sum(half, n, 2 * m) - 2 * _floor_sum(half, n, m)


def symbol_supplement_minus_one(n: int) -> int:
    """Closed form for (n-1|n): +1 iff n = 1 mod 4.  n odd, >= 3."""
    _require_odd(n)
    return 1 if n % 4 == 1 else -1


def symbol_supplement_two(n: int) -> int:
    """Closed form for (2|n): +1 iff n = +-1 mod 8.  n odd, >= 3."""
    _require_odd(n)
    return 1 if n % 8 in (1, 7) else -1


def _require_odd(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")


def mod4_symbol(m: int, d: int) -> int:
    """Closed form for (m|d), m odd and d even, coprime: +1 when d = 2 mod 4, else (-1)^((m-1)/2)."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be odd and positive, got {m}")
    if d < 2 or d % 2 == 1:
        raise ValueError(f"d must be even and positive, got {d}")
    if math.gcd(m, d) != 1:
        raise ValueError(f"m and d must be coprime, got gcd={math.gcd(m, d)}")
    if d % 4 == 2:
        return 1
    return -1 if (m - 1) // 2 % 2 else 1
