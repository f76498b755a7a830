"""Classical number-theory primitives.

These serve as independent ground truth for the residue symbols that the
billiards and checkers modules compute geometrically.  A symbol value is a
plain int restricted to {-1, 0, +1}.
"""

from __future__ import annotations

import math

SymbolValue = int  # always one of -1, 0, +1


def is_odd_prime(n: int) -> bool:
    """Trial-division primality; intended for small sweep ranges."""
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def euler_symbol(a: int, p: int) -> SymbolValue:
    """Legendre symbol (a|p) via a^((p-1)/2) mod p.

    p must be an odd prime.  Returns 0 when p divides a.
    """
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    # Unreachable after the primality check; would mean p is composite.
    raise ArithmeticError(f"a^((p-1)/2) mod p = {r} not in {{1, p-1}}; {p} is not prime")


def jacobi_symbol(a: int, n: int) -> SymbolValue:
    """Jacobi symbol (a|n) for odd positive n, with (a|1) = +1.

    Standard recursion: factor out 2s using the (2|n) rule, flip per
    reciprocity, reduce.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"denominator must be odd and positive, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def zolotarev_perm_sign(m: int, n: int) -> SymbolValue:
    """Sign of the permutation x -> m*x mod n on {0, ..., n-1}: (-1)^(n - #cycles).

    The phi(d) points x with gcd(x, n) = n/d lie on cycles of length ord_d(m), so #cycles sums
    phi(d)/ord_d(m) over the divisors d of n, found by trial division.  Requires gcd(m, n) = 1.
    """
    if m < 1 or n < 1:
        raise ValueError("arguments must be positive")
    if math.gcd(m, n) != 1:
        raise ValueError(f"gcd({m}, {n}) > 1: the map x -> {m}x mod {n} is not a permutation")
    divisors, rest, p = [(1, 1)], n, 2  # (d, phi(d)) for every divisor d of n found so far
    while rest > 1:
        p = p if p * p <= rest else rest  # no factor up to its square root: rest is prime
        found, factor = divisors, p - 1  # phi(d*p) is phi(d)*(p-1) if p does not divide d, else phi(d)*p
        while rest % p == 0:
            rest //= p
            found = [(d * p, f * factor) for d, f in found]
            divisors, factor = divisors + found, p
        p += 1
    cycles = 0
    for d, phi in divisors:
        order, power = 1, m % d  # ord_d(m); d = 1 has power 0 and the one cycle {0}
        while power > 1:
            power = power * m % d
            order += 1
        cycles += phi // order
    return -1 if (n - cycles) % 2 else 1
