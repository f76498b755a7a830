"""Classical number-theory primitives.

These serve as independent ground truth for the residue symbols that the
billiards and checkers modules compute geometrically.  A symbol value is a
plain int restricted to {-1, 0, +1}.
"""

import math

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIMORIAL = math.prod(_BASES)
_EXACT_BELOW = 33 * 10**23  # these bases are proven exact below 3.317e24 (Sorenson and Webster, 2017)


def is_odd_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the 13 prime bases 2..41; raises ValueError from 3.3e24 on."""
    if n >= _EXACT_BELOW:
        raise ValueError(f"primality is proven exact only below 3.3e24, got {n}")
    if n < 3 or math.gcd(n, _PRIMORIAL) > 1:
        return n in _BASES[1:]
    if n < 43 * 43:  # a composite this small has a prime factor up to 41
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _BASES:  # a is a strong liar iff a^d = 1 or a^(d 2^i) = -1 for some i < s
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            if (x := x * x % n) == n - 1:
                break
        else:  # the squarings never pass -1 (they may reach 1 first): n is composite
            return False
    return True


def euler_symbol(a: int, p: int) -> int:
    """Legendre symbol (a|p) via a^((p-1)/2) mod p, for an odd prime p: 0 when p divides a."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return euler_row(p, [a])[0]


def euler_row(p: int, ms: list[int]) -> list[int]:
    """euler_symbol(a, p) for each a of ms, p already proven an odd prime: a^((p-1)/2) mod p is 0, 1 or p - 1."""
    return [r if (r := pow(a, (p - 1) // 2, p)) < 2 else -1 for a in ms]


def jacobi_symbol(a: int, n: int) -> int:
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


def _factor(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1, by trial division by 2 and the odd candidates up to the square root."""
    factors, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            factors[p], n = factors.get(p, 0) + 1, n // p
        p += 1 if p == 2 else 2
    if n > 1:  # no factor up to its square root: a prime above every one found
        factors[n] = 1
    return factors


def _cycle_count(m: int, groups: list[tuple[int, int, frozenset[int]]]) -> int:
    """#cycles of x -> m*x mod n on {0, ..., n-1}, for gcd(m, n) = 1, from the unit groups of n's divisors.

    The phi(d) points x with gcd(x, n) = n/d lie on cycles of length ord_d(m), so #cycles sums
    phi(d)/ord_d(m) over the divisors d of n.  ord_d(m) divides phi(d), the order of the unit group
    mod d, and is phi(d) stripped of each prime q while m^(order/q) = 1 mod d (Cohen, Alg. 1.4.3).
    """
    cycles = 0
    for d, phi, primes in groups:
        order = phi
        for q in primes:
            while order % q == 0 and pow(m, order // q, d) == 1:
                order //= q
        cycles += phi // order
    return cycles


def zolotarev_perm_sign(m: int, n: int) -> int:
    """Sign of the permutation x -> m*x mod n on {0, ..., n-1}: (-1)^(n - #cycles).  Requires gcd(m, n) = 1."""
    return zolotarev_row(n, [m])[0]


def zolotarev_row(n: int, ms: list[int]) -> list[int]:
    """zolotarev_perm_sign(m, n) for each m of ms, from one factorisation of n; nothing outlives the call.

    phi(d) is the product of p^(e-1) (p - 1) over the prime powers p^e of a divisor d, so its primes
    are those of each p - 1 and each p with e > 1.
    """
    if n < 1 or any(m < 1 for m in ms):
        raise ValueError("arguments must be positive")
    for m in ms:
        if math.gcd(m, n) != 1:
            raise ValueError(f"gcd({m}, {n}) > 1: the map x -> {m}x mod {n} is not a permutation")
    groups = [(1, 1, frozenset())]  # (d, phi(d), the primes of phi(d)) for every divisor d; d = 1 fixes 0
    for p, k in _factor(n).items():
        below = frozenset(_factor(p - 1))
        groups += [(d * p**e, phi * p ** (e - 1) * (p - 1), primes | below | ({p} if e > 1 else set()))
                   for d, phi, primes in groups for e in range(1, k + 1)]
    return [-1 if (n - _cycle_count(m, groups)) % 2 else 1 for m in ms]
