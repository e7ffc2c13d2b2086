"""Integer arithmetic behind Z/N: the extended Euclidean algorithm."""

from __future__ import annotations


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, s, t) with g = gcd(a, b) = s*a + t*b.

    For nonnegative inputs the returned g is nonnegative.
    """
    r0, r1 = a, b
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while r1 != 0:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0 < 0:
        return -r0, -s0, -t0
    return r0, s0, t0
