"""Concrete coefficient rings with decidable equality.

Two variants are supported: the integers, and the modular ring Z/n for a
modulus n >= 2.  Modular values are always kept canonical in [0, n); every
arithmetic helper reduces its result immediately.
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class RingHandle:
    """The integers (modulus None) or the modular ring Z/modulus."""

    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.modulus is not None and self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    @classmethod
    def integers(cls) -> RingHandle:
        return cls(None)

    @classmethod
    def mod(cls, n: int) -> RingHandle:
        return cls(n)

    @property
    def is_modular(self) -> bool:
        return self.modulus is not None

    @property
    def zero(self) -> int:
        return 0

    def canon(self, x: int) -> int:
        """Reduce x to its canonical representative."""
        if self.modulus is None:
            return x
        return x % self.modulus

    def add(self, x: int, y: int) -> int:
        return self.canon(x + y)

    def mul(self, x: int, y: int) -> int:
        return self.canon(x * y)

    def power(self, x: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        if self.modulus is None:
            return x**e
        return pow(x, e, self.modulus)

    def __str__(self) -> str:
        return "Z" if self.modulus is None else f"Z/{self.modulus}"
