"""Ideal membership oracles.

Two oracles answer which coefficients lie in the ideal of a generator set:

* ``mod_membership`` decides membership in a finitely generated ideal of
  Z/n exactly, for a modulus n >= 2 given as a plain int.  The ideal
  generated by values g_1..g_t equals the ideal of gcd(g_1, .., g_t, n),
  so membership is a divisibility test and a witness (an explicit linear
  combination of the generators) falls out of extended gcd
  back-substitution.  The empty generator list denotes the zero ideal.
  The case split needs no witness: ``mod_closure_bits`` tests
  divisibility by that gcd directly, once per label.

* ``closure_bits`` handles the indeterminate-coefficient situation,
  where no concrete values exist.  Given a generator set D drawn from the
  nonconstant coefficients a_1..a_n, b_1..b_m of an inverse pair f*g = 1,
  it computes the least set closed under the derivation rule forced by the
  convolution identities, one rule for both families:

      x_k enters if y_1..y_min(k,|y|) are all in,
      for (x, y) = (a, b) and (b, a).

  The premises are a prefix of y, so the rule has a closed form: x_k is in
  the closure iff it is a generator, or k <= run(y), or y is all ones,
  where run(y) is the length of y's leading run of set bits.  The closure
  is two int masks in the layout ``IdealLabel`` states; the case split
  reads them, and the certificate layer reads only a label's own bits.
  Memberships reported by the closure are eventually discharged as
  verified identities by the certificate layer; non-memberships only
  shape the search and are never load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple, Sequence

from .rings import xgcd


@dataclass(frozen=True)
class MembershipDecision:
    """Outcome of a membership test.

    When ``member`` is true, ``witness`` holds one coefficient in Z/n per
    input generator (positionally), such that
    r = sum(witness[t] * generators[t]) holds exactly in Z/n; it is
    None otherwise.  Closure memberships have no such decision: their
    witnesses involve the defining relations and live in the certificate
    layer.
    """

    member: bool
    witness: tuple[int, ...] | None = None


def mod_membership(modulus: int, generators: Sequence[int], r: int) -> MembershipDecision:
    """Decide r in (generators) over Z/modulus, with an explicit witness.

    The ideal equals (g) for g = gcd of the generators and the modulus, so
    r is a member iff g divides r.  The witness coefficients reproduce r
    exactly: they are the Bezout coefficients of the fold, scaled by r/g.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    gens = [g % modulus for g in generators]
    value = r % modulus

    # Fold the generators into gcd(gens, modulus), maintaining integer
    # Bezout coefficients for the generator part (the modulus-multiple part
    # vanishes and is not tracked).
    g = modulus
    coeffs = [0] * len(gens)
    for idx, gen in enumerate(gens):
        g_new, s, t = xgcd(g, gen)
        coeffs = [s * c for c in coeffs]
        coeffs[idx] = t
        g = g_new

    if value % g != 0:
        return MembershipDecision(member=False)
    scale = value // g
    witness = tuple((scale * c) % modulus for c in coeffs)
    return MembershipDecision(member=True, witness=witness)


class IdealLabel(NamedTuple("IdealLabel", [("n", int), ("m", int), ("a", int), ("b", int)])):
    """A generator set D among {a_1..a_n, b_1..b_m}, as two int masks.

    This module alone fixes the layout, which closed masks share: a_i is
    bit n-i of ``a`` and b_j bit m-j of ``b``, so that within one size int
    order is the order of the bit strings ``render`` writes.  A label is a
    tuple ``(n, m, a, b)``, so the dicts of the digraph and its walks,
    which labels key, hash and compare it in C; it equals the plain tuple
    of its fields.
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int, a: int, b: int) -> IdealLabel:
        # A negative mask shifts to -1, so one test refuses it too.
        if a >> n or b >> m:
            raise ValueError(f"label masks must fit {n} and {m} bits, got {a} and {b}")
        return tuple.__new__(cls, (n, m, a, b))

    @classmethod
    def _make(cls, iterable) -> IdealLabel:
        # Through __new__, so that _replace refuses what it does.
        return cls(*iterable)

    @classmethod
    def root(cls, n: int, m: int) -> IdealLabel:
        """The empty generator set (the zero ideal's label)."""
        return cls(n, m, 0, 0)

    @classmethod
    def tail(cls, n: int, m: int, a_count: int, b_count: int) -> IdealLabel:
        """The last a_count a's and the last b_count b's as generators."""
        return cls(n, m, (1 << a_count) - 1, (1 << b_count) - 1)

    def bit(self, kind: str, k: int) -> int:
        """The mask of x_k alone, x = a or b, for k in 1..n or 1..m; it
        sets x_k in a label and tests it in a closed mask."""
        return 1 << ((self.n if kind == "a" else self.m) - k)

    def has(self, kind: str, k: int) -> bool:
        """Whether x_k is a generator, x = a or b; False outside 1..n or 1..m."""
        if kind == "a":
            return 0 < k <= self.n and self.a >> (self.n - k) & 1 == 1
        return 0 < k <= self.m and self.b >> (self.m - k) & 1 == 1

    def render(self) -> str:
        a_text = _digits(self.a, self.n)
        if self.m == 0:
            return f"({a_text})"
        return f"({a_text},{_digits(self.b, self.m)})"

    def __str__(self) -> str:
        return self.render()


def _digits(mask: int, size: int) -> str:
    """The size binary digits of mask, the first index's first."""
    return bin(mask | 1 << size)[3:]


def last_clear(mask: int, size: int) -> int:
    """The largest k in 1..size with x_k clear in mask, from its lowest
    clear bit; 0 when every bit is set."""
    return size + 1 - (~mask & (mask + 1)).bit_length()


def mod_closure_bits(label: IdealLabel, modulus: int, a: Sequence[int], b: Sequence[int]) -> tuple[int, int]:
    """The closed a- and b-masks over Z/modulus, with x_k = x[k]: the ideal
    of the generators is (g), g = gcd(modulus, their values), so x_k lies in
    it iff g divides x[k].  One gcd per label decides every coefficient."""
    chosen = [modulus]
    for mask, values in ((label.a, a), (label.b, b)):
        # x_k is bit len(x)-1-k, and each lowest set bit names one generator.
        while mask:
            low = mask & -mask
            chosen.append(values[len(values) - low.bit_length()])
            mask ^= low
    g = gcd(*chosen)
    closed_a = closed_b = 0
    for value in a[1:]:
        closed_a = closed_a << 1 | (value % g == 0)
    for value in b[1:]:
        closed_b = closed_b << 1 | (value % g == 0)
    return closed_a, closed_b


def closure_bits(label: IdealLabel) -> tuple[int, int]:
    """Close a generator set under the rule, on masks alone.

    The premises y_1..y_min(k, |y|) of x_k are a prefix of y, so x_k is in
    the closure iff it is a generator, or k <= run(y), or y is all ones,
    where run(y) is the length of y's leading run of set bits (an empty y
    is all ones).  Each round ORs both prefix fills in; the runs only grow,
    and once neither fill reaches past its family's run the masks are
    closed.  Returns the closed a- and b-masks.
    """
    n, m, a, b = label.n, label.m, label.a, label.b
    full_a, full_b = (1 << n) - 1, (1 << m) - 1
    while True:
        run_a, run_b = n - (a ^ full_a).bit_length(), m - (b ^ full_b).bit_length()
        fill_a = n if run_b == m else min(run_b, n)
        fill_b = m if run_a == n else min(run_a, m)
        if fill_a <= run_a and fill_b <= run_b:
            return a, b
        a |= full_a ^ full_a >> fill_a
        b |= full_b ^ full_b >> fill_b
