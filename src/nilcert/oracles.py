"""Ideal membership oracles.

Two oracles answer which coefficients lie in the ideal of a generator set:

* ``mod_membership`` decides membership in a finitely generated ideal of
  Z/n exactly, for a modulus n >= 2 given as a plain int.  The ideal
  generated by values g_1..g_t equals the ideal of gcd(g_1, .., g_t, n),
  so membership is a divisibility test and a witness (an explicit linear
  combination of the generators) falls out of extended gcd
  back-substitution.  The empty generator list denotes the zero ideal.
  The case split needs no witness and tests divisibility by that gcd
  directly, once per label.

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
  is two bit lists, one per family; the case split and the certificate
  layer's witness builder both read them.  Memberships reported by the
  closure are eventually discharged as verified identities by the
  certificate layer; non-memberships only shape the search and are never
  load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


@dataclass(frozen=True, order=True)
class IdealLabel:
    """A generator set D among {a_1..a_n, b_1..b_m}, as a pair of bitmasks.

    a_bits has length n and a_bits[i-1] == 1 iff a_i is a generator;
    likewise b_bits for the b side.  Labels of one problem instance form a
    finite lattice under bitwise inclusion.  A label is hashed once, when
    it is made: labels key every dict of the digraph and its walks.
    """

    a_bits: tuple[int, ...]
    b_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        for bits in (self.a_bits, self.b_bits):
            if bits.count(0) + bits.count(1) != len(bits):
                raise ValueError(f"label bits must be 0 or 1, got {bits}")
        object.__setattr__(self, "_hash", hash((self.a_bits, self.b_bits)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def root(cls, n: int, m: int) -> IdealLabel:
        """The empty generator set (the zero ideal's label)."""
        return cls((0,) * n, (0,) * m)

    @property
    def n(self) -> int:
        return len(self.a_bits)

    @property
    def m(self) -> int:
        return len(self.b_bits)

    def issubset(self, other: IdealLabel) -> bool:
        return (
            all(x <= y for x, y in zip(self.a_bits, other.a_bits, strict=True))
            and all(x <= y for x, y in zip(self.b_bits, other.b_bits, strict=True))
        )

    def meet(self, other: IdealLabel) -> IdealLabel:
        """Bitwise intersection: the greatest lower bound in the lattice."""
        return IdealLabel(
            tuple(x & y for x, y in zip(self.a_bits, other.a_bits, strict=True)),
            tuple(x & y for x, y in zip(self.b_bits, other.b_bits, strict=True)),
        )

    def render(self) -> str:
        a_text = "".join(str(bit) for bit in self.a_bits)
        b_text = "".join(str(bit) for bit in self.b_bits)
        if self.m == 0:
            return f"({a_text})"
        return f"({a_text},{b_text})"

    def __str__(self) -> str:
        return self.render()


def _leading_run(bits: Sequence[int]) -> int:
    """The number of leading set bits."""
    return bits.index(0) if 0 in bits else len(bits)


def closure_bits(a_bits: Sequence[int], b_bits: Sequence[int]) -> tuple[list[int], list[int]]:
    """Close a generator set under the rule, on bits alone.

    The premises y_1..y_min(k, |y|) of x_k are a prefix of y, so x_k is in
    the closure iff it is a generator, or k <= run(y), or y is all ones,
    where run(y) is the length of y's leading run of set bits (an empty y
    is all ones).  Each round fills both prefixes by slice; the runs only
    grow, and once neither fill reaches past its family's run the bits are
    closed.  Returns the closed a- and b-bits.
    """
    a, b = list(a_bits), list(b_bits)
    while True:
        run_a, run_b = _leading_run(a), _leading_run(b)
        fill_a = len(a) if run_b == len(b) else min(run_b, len(a))
        fill_b = len(b) if run_a == len(a) else min(run_a, len(b))
        if fill_a <= run_a and fill_b <= run_b:
            return a, b
        a[:fill_a] = [1] * fill_a
        b[:fill_b] = [1] * fill_b
