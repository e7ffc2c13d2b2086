"""Ideal membership oracles.

Two oracles answer which coefficients lie in the ideal of a generator set:

* ``mod_membership`` decides membership in a finitely generated ideal of
  Z/n exactly.  The ideal generated by values g_1..g_t equals the ideal of
  gcd(g_1, .., g_t, n), so membership is a divisibility test and a witness
  (an explicit linear combination of the generators) falls out of extended
  gcd back-substitution.  The empty generator list denotes the zero ideal.
  The case split needs no witness and tests divisibility by that gcd
  directly, once per label.

* ``generic_closure`` handles the indeterminate-coefficient situation,
  where no concrete values exist.  Given a generator set D drawn from the
  nonconstant coefficients a_1..a_n, b_1..b_m of an inverse pair f*g = 1,
  it computes the least set closed under the derivation rule forced by the
  convolution identities, one rule for both families:

      x_k enters if y_1..y_min(k,|y|) are all in,
      for (x, y) = (a, b) and (b, a),

  together with a well-founded derivation record for each admitted
  element.  Memberships reported by the closure are eventually discharged
  as verified identities by the certificate layer; non-memberships only
  shape the search and are never load-bearing.

The rule itself runs once, on bit lists, in ``_closure_bits``: it returns
the closed bits and the admissions in order.  The case split and the
certificate layer's witness builder read only the bits;
``generic_closure`` turns the admissions into derivation records, the
public view behind ``generic_membership``, which no pipeline path calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .poly import Indeterminate
from .rings import RingHandle, xgcd


@dataclass(frozen=True)
class MembershipDecision:
    """Outcome of a membership test.

    When ``member`` is true and the oracle can produce one, ``witness``
    holds one ring coefficient per input generator (positionally), such
    that r = sum(witness[t] * generators[t]) holds exactly in the ring.
    The closure oracle leaves ``witness`` as None; its witnesses involve
    the defining relations and live in the certificate layer.
    """

    member: bool
    witness: tuple[int, ...] | None = None


def mod_membership(ring: RingHandle, generators: Sequence[int], r: int) -> MembershipDecision:
    """Decide r in (generators) over Z/n, with an explicit witness.

    The ideal equals (g) for g = gcd of the generators and the modulus, so
    r is a member iff g divides r.  The witness coefficients reproduce r
    exactly: they are the Bezout coefficients of the fold, scaled by r/g.
    """
    if not ring.is_modular:
        raise ValueError("mod_membership requires a modular ring")
    n = ring.modulus
    assert n is not None
    gens = [g % n for g in generators]
    value = r % n

    # Fold the generators into gcd(gens, n), maintaining integer Bezout
    # coefficients for the generator part (the n-multiple part vanishes
    # mod n and is not tracked).
    g = n
    coeffs = [0] * len(gens)
    for idx, gen in enumerate(gens):
        g_new, s, t = xgcd(g, gen)
        coeffs = [s * c for c in coeffs]
        coeffs[idx] = t
        g = g_new

    if value % g != 0:
        return MembershipDecision(member=False)
    scale = value // g
    witness = tuple((scale * c) % n for c in coeffs)
    return MembershipDecision(member=True, witness=witness)


@dataclass(frozen=True, order=True)
class IdealLabel:
    """A generator set D among {a_1..a_n, b_1..b_m}, as a pair of bitmasks.

    a_bits has length n and a_bits[i-1] == 1 iff a_i is a generator;
    likewise b_bits for the b side.  Labels of one problem instance form a
    finite lattice under bitwise inclusion.
    """

    a_bits: tuple[int, ...]
    b_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        for bits in (self.a_bits, self.b_bits):
            if bits.count(0) + bits.count(1) != len(bits):
                raise ValueError(f"label bits must be 0 or 1, got {bits}")

    @classmethod
    def root(cls, n: int, m: int) -> IdealLabel:
        """The empty generator set (the zero ideal's label)."""
        return cls((0,) * n, (0,) * m)

    @classmethod
    def from_elements(cls, n: int, m: int, elements: Iterable[Indeterminate]) -> IdealLabel:
        a_bits = [0] * n
        b_bits = [0] * m
        for ind in elements:
            bits = a_bits if ind.kind == "a" else b_bits
            if not 1 <= ind.index <= len(bits):
                raise ValueError(f"{ind} out of range for n={n}, m={m}")
            bits[ind.index - 1] = 1
        return cls(tuple(a_bits), tuple(b_bits))

    @property
    def n(self) -> int:
        return len(self.a_bits)

    @property
    def m(self) -> int:
        return len(self.b_bits)

    def add(self, ind: Indeterminate) -> IdealLabel:
        """The label with ind's bit set."""
        bits = list(self.a_bits if ind.kind == "a" else self.b_bits)
        if not 1 <= ind.index <= len(bits):
            raise ValueError(f"{ind} out of range for label {self.render()}")
        bits[ind.index - 1] = 1
        if ind.kind == "a":
            return IdealLabel(tuple(bits), self.b_bits)
        return IdealLabel(self.a_bits, tuple(bits))

    def generators(self) -> tuple[Indeterminate, ...]:
        out = [Indeterminate.a(i + 1) for i, bit in enumerate(self.a_bits) if bit]
        out.extend(Indeterminate.b(j + 1) for j, bit in enumerate(self.b_bits) if bit)
        return tuple(out)

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


@dataclass(frozen=True, slots=True)
class Derivation:
    """Why one element belongs to a closure.

    rule is "generator" for elements of D itself, or "relation" when the
    element was forced in by the convolution rule; premises lists the
    opposite-family elements the rule consumed (empty when the rule's
    premise range is empty, e.g. any a_i when m = 0).  Premises are always
    admitted strictly earlier, so derivations are well-founded.
    """

    element: Indeterminate
    rule: str
    premises: tuple[Indeterminate, ...]


def _closure_bits(
    a_bits: Sequence[int], b_bits: Sequence[int]
) -> tuple[list[int], list[int], list[tuple[str, int, int]]]:
    """Close a generator set under the rule, on bits alone.

    Each round applies the one rule to (x, y) = (a, b), then (b, a): the
    premises y_1..y_min(k, |y|) of x_k are a prefix of y, so x_k enters
    once min(k, |y|) is at most the length of y's leading run inside.

    Returns the closed a- and b-bits and the admissions (kind, k, needed)
    in admission order: x_k entered on the premises y_1..y_needed.
    """
    inside = {"a": list(a_bits), "b": list(b_bits)}
    admissions = []
    changed = True
    while changed:
        changed = False
        for kind, other in (("a", "b"), ("b", "a")):
            bits, other_bits = inside[kind], inside[other]
            run = other_bits.index(0) if 0 in other_bits else len(other_bits)
            for k, bit in enumerate(bits, 1):
                needed = min(k, len(other_bits))
                if not bit and needed <= run:
                    bits[k - 1] = 1
                    admissions.append((kind, k, needed))
                    changed = True
    return inside["a"], inside["b"], admissions


def generic_closure(label: IdealLabel) -> dict[Indeterminate, Derivation]:
    """Least fixed point of the derivation rules, with derivation records.

    Returns a dict mapping each member of the closure to its derivation:
    generators first, then the relation-admitted elements in admission
    order.  The closure is monotone and idempotent in the generator set.
    Nothing is cached: no pipeline path calls this view.
    """
    given = {"a": label.a_bits, "b": label.b_bits}
    elements = {
        kind: tuple(Indeterminate(kind, k) for k in range(1, len(bits) + 1))
        for kind, bits in given.items()
    }
    derivs = {
        x: Derivation(x, "generator", ())
        for kind, bits in given.items()
        for x, bit in zip(elements[kind], bits)
        if bit
    }
    for kind, k, needed in _closure_bits(label.a_bits, label.b_bits)[2]:
        element = elements[kind][k - 1]
        premises = elements["b" if kind == "a" else "a"][:needed]
        derivs[element] = Derivation(element, "relation", premises)
    return derivs


def generic_membership(label: IdealLabel, element: Indeterminate) -> MembershipDecision:
    """Membership of a nonconstant coefficient, decided by the closure.

    No linear-combination witness is attached here: closure memberships
    are witnessed by polynomial identities built in the certificate layer.
    """
    return MembershipDecision(member=element in generic_closure(label))
