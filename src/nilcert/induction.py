"""Induction over finite posets, and its working instantiation over Z/n.

``run_induction`` realizes the generic pattern: a predicate that either
holds outright at an element or reduces it to the meet of two strictly
larger elements holds everywhere, by a post-order walk on the strict
order, on an explicit stack.  The walk follows the natural inclusion order
of ideals (children are larger), so no order reversal is needed.

The instantiation: radical decomposition over Z/n.  The radical ideals of
Z/n are exactly the ideals (r) for squarefree divisors r of n, so the
lattice is those divisors as plain ints, each ideal given by its
generator: (r) lies in (s) iff s divides r, and their meet is lcm(r, s).
Decomposing the radical rad of one ideal walks only the divisors of rad,
the radical ideals that contain it.
On that lattice the strong primality test supplies the case split (unit
ideal, prime ideal, or an explicit zero-divisor pair), a composite witness
(x, y) reduces r to the meet of gcd(r, x) and gcd(r, y), and evidence (the
list of primes whose ideals intersect to the radical) merges by union.
Only the modulus and divisor given from outside are checked; every
element built from them divides the modulus by construction.

The tests run the same pattern over the label poset of an inverse pair,
with the digraph's case split and certificate extraction's per-label
step, to cross-validate the digraph construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Any, Callable, Union

from .engine import _post_order


class BadInput(ValueError):
    """An argument violates a divisibility or range requirement."""


class NotReducible(Exception):
    """A reduction step does not strictly dominate and meet back to its
    element."""


@dataclass(frozen=True)
class Holds:
    """The predicate holds outright, with the stated evidence."""

    evidence: Any


@dataclass(frozen=True)
class Reduce:
    """The element is the meet of the two strictly larger components."""

    left: Any
    right: Any


GoodnessOutcome = Union[Holds, Reduce]


@dataclass(frozen=True)
class FinitePoset:
    """A finite partial order with a decidable order and a partial meet.

    ``meet(y, z)``, when it returns an element, must be the greatest lower
    bound of y and z; it may return None where no meet exists.
    """

    elements: tuple[Any, ...]
    leq: Callable[[Any, Any], bool]
    meet: Callable[[Any, Any], Any]


def run_induction(
    poset: FinitePoset,
    goodness: Callable[[Any], GoodnessOutcome],
    merge: Callable[[Any, Any, Any, Any, Any], Any],
) -> dict[Any, Any]:
    """Evidence for every element of the poset.

    ``goodness`` classifies an element; ``merge(x, y, z, ev_y, ev_z)``
    turns evidence at the two components of a reduction into evidence at
    their meet.  Reduction components are checked to strictly dominate the
    element and to meet back to it; a violation raises NotReducible.
    Termination: components strictly increase and the poset is finite.
    """
    universe = set(poset.elements)

    def expand(x: Any) -> tuple[Any, tuple[Any, ...]]:
        outcome = goodness(x)
        if isinstance(outcome, Holds):
            return outcome.evidence, ()
        if not isinstance(outcome, Reduce):
            raise TypeError(f"goodness returned {outcome!r}")
        y, z = outcome.left, outcome.right
        for component in (y, z):
            if component not in universe:
                raise NotReducible(f"component {component!r} is not a poset element")
            if not (poset.leq(x, component) and x != component):
                raise NotReducible(f"component {component!r} does not strictly dominate {x!r}")
        if poset.meet(y, z) != x:
            raise NotReducible(f"components of {x!r} do not meet back to it")
        return None, (y, z)

    def finish(x: Any, evidence: Any, children: tuple[Any, ...], values: list[Any]) -> Any:
        return merge(x, *children, *values) if children else evidence

    memo: dict[Any, Any] = {}
    return {x: _post_order(x, expand, finish, memo) for x in poset.elements}


# ----------------------------------------------------------------------
# Modular arithmetic instantiation
# ----------------------------------------------------------------------

# Trial division only; inputs stay at desk scale.
MAX_MODULUS = 10**6


def _factorize(value: int) -> list[tuple[int, int]]:
    factors: list[tuple[int, int]] = []
    rest = value
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return factors


def _check_modulus_divisor(modulus: int, d: int) -> None:
    if not 2 <= modulus <= MAX_MODULUS:
        raise BadInput(f"modulus must lie in 2..{MAX_MODULUS}, got {modulus}")
    if not 1 <= d <= modulus or modulus % d != 0:
        raise BadInput(f"{d} does not divide the modulus {modulus}")


@dataclass(frozen=True)
class UnitIdeal:
    """The ideal is all of Z/n (1 is a generator multiple)."""


@dataclass(frozen=True)
class PrimeIdeal:
    """Products land in the ideal only if a factor does."""


@dataclass(frozen=True)
class CompositeWitness:
    """x*y lies in the ideal while neither x nor y does."""

    x: int
    y: int


SptOutcome = Union[UnitIdeal, PrimeIdeal, CompositeWitness]


def spt_modn(modulus: int, d: int) -> SptOutcome:
    """Strong primality test for the ideal (d) of Z/modulus.

    d = 1 gives the unit ideal and a prime d a prime ideal; otherwise a
    factor split of d supplies the witness pair: the full power of the
    smallest prime against the rest, or p^(e-1) against p for a prime
    power p^e.
    """
    _check_modulus_divisor(modulus, d)
    if d == 1:
        return UnitIdeal()
    factors = _factorize(d)
    if len(factors) == 1 and factors[0][1] == 1:
        return PrimeIdeal()
    p, e = factors[0]
    if len(factors) == 1:
        x = p ** (e - 1)
    else:
        x = p**e
    return CompositeWitness(x, d // x)


def radical_modn(modulus: int, d: int) -> int:
    """Generator of the radical of (d) in Z/modulus.

    x^e eventually lands in (d) iff every prime of d divides x, so the
    radical is generated by the product of the distinct primes of d.  The
    zero ideal is encoded as d = modulus.
    """
    _check_modulus_divisor(modulus, d)
    result = 1
    for p, _ in _factorize(d):
        result *= p
    return result


def radical_ideal_poset(modulus: int) -> FinitePoset:
    """The lattice of radical ideals of Z/modulus, each given by its generator.

    These are the ideals (r) of the squarefree divisors r of the modulus,
    the products of subsets of its primes, in ascending order; (r) lies in
    (s) iff s divides r, and the meet of (r) and (s) is their intersection
    (lcm(r, s)).
    """
    _check_modulus_divisor(modulus, modulus)
    divisors = [1]
    for p, _ in _factorize(modulus):
        divisors += [d * p for d in divisors]
    return FinitePoset(elements=tuple(sorted(divisors)), leq=lambda r, s: r % s == 0, meet=lcm)


def ln_decompose(modulus: int, d: int) -> list[int]:
    """Primes p_1..p_r with (p_1) ∩ .. ∩ (p_r) equal to the radical of (d).

    Runs the induction pattern on the lattice of radical ideals that
    contain the radical of (d), each ideal (r) given by its generator r:
    the squarefree divisors of rad = radical_modn(modulus, d), which is
    ``radical_ideal_poset(rad)``, a sub-lattice of the radical ideals of
    Z/modulus with the same meets.  The strong primality test splits each
    ideal, a composite witness (x, y) reduces r to gcd(r, x) and gcd(r, y),
    both divisors of r, and prime lists merge by union.  The answer is the
    evidence at rad, checked to intersect back to it: lcm(primes) equals
    rad, else RuntimeError.  The unit ideal (rad = 1) is the empty
    intersection.
    """
    _check_modulus_divisor(modulus, d)
    rad = radical_modn(modulus, d)
    if rad == 1:
        return []

    def goodness(r: int) -> GoodnessOutcome:
        outcome = spt_modn(modulus, r)
        if isinstance(outcome, UnitIdeal):
            return Holds(())
        if isinstance(outcome, PrimeIdeal):
            return Holds((r,))
        return Reduce(gcd(r, outcome.x), gcd(r, outcome.y))

    def merge(parent: int, left: int, right: int, ev_left, ev_right):
        return tuple(sorted(set(ev_left) | set(ev_right)))

    primes = list(run_induction(radical_ideal_poset(rad), goodness, merge)[rad])
    if lcm(*primes) != rad:
        raise RuntimeError("decomposition does not intersect to the radical")
    return primes
