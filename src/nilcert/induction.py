"""Induction over finite posets, and its two working instantiations.

``run_induction`` realizes the generic pattern: a predicate that either
holds outright at an element or reduces it to the meet of two strictly
larger elements holds everywhere, by a post-order walk on the strict
order, on an explicit stack.  The walk follows the natural inclusion order
of ideals (children are larger), so no order reversal is needed.

Instantiation one: radical decomposition over Z/n.  The radical ideals of
Z/n are exactly the ideals (r) for squarefree divisors r of n, so the
lattice is those divisors as plain ints, each ideal given by its
generator: (r) lies in (s) iff s divides r, and their meet is lcm(r, s).
On that lattice the strong primality test supplies the case split (unit
ideal, prime ideal, or an explicit zero-divisor pair), a composite witness
(x, y) reduces r to the meet of gcd(r, x) and gcd(r, y), and evidence (the
list of primes whose ideals intersect to the radical) merges by union.
Only the modulus and divisor given from outside are checked; every
element built from them divides the modulus by construction.

Instantiation two: the label poset of an inverse pair, where goodness is
the digraph's case split and its tag's children, and the evidence (an
exponent plus its membership witness) comes from certificate extraction's
own per-label step.  Running the pattern reproduces the digraph
construction, which cross-validates the two modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from typing import Any, Callable, Union

from .certificates import MembershipWitness, local_witnesses, node_witness
from .engine import CaseTag, ProblemInstance, _post_order, case_split
from .oracles import IdealLabel
from .poly import avar


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

    Runs the induction pattern on the radical-ideal lattice, each ideal (r)
    given by its generator r: the strong primality test splits each ideal,
    a composite witness (x, y) reduces r to gcd(r, x) and gcd(r, y), and
    prime lists merge by union.  The answer is the evidence at the radical
    of (d), checked to intersect back to it: lcm(primes) equals
    radical_modn(modulus, d), else RuntimeError.
    """
    _check_modulus_divisor(modulus, d)
    rad = radical_modn(modulus, d)

    def goodness(r: int) -> GoodnessOutcome:
        outcome = spt_modn(modulus, r)
        if isinstance(outcome, UnitIdeal):
            return Holds(())
        if isinstance(outcome, PrimeIdeal):
            return Holds((r,))
        return Reduce(gcd(r, outcome.x), gcd(r, outcome.y))

    def merge(parent: int, left: int, right: int, ev_left, ev_right):
        return tuple(sorted(set(ev_left) | set(ev_right)))

    primes = list(run_induction(radical_ideal_poset(modulus), goodness, merge)[rad])
    if lcm(*primes) != rad:
        raise RuntimeError("decomposition does not intersect to the radical")
    return primes


# Brute-force enumeration bound for the key-lemma checker.
MAX_BRUTE_FORCE_MODULUS = 512


# Both caches keep 1024 entries, so sweeping all (d, a) at modulus 512 stays near 53 MB RSS.
@lru_cache(maxsize=1024)
def _ideal_elements(modulus: int, gens: tuple[int, ...]) -> frozenset[int]:
    """Additive closure of the generators in Z/modulus."""
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = (x + g) % modulus
            if y not in members:
                members.add(y)
                frontier.append(y)
    return frozenset(members)


@lru_cache(maxsize=1024)
def _radical_of_ideal(modulus: int, ideal: frozenset[int]) -> frozenset[int]:
    """All x with some power x^e, e <= modulus, inside the ideal."""
    out = set()
    for x in range(modulus):
        for e in range(1, modulus + 1):
            if pow(x, e, modulus) in ideal:
                out.add(x)
                break
    return frozenset(out)


def _radical_set(modulus: int, *gens: int) -> frozenset[int]:
    normalized = tuple(sorted({g % modulus for g in gens}))
    return _radical_of_ideal(modulus, _ideal_elements(modulus, normalized))


def check_key_lemma(modulus: int, d: int, a: int, b: int) -> bool:
    """Exhaustively compare √(I + Ra) ∩ √(I + Rb) with √(I + Rab), I = (d).

    Both sides are enumerated element by element in Z/modulus (powering up
    to the modulus); the check passes iff the two sets coincide.
    """
    _check_modulus_divisor(modulus, d)
    if modulus > MAX_BRUTE_FORCE_MODULUS:
        raise BadInput(f"brute force is capped at modulus {MAX_BRUTE_FORCE_MODULUS}")
    left = _radical_set(modulus, d, a) & _radical_set(modulus, d, b)
    right = _radical_set(modulus, d, (a * b) % modulus)
    return left == right


# ----------------------------------------------------------------------
# Label-poset instantiation (cross-validation of the digraph)
# ----------------------------------------------------------------------


def label_poset(n: int, m: int) -> FinitePoset:
    """All 2^(n+m) generator-set labels under bitwise inclusion."""
    labels = tuple(
        IdealLabel(a_bits, b_bits)
        for a_bits in product((0, 1), repeat=n)
        for b_bits in product((0, 1), repeat=m)
    )
    return FinitePoset(elements=labels, leq=IdealLabel.issubset, meet=IdealLabel.meet)


def nc_run_induction(
    instance: ProblemInstance,
    target_index: int,
) -> tuple[dict[IdealLabel, tuple[int, MembershipWitness]], dict[IdealLabel, CaseTag]]:
    """Re-derive exponents and witnesses for u = a_target on every label.

    The case split and its tag's children supply goodness; leaf evidence
    and the merge are one ``node_witness`` step each.  Returns the evidence
    map together with the case tag recorded at each label; on the labels
    the digraph reaches, the tags coincide with the digraph's.
    """
    if not instance.is_generic:
        raise ValueError("the label-poset run needs an indeterminate-coefficient instance")
    if not 1 <= target_index <= instance.n:
        raise ValueError(f"target index must lie in 1..{instance.n}")
    tags: dict[IdealLabel, CaseTag] = {}

    def step(label: IdealLabel, children: tuple) -> tuple[int, MembershipWitness]:
        (local,) = local_witnesses(label, tags[label], [target_index])
        return node_witness(local, children, avar(target_index), tags[label])

    def goodness(label: IdealLabel) -> GoodnessOutcome:
        tag = case_split(label, instance)
        tags[label] = tag
        if tag.is_leaf:
            return Holds(step(label, ()))
        return Reduce(*tag.children(label))

    def merge(parent, left_label, right_label, ev_left, ev_right):
        return step(parent, (ev_left, ev_right))

    evidence = run_induction(label_poset(instance.n, instance.m), goodness, merge)
    return evidence, tags
