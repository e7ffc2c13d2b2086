"""Brute-force oracles shared by the test suite.

Everything here is intentionally independent of the package internals:
ideals are enumerated element by element, radicals by powering, the grid
exponent by direct dynamic programming, inverse pairs by power-series
division, and the rule closure as a plain fixed point over elements.
Labels are built bit by bit, from the documented mask layout (x_k at bit
size-k, x_1 the most significant); only the package's value types
(labels, indeterminates) are borrowed.  These are the reference values the
implementation is checked against.  ``reference_parse`` is the canonical
text parser as it was before it summed factor tables: one packing step per
factor.  ``reference_poly``, ``reference_terms`` and ``reference_evaluate``
pack, decode and evaluate polynomials keyed by tuple monomials (sorted
(indeterminate, exponent) pairs, the empty tuple for 1) over the documented
layout: the exponent of a_i in the field at bit FIELD_BITS*(2*i), that of
b_j at FIELD_BITS*(2*j + 1).  MultiPoly has no tuple-keyed API, so they
borrow its packed term map: ``_terms`` to read it, ``_new`` to build one.

The one exception is the label-poset runner, ``label_poset`` and
``nc_run_induction``: it reruns the induction over every label with the
package's own case split and per-label witness step, so that agreement
with the digraph cross-validates the two constructions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd

from nilcert import (
    CaseTag,
    FinitePoset,
    Holds,
    IdealLabel,
    Indeterminate,
    MultiPoly,
    PolyParseError,
    ProblemInstance,
    Reduce,
    avar,
    case_split,
    run_induction,
)
from nilcert.certificates import MembershipWitness, local_witnesses, node_witness
from nilcert.induction import GoodnessOutcome
from nilcert.poly import EXPONENT_LIMIT, FIELD_BITS, MAX_INDEX, _new


def pack(bits) -> int:
    """The mask of one family's bits, x_1's first: x_k at bit size-k."""
    mask = 0
    for bit in bits:
        assert bit in (0, 1), bits
        mask = 2 * mask + bit
    return mask


def bits(mask: int, size: int) -> list[int]:
    """The bits of one family's mask, x_1's first."""
    return [mask >> (size - k) & 1 for k in range(1, size + 1)]


def from_bits(a_bits, b_bits) -> IdealLabel:
    """The label of two bit sequences, one per family, x_1's first."""
    return IdealLabel(len(a_bits), len(b_bits), pack(a_bits), pack(b_bits))


def label(n: int, m: int, *names: str) -> IdealLabel:
    """The label with the named generators set, e.g. label(2, 1, "a2", "b1")."""
    family_bits = {"a": [0] * n, "b": [0] * m}
    for name in names:
        family, k = family_bits[name[0]], int(name[1:])
        if not 1 <= k <= len(family):
            raise ValueError(f"{name} out of range for n={n}, m={m}")
        family[k - 1] = 1
    return from_bits(family_bits["a"], family_bits["b"])


def add(lab: IdealLabel, element: Indeterminate) -> IdealLabel:
    """The label with one more generator, its bit set in a fresh copy."""
    family_bits = {"a": bits(lab.a, lab.n), "b": bits(lab.b, lab.m)}
    family_bits[element.kind][element.index - 1] = 1
    return from_bits(family_bits["a"], family_bits["b"])


def generators(lab: IdealLabel) -> list[Indeterminate]:
    """The generators of a label, a-family first, by index."""
    out = [Indeterminate.a(i) for i, bit in enumerate(bits(lab.a, lab.n), 1) if bit]
    return out + [Indeterminate.b(j) for j, bit in enumerate(bits(lab.b, lab.m), 1) if bit]


def leq(small: IdealLabel, big: IdealLabel) -> bool:
    """Inclusion of generator sets of one size, bit by bit."""
    assert (small.n, small.m) == (big.n, big.m), (small, big)
    return small.a & ~big.a == 0 and small.b & ~big.b == 0


def meet(x: IdealLabel, y: IdealLabel) -> IdealLabel:
    """Intersection of generator sets of one size: the greatest lower bound."""
    assert (x.n, x.m) == (y.n, y.m), (x, y)
    return IdealLabel(x.n, x.m, x.a & y.a, x.b & y.b)


@dataclass(frozen=True)
class Admission:
    """Why an element is in the closure: rule is "generator" or "relation";
    premises are the opposite-family elements the relation rule consumed."""

    rule: str
    premises: tuple[Indeterminate, ...] = ()


def reference_closure(lab: IdealLabel) -> dict[Indeterminate, Admission]:
    """The rule closure as a plain fixed point: every round scans the
    a-family, then the b-family, admitting each element whose full premise
    tuple is already in.  Keys are in admission order, generators first."""
    sizes = {"a": lab.n, "b": lab.m}
    rule = {
        Indeterminate(kind, k): tuple(Indeterminate(other, q) for q in range(1, min(k, sizes[other]) + 1))
        for kind, other in (("a", "b"), ("b", "a"))
        for k in range(1, sizes[kind] + 1)
    }
    admitted = {gen: Admission("generator") for gen in generators(lab)}
    changed = True
    while changed:
        changed = False
        for element, premises in rule.items():
            if element not in admitted and all(p in admitted for p in premises):
                admitted[element] = Admission("relation", premises)
                changed = True
    return admitted


def reference_closure_bits(lab: IdealLabel) -> tuple[list[int], list[int]]:
    """reference_closure as one bit list per family."""
    closure = reference_closure(lab)
    return (
        [int(Indeterminate.a(i) in closure) for i in range(1, lab.n + 1)],
        [int(Indeterminate.b(j) in closure) for j in range(1, lab.m + 1)],
    )


def assignment(a: tuple[int, ...], b: tuple[int, ...]) -> dict[Indeterminate, int]:
    """a_i -> a[i] and b_j -> b[j], for evaluating polynomials at concrete
    coefficients."""
    out = {Indeterminate.a(i): v for i, v in enumerate(a)}
    out.update({Indeterminate.b(j): v for j, v in enumerate(b)})
    return out


@lru_cache(maxsize=None)
def ideal_elements(modulus: int, generators: tuple[int, ...]) -> frozenset[int]:
    """The ideal of Z/modulus generated by the given values, enumerated as
    the closure of {0} under adding generators."""
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = (x + g) % modulus
            if y not in members:
                members.add(y)
                frontier.append(y)
    return frozenset(members)


@lru_cache(maxsize=None)
def radical_elements(modulus: int, generators: tuple[int, ...]) -> frozenset[int]:
    """All x with x^e inside the ideal for some e <= modulus."""
    ideal = ideal_elements(modulus, generators)
    out = set()
    for x in range(modulus):
        for e in range(1, modulus + 1):
            if pow(x, e, modulus) in ideal:
                out.add(x)
                break
    return frozenset(out)


def key_lemma_holds(modulus: int, d: int, a: int, b: int) -> bool:
    """Whether √(I + Ra) ∩ √(I + Rb) equals √(I + Rab) for I = (d) in
    Z/modulus, both sides enumerated element by element."""

    def radical(*gens: int) -> frozenset[int]:
        return radical_elements(modulus, tuple(sorted({g % modulus for g in gens})))

    return radical(d, a) & radical(d, b) == radical(d, a * b)


def all_labels(n: int, m: int) -> list[IdealLabel]:
    """All 2^(n+m) generator-set labels of size (n, m), built bit by bit."""
    return [
        from_bits(a_bits, b_bits) for a_bits in product((0, 1), repeat=n) for b_bits in product((0, 1), repeat=m)
    ]


def label_poset(n: int, m: int) -> FinitePoset:
    """All 2^(n+m) generator-set labels under bitwise inclusion."""
    return FinitePoset(elements=tuple(all_labels(n, m)), leq=leq, meet=meet)


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
        tag, _ = case_split(label, instance)
        tags[label] = tag
        if tag.is_leaf:
            return Holds(step(label, ()))
        return Reduce(*tag.children(label))

    def merge(parent, left_label, right_label, ev_left, ev_right):
        return step(parent, (ev_left, ev_right))

    evidence = run_induction(label_poset(instance.n, instance.m), goodness, merge)
    return evidence, tags


def grid_exponent(n: int, m: int) -> int:
    """Dynamic programming over the exponent grid: boundary cells are 1,
    interior cells are the sum of the two neighbours with one fewer
    outstanding coefficient."""
    if n == 0 or m == 0:
        return 1
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        for p in range(m + 1):
            table[k][p] = 1 if k == 0 or p == 0 else table[k - 1][p] + table[k][p - 1]
    return table[n][m]


def polynomial_inverse(modulus: int, f: tuple[int, ...], max_terms: int = 64) -> tuple[int, ...] | None:
    """The inverse of f in Z/modulus[T], or None.

    Power-series division: b_0 = a_0^(-1) and
    b_k = -a_0^(-1) * sum_{i=1..min(k,n)} a_i b_{k-i}.  The series is the
    unique inverse; f is a unit in the polynomial ring iff it terminates,
    detected by deg(f) consecutive zero coefficients.
    """
    a0 = f[0] % modulus
    if gcd(a0, modulus) != 1:
        return None
    n = len(f) - 1
    inv_a0 = pow(a0, -1, modulus)
    b = [inv_a0]
    zeros = 0
    for k in range(1, max_terms + 1):
        s = sum(f[i] * b[k - i] for i in range(1, min(k, n) + 1))
        bk = (-inv_a0 * s) % modulus
        b.append(bk)
        zeros = zeros + 1 if bk == 0 else 0
        if zeros >= max(n, 1):
            break
    else:
        return None
    while b and b[-1] == 0:
        b.pop()
    if not b:
        return None
    # sanity: the convolution must be the unit vector
    conv = [0] * (len(f) + len(b) - 1)
    for i, ai in enumerate(f):
        for j, bj in enumerate(b):
            conv[i + j] = (conv[i + j] + ai * bj) % modulus
    if conv[0] != 1 or any(conv[1:]):
        return None
    return tuple(b)


def random_inverse_pair(rng, degree: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """A seeded inverse pair (modulus, f, g) with deg f = degree.

    The modulus is a product of one or two prime powers p^2..p^4; f has a
    unit constant term and every other coefficient a multiple of the
    primes, so nilpotent, with a nonzero leading one.  Such an f is a unit,
    and g is its inverse by power-series division.
    """
    primes = rng.sample((2, 3, 5, 7), rng.randint(1, 2))
    modulus, rad = 1, 1
    for p in primes:
        modulus, rad = modulus * p ** rng.randint(2, 4), rad * p
    a0 = rng.choice([a for a in range(1, modulus) if gcd(a, modulus) == 1])
    body = [rad * rng.randrange(modulus // rad) for _ in range(degree - 1)]
    f = (a0, *body, rad * rng.randrange(1, modulus // rad))
    g = polynomial_inverse(modulus, f)
    assert g is not None, (modulus, f)
    return modulus, f, g


def unit_pairs(modulus: int, max_deg_f: int = 3, max_deg_g: int = 3):
    """All inverse pairs (f, g) over Z/modulus with the stated true degrees.

    f runs over every coefficient list of degree 1..max_deg_f (nonzero
    leading coefficient); its inverse is unique, so this exhausts the pairs
    with deg g <= max_deg_g.
    """
    for n in range(1, max_deg_f + 1):
        for body in product(range(modulus), repeat=n - 1):
            for a0 in range(modulus):
                if gcd(a0, modulus) != 1:
                    continue
                for lead in range(1, modulus):
                    f = (a0, *body, lead)
                    g = polynomial_inverse(modulus, f)
                    if g is not None and len(g) - 1 <= max_deg_g:
                        yield f, g


_FACTOR_RE = re.compile(r"([ab])(\d+)(?:\^(\d+))?\Z")


def _reference_factor(piece: str, chunk: str) -> tuple[int, int]:
    """Bit shift and exponent of one factor such as a2^3."""
    match = _FACTOR_RE.match(piece)
    if match is None:
        raise PolyParseError(f"bad factor {piece!r} in term {chunk!r}")
    kind, index, exp = match.groups()
    e = int(exp) if exp else 1
    if e < 1:
        raise PolyParseError(f"bad exponent in factor {piece!r}")
    if e >= EXPONENT_LIMIT:
        raise OverflowError(f"exponent in {piece!r} does not fit a {FIELD_BITS}-bit field")
    if int(index) > MAX_INDEX:
        raise OverflowError(f"{kind}{int(index)}: packed monomials hold indices up to {MAX_INDEX}")
    return _shift(Indeterminate(kind, int(index))), e


def reference_parse(text: str) -> tuple[dict[int, int], int]:
    """The packed terms and the exponent bound of a canonical text form,
    one factor at a time: each factor's field must still be empty before
    its exponent is added.  Raises what MultiPoly.parse raises, with the
    same message, at the same fault."""
    text = text.strip()
    if text == "0":
        return {}, 0
    terms: dict[int, int] = {}
    # (shift, exponent) of every distinct factor string met so far.
    factors: dict[str, tuple[int, int]] = {}
    for chunk in text.split(" + "):
        pieces = chunk.split("*")
        try:
            coeff = int(pieces[0])
        except ValueError:
            raise PolyParseError(f"bad coefficient in term {chunk!r}") from None
        if coeff == 0:
            raise PolyParseError(f"zero coefficient in term {chunk!r}")
        packed = 0
        for piece in pieces[1:]:
            factor = factors.get(piece)
            if factor is None:
                factor = factors[piece] = _reference_factor(piece, chunk)
            shift, e = factor
            if packed >> shift & (EXPONENT_LIMIT - 1):
                raise PolyParseError(f"repeated indeterminate in term {chunk!r}")
            packed += e << shift
        if packed in terms:
            raise PolyParseError(f"repeated monomial in {text!r}")
        terms[packed] = coeff
    return terms, max((e for _, e in factors.values()), default=0)


def _shift(ind: Indeterminate) -> int:
    return FIELD_BITS * (2 * ind.index + (ind.kind == "b"))


def reference_poly(terms: dict[tuple, int]) -> MultiPoly:
    """The polynomial of a map from tuple monomials to coefficients, each
    indeterminate at most once per monomial, packed field by field; equal
    monomials merge and zero coefficients drop.  Its exponent bound is its
    largest exponent, as for a parsed polynomial."""
    packed_terms: dict[int, int] = {}
    bound = 0
    for mono, coeff in terms.items():
        packed = 0
        for ind, e in mono:
            assert 0 < e < EXPONENT_LIMIT and ind.index <= MAX_INDEX, mono
            assert not packed >> _shift(ind) & (EXPONENT_LIMIT - 1), mono
            packed += e << _shift(ind)
            bound = max(bound, e)
        packed_terms[packed] = packed_terms.get(packed, 0) + coeff
    return _new({packed: coeff for packed, coeff in packed_terms.items() if coeff}, bound)


def reference_terms(p: MultiPoly) -> dict[tuple, int]:
    """The terms of p keyed by tuple monomials, decoded one field at a time."""
    out = {}
    for packed, coeff in p._terms.items():
        mono = []
        slot = 0
        while packed:
            e = packed & (EXPONENT_LIMIT - 1)
            if e:
                mono.append((Indeterminate("ab"[slot % 2], slot // 2), e))
            packed >>= FIELD_BITS
            slot += 1
        out[tuple(sorted(mono))] = coeff
    return out


def reference_evaluate(p: MultiPoly, values: dict[Indeterminate, int], modulus: int | None) -> int:
    """p at the given values, in Z/modulus (canonical in [0, modulus)) or
    in Z for None; KeyError for an indeterminate without a value."""
    total = 0
    for mono, coeff in reference_terms(p).items():
        for ind, e in mono:
            coeff *= pow(values[ind], e, modulus)
        total += coeff
    return total if modulus is None else total % modulus
