"""Explicit polynomial-identity certificates.

Everything here is an identity in the free ring Z[a0..an, b0..bm].  Write
c_k for the convolution polynomials of the pair (so c_k collects the
degree-k products a_i*b_j), and r0 = a0*b0 - 1 for the unit relation.  A
membership witness for a subject s at a label D is the coefficients of an
identity

    s = sum_{d in D} genCoeffs[d] * d
      + sum_{k=1..n+m} relCoeffs[k] * c_k
      + unitCoeff * r0

holding exactly; it certifies s in (D) once the relations c_k = 0 (k >= 1)
and a0*b0 = 1 are imposed.  One identity, isolating a_p*b_q out of
c_{p+q},

    a_p*b_q = c_{p+q} - sum_{q'>q} a_{p+q-q'}*b_q' - sum_{p'>p} a_p'*b_{p+q-p'},

builds every node witness (``_isolation``), each higher a_p' and b_q' on
the right a generator of the node's label.  Every label that
``engine.grow_digraph`` reaches is a tail, the last A a's and the last B
b's: the root is one; a tail with A < n and B < m has empty leading runs,
so it is its own closure and splits as branch(n-A, m-B) into two tails;
once one family is complete it is a leaf; an early-stop digraph is part
of the plain one.  So three closed forms serve every node, each reading
only the label's own bits, and none closes the label again:

* the product witness of a_i*b_j at a branch(i, j): maximality of i and j
  makes every a_p (p > i) and b_q (q > j) a generator;

* the witness of a target a_k that is a generator: a_k itself;

* the witness of any other target a_k where its proof ends, at a leaf
  or an early stop, which the closure rule admits because b_1..b_min(k,m)
  are generators, exactly the premises that isolating a_k*b_0 needs; and
  a0*b0 = 1 + r0 turns that product back into a_k,

      a_k = a0 * (a_k*b_0) - a_k*r0 = a0*c_k - sum_q a0*a_(k-q)*b_q - a_k*r0.

A form whose premises are not all generators of the label raises
NotInClosure, and the node's check fails.  The tests keep the general
builder, which replaces each premise in the closure by its own witness,
as the reference these forms are checked against.

``combine`` multiplies two child witnesses u^k = v + s*a_i and
u^l = w + t*b_j into u^(k+l) = v*u^l + s*a_i*w + s*t*(a_i*b_j) at the
parent, substituting the product witness for a_i*b_j.  ``node_witness``,
the one induction step per label, calls it at every branch, for the
digraph walk and the tests' label-poset runner alike.

One key layout names a witness's coefficients from the node witnesses to
the root: a_i has the key i << 2, b_j the key j << 2 | 1, c_k the key
k << 2 | 2 (``_REL``) and r0 the one key 3 (``_UNIT``).  A witness takes
three forms over it:

* a keyed term map (``KeyedWitness``), in which ``local_witnesses``
  builds every node witness and ``_identity_holds`` checks it: the term
  c*x^mono of the coefficient under key k is the entry
  mono << _key_bits(n, m) | k.  Every term of a closed form is +-1 times
  one monomial, so each is one entry;

* a coefficient map, key -> MultiPoly, zeros dropped, as
  ``poly.split_keyed`` returns it from a keyed term map: what
  ``node_witness`` and ``combine`` read and return, for ``certify`` only;

* a ``MembershipWitness``, the relation and unit coefficients of a root
  identity, as a dump holds them: ``certify`` makes one from each root's
  coefficient map (``membership_witness``), where no generator key is
  left, and ``load_certificate`` one from a dump.

A witness is its coefficients alone: its subject and label are stated by
whoever checks it, never read from the witness.

Two routines expand an identity, one per form it is checked in.
``_identity_holds`` checks a keyed node witness in one loop over its
terms, skipping zeros, testing each key as it meets it (a generator
against the label, a relation index against 1..n+m, the unit key against
3), and adding the expansion into one term map, from which the subject is
then taken off.  ``_expansion_minus`` expands a root witness, from
``load_certificate`` or ``certify``: sum relCoeffs[k]*c_k + unitCoeff*r0 -
subject, added into one term map by ``poly.sum_of_products``.  Both derive
each c_k's terms from (n, m) alone, and an identity holds when nothing is
left.

A digraph's proof is checked on the grid of tails T(A, B), the last A
a's and the last B b's.  ``checked_exponents`` walks it once for all its
targets, children first from the root T(0, 0), and reads the node stored
at each tail it meets, never the stored order.  That node must be there,
tagged leaf or branch(n-A, m-B), with the tag's children (a leaf at an
interior tail ends a single early-stop digraph), and no other node may be
stored.  a_i0 goes on past each branch, with early stop iff i0 <= n-A
(a_i0 is no generator of the tail), and the stored closed a-bits must
then be the grid's own: the label's a-bits while B < m, all n at B = m.
``local_witnesses`` is the one source of the identities the proofs read:
the product of a_i*b_j at each branch(i, j), which every target shares,
and at most two leaf identities per target a_i0, a_i0 itself where it is
a generator and the relation form at B = m; a target with no closed form
where its proof ends fails the check.  Each distinct identity is built
and expanded once per call, where first used, and kept: a later use only
tests its generator keys against the tail (a_x needs x > n-A, b_y needs
y > m-B).  By the key lemma (u^k in I + (D, a_i), u^l in I + (D, b_j)
and a_i*b_j in I + (D) give u^(k+l) in I + (D)) that proves u^e = 0
without expanding u^e, in at most n*m + 2n expansions and the memory of
the digraph and of about a row of the grid's exponents, each dropped once
its last parent is done, while the root identity grows exponentially in
n + m.

That root identity is built only for a dump, by ``certify`` alone (for
one target, ``extract_certificate``): the same walk then also takes each
position's ``node_witness`` step over the identities it has checked, each
split once into its coefficient map, up to the root, where the generator
sum is empty; a failed check yields none.  That leaves the
nilpotency certificate u^e = sum relCoeffs[k]*c_k + unitCoeff*r0, which
``verify_symbolic`` checks independently by expanding it, less u^e, with
``_expansion_minus``.  It, the dump and the load refuse the same
out-of-range certificates (``_check_ranges``).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from .engine import CaseTag, Digraph, ProblemInstance, _post_order
from .oracles import IdealLabel
from .poly import (
    EXPONENT_LIMIT,
    FIELD_BITS,
    MAX_INDEX,
    MultiPoly,
    avar,
    bvar,
    packed,
    split_keyed,
    sum_of_products,
)


class NotInClosure(Exception):
    """No closed form gives the witness at this label: a premise of the
    form is no generator of the label, or the index is out of range."""


# The polynomial a0*b0 - 1.  MultiPoly is immutable, so one value serves
# every witness and every expansion.
UNIT_RELATION = avar(0) * bvar(0) - 1


# One run at (n, m) reads at most n+m+1 relations.  1024 entries hold every
# relation of every size with n+m <= 13 at once, which covers the sizes
# whose certificates are built routinely, yet a process no longer keeps
# every relation it ever expanded.
@lru_cache(maxsize=1024)
def relation_poly(n: int, m: int, k: int) -> MultiPoly:
    """The defining relation polynomial c_k = sum over i+j = k of a_i*b_j."""
    if not 0 <= k <= n + m:
        raise ValueError(f"relation index {k} out of range 0..{n + m}")
    c = MultiPoly.zero()
    for i in range(max(0, k - m), min(k, n) + 1):
        c = c + avar(i) * bvar(k - i)
    return c


@dataclass
class MembershipWitness:
    """The coefficients of a root identity
    u^e = sum rel_coeffs[k]*c_k + unit_coeff*r0, as a dump holds them.

    Neither the subject u^e nor the size is stored: a checker expands the
    right-hand side against the subject and size it expects, so it never
    trusts the builder's claim.  Zero coefficients are dropped.
    """

    rel_coeffs: dict[int, MultiPoly] = field(default_factory=dict)
    unit_coeff: MultiPoly = field(default_factory=MultiPoly.zero)


_MINUS_ONE = MultiPoly.const(-1)


def _expansion_minus(witness: MembershipWitness, subject: MultiPoly, n: int, m: int) -> MultiPoly:
    """sum relCoeffs[k]*c_k + unitCoeff*r0 - subject, as one sum of
    products, with c_k the relations of size (n, m): the expansion of a
    root certificate."""
    pairs = [(subject, _MINUS_ONE), (witness.unit_coeff, UNIT_RELATION)]
    pairs += [(coeff, relation_poly(n, m, k)) for k, coeff in witness.rel_coeffs.items()]
    return sum_of_products(pairs)


# MultiPoly is immutable, so one zero serves every witness without a unit
# coefficient.
_ZERO = MultiPoly.zero()


# The keys of a witness's coefficients: an index shifted past two tag bits,
# 0 for generator a_i and 1 for generator b_j (``kind == "b"``), _REL for
# relation c_k, and _UNIT itself for the unit coefficient.
_REL, _UNIT = 2, 3


def _key_bits(n: int, m: int) -> int:
    """The key bits of a keyed witness at size (n, m): enough for every
    index up to n+m and a tag."""
    return ((n + m) << 2 | 3).bit_length()


@dataclass(slots=True)
class KeyedWitness:
    """A node witness as ``local_witnesses`` builds it: the coefficients
    of the identity s = sum genCoeffs[d]*d + sum relCoeffs[k]*c_k +
    unitCoeff*r0 as one keyed term map, the term c*x^mono of the
    coefficient under key k stored as the entry mono << _key_bits(n, m) |
    k -> c, with (n, m) the size of its label.

    Zero coefficients may stay in, and ``bound`` bounds every exponent of
    every coefficient.  It stores no subject and no label: the node check
    reads it at the label and for the subject it expects.  The check
    trusts its form as ``poly`` trusts a MultiPoly's terms (packed
    monomials are non-negative, none has an exponent above ``bound``); a
    source that reads witnesses from outside must check that first.
    """

    terms: dict[int, int]
    bound: int


def membership_witness(coefficients: dict[int, MultiPoly]) -> MembershipWitness:
    """The ``MembershipWitness`` of a root's coefficient map: its relation
    coefficients and its unit coefficient.  No generator key is left at
    the root, whose label is empty: the node check refuses a generator
    key outside each node's label, and ``combine`` drops the generator
    each child splits off."""
    rels = {key >> 2: coeff for key, coeff in coefficients.items() if key & 3 == _REL}
    return MembershipWitness(rels, coefficients.get(_UNIT, _ZERO))


def _isolation(label: IdealLabel, p: int, q: int, scale: int) -> dict[int, int]:
    """The keyed terms of c_{p+q} - a_p*b_q less c_{p+q}'s own term, each
    scaled by the keyed monomial scale: -a_{p+q-y}*b_y for each y in
    q+1..min(p+q, m), then -a_x*b_{p+q-x} for each x in p+1..min(p+q, n).
    Raises NotInClosure unless every such b_y and a_x is a generator of
    the label."""
    n, m, a_gens, b_gens = label
    bits, k = _key_bits(n, m), p + q
    terms: dict[int, int] = {}
    for kind, mask, size, low in (("b", b_gens, m, q), ("a", a_gens, n, p)):
        other = "a" if kind == "b" else "b"
        for x in range(low + 1, min(k, size) + 1):
            if not mask >> (size - x) & 1:
                raise NotInClosure(f"{kind}{x} is no generator of {label.render()}")
            terms[scale + packed(other, k - x, bits) + (x << 2 | (kind == "b"))] = -1
    return terms


def gauss_product_witness(i: int, j: int, label: IdealLabel) -> KeyedWitness:
    """Witness for a_i*b_j at a label whose case analysis gave branch(i, j):
    a_i*b_j = c_{i+j} - sum_{q>j} a_{i+j-q}*b_q - sum_{p>i} a_p*b_{i+j-p},
    each such b_q and a_p a generator of the label (NotInClosure
    otherwise), as maximality of i and j makes it at every tail."""
    if not (1 <= i <= label.n and 1 <= j <= label.m):
        raise ValueError(f"branch indices ({i},{j}) out of range for n={label.n}, m={label.m}")
    terms = _isolation(label, i, j, 0)
    bound = 1 if terms else 0
    # No correction term has degree 0, so c_{i+j}'s own term 1 is new.
    terms[(i + j) << 2 | _REL] = 1
    return KeyedWitness(terms, bound)


def _leaf_witness(label: IdealLabel, k: int) -> KeyedWitness:
    """Witness for a target a_k where its proof ends: a_k itself when it
    is a generator of the label; otherwise, for k in 1..n with
    b_1..b_min(k,m) generators, a_k = a0*c_k - sum_q a0*a_(k-q)*b_q -
    a_k*r0, the parts isolating a_k*b_0 scaled by a0, since
    a0*b0 = 1 + r0.  Raises NotInClosure otherwise."""
    n, m = label.n, label.m
    if label.has("a", k):
        return KeyedWitness({k << 2: 1}, 0)
    if not 1 <= k <= n:
        raise NotInClosure(f"a{k} is out of range 1..{n}")
    bits = _key_bits(n, m)
    a0 = packed("a", 0, bits)
    terms = _isolation(label, k, 0, a0)
    bound = 2 if terms else 1
    # No correction term is keyed c_k or r0: these two are new.
    terms[a0 + (k << 2 | _REL)] = 1
    terms[packed("a", k, bits) + _UNIT] = -1
    return KeyedWitness(terms, bound)


def combine(
    left: dict[int, MultiPoly],
    right: dict[int, MultiPoly],
    product: dict[int, MultiPoly],
    tag: CaseTag,
    u_l: MultiPoly,
) -> dict[int, MultiPoly]:
    """Merge the coefficient maps of child witnesses of u^k (at D + a_i) and
    u^l (at D + b_j) into that of a witness of u^(k+l) at the parent D,
    whose case tag is branch(i, j) and whose product witness of a_i*b_j
    has the coefficient map product.

    Splitting off the child generators as u^k = v + s*a_i and
    u^l = w + t*b_j gives u^(k+l) = v*u^l + s*a_i*w + s*t*(a_i*b_j); the
    last term is replaced by the product witness.  The three terms are one
    combination, each child without its split-off generator, and each
    coefficient of it one sum of products.  The caller vouches for the
    labels; the node-local check re-derives them.
    """
    a_key, b_key = tag.i << 2, tag.j << 2 | 1
    s = left.get(a_key, _ZERO)
    t = right.get(b_key, _ZERO)
    pairs: dict[int, list] = {}
    for factor, coefficients in ((u_l, left), (s * avar(tag.i), right), (s * t, product)):
        for key, coeff in coefficients.items():
            if key != a_key and key != b_key:
                pairs.setdefault(key, []).append((coeff, factor))
    combined = zip(pairs, map(sum_of_products, pairs.values()))
    return {key: coeff for key, coeff in combined if not coeff.is_zero}


@dataclass
class NilpotencyCertificate:
    """Root-level witness: u^e written in the defining relations alone."""

    n: int
    m: int
    target_index: int
    exponent: int
    root_witness: MembershipWitness


def _check_ranges(cert: NilpotencyCertificate) -> None:
    """ValueError unless 1 <= n <= MAX_INDEX, 0 <= m <= MAX_INDEX, 1 <= i0 <= n,
    1 <= e < EXPONENT_LIMIT and every relation index lies in 1..n+m
    (c_0 = a0*b0 is 1, not 0, modulo them)."""
    n, m, i0, e, rels = cert.n, cert.m, cert.target_index, cert.exponent, cert.root_witness.rel_coeffs
    if not (1 <= n <= MAX_INDEX and 0 <= m <= MAX_INDEX and 1 <= i0 <= n and 1 <= e < EXPONENT_LIMIT):
        raise ValueError(f"sizes out of range: n={n}, m={m}, i0={i0}, e={e}")
    if not all(1 <= k <= n + m for k in rels):
        raise ValueError(f"relation indices {sorted(rels)} out of range 1..{n + m}")


def local_witnesses(label: IdealLabel, tag: CaseTag, target_indices: Sequence[int]) -> list[KeyedWitness]:
    """A node's own witnesses, built afresh in closed form as keyed term
    maps (``KeyedWitness``): at a branch(i, j) the product witness of
    a_i*b_j, which every target shares; at a leaf the witness of each
    target a_i0.  Raises NotInClosure where a form's premises are not all
    generators of the label."""
    if not tag.is_leaf:
        return [gauss_product_witness(tag.i, tag.j, label)]
    return [_leaf_witness(label, i0) for i0 in target_indices]


def node_witness(
    local: dict[int, MultiPoly], children: Sequence[tuple[int, dict[int, MultiPoly]]], u: MultiPoly, tag: CaseTag
) -> tuple[int, dict[int, MultiPoly]]:
    """The induction step at one label, whose case tag is tag, on
    coefficient maps: (1, local) at a leaf, where local is the witness of
    u; at a branch(i, j), the children's (k, u^k) at label + a_i and
    (l, u^l) at label + b_j combined through the product witness local
    into (k + l, u^(k+l))."""
    if not children:
        return 1, local
    (k, left), (l, right) = children
    return k + l, combine(left, right, local, tag, u**l)


_LEAF = CaseTag.leaf()


class _Refused(Exception):
    """A node or an identity that the grid walk reads fails its check."""


def _least_tail(witness: KeyedWitness, n: int, m: int) -> tuple[int, int]:
    """The least (A, B) such that every generator key of the witness with a
    nonzero coefficient is a generator of the tail of the last A a's and
    the last B b's: a_x needs x > n-A, and b_y needs y > m-B."""
    mask = (1 << _key_bits(n, m)) - 1
    least = [0, 0]
    for composite, coeff in witness.terms.items():
        key = composite & mask
        if coeff and key & 3 < _REL:
            kind = key & 1
            least[kind] = max(least[kind], (m if kind else n) + 1 - (key >> 2))
    return least[0], least[1]


def _walk(
    digraph: Digraph,
    target_indices: Sequence[int],
    early_stop: bool,
    source: Callable,
    combined: bool,
) -> dict[int, tuple[int, dict[int, MultiPoly] | None]] | None:
    """The walk of ``checked_exponents`` and ``certify`` over the grid of
    tails: each target's root (exponent, coefficient map of a witness of
    u^exponent), the map None unless ``combined``; None when the check
    fails, as it does when source raises NotInClosure."""
    if not digraph.generic:
        raise ValueError("certificates are extracted from indeterminate-coefficient runs")
    n, m, nodes = digraph.n, digraph.m, digraph.nodes
    targets = list(dict.fromkeys(target_indices))
    if not targets or not all(1 <= i0 <= n for i0 in targets):
        raise ValueError(f"target indices must be given, each in 1..{n}, got {tuple(target_indices)}")
    if digraph.root != IdealLabel.root(n, m):
        return None
    bits, full, ascending = _key_bits(n, m), (1 << n) - 1, sorted(targets)
    # The leaf identities of a_i0, keyed i0 where a_i0 is a generator and
    # -i0 where it is not -> the least tail (A, B) and the step (1, its
    # coefficient map) of each, built and expanded at its first use; each
    # later use tests only its generator keys.
    leaves: dict[int, tuple[int, int, tuple[int, dict[int, MultiPoly] | None]]] = {}
    memo: dict[tuple[int, int], object] = {}
    read = 0

    def upto(i: int) -> list[int]:
        """The targets a_i0 with i0 <= i, or every target without early_stop."""
        return ascending[: bisect_right(ascending, i)] if early_stop else ascending

    def checked(label: IdealLabel, tag: CaseTag, chosen: list[int], subjects: list[MultiPoly]) -> list[KeyedWitness]:
        """source's witnesses at label for tag and the targets chosen, one
        per subject, each of whose identities holds for its subject."""
        local = source(label, tag, chosen)
        if len(local) != len(subjects):
            raise _Refused
        for witness, subject in zip(local, subjects):
            if not _identity_holds(witness, label, subject):
                raise _Refused
        return local

    def split(witness: KeyedWitness) -> dict[int, MultiPoly] | None:
        return split_keyed(witness.terms, bits, witness.bound) if combined else None

    def expand(position: tuple[int, int]):
        nonlocal read
        A, B = position
        label = IdealLabel.tail(n, m, A, B)
        node = nodes.get(label)
        if (
            node is None
            or not node.tag.is_leaf and node.tag != (n - A, m - B)
            or node.children != node.tag.children(label)
            or early_stop and node.closed_a != (label.a if B < m else full)
        ):
            raise _Refused
        read += 1
        # With early_stop a_i0 goes on past branch(n-A, m-B) iff it is no
        # generator of the tail.
        going = [] if node.tag.is_leaf else upto(n - A)
        return (label, node, going), ((A + 1, B), (A, B + 1)) if going else ()

    def finish(position: tuple[int, int], payload, children, steps):
        A, B = position
        label, node, going = payload
        # Those that may come from a parent and do not go on stop here: the
        # parent (A-1, B) lets a_i0 on iff i0 <= n-A+1.
        value, fresh, held = {}, [], n - A
        for i0 in upto(held + 1)[len(going) :]:
            kept = leaves.get(i0 if i0 > held else -i0)
            if kept is None:
                fresh.append(i0)
            elif A < kept[0] or B < kept[1]:
                raise _Refused
            else:
                value[i0] = kept[2]
        if fresh:
            for i0, witness in zip(fresh, checked(label, _LEAF, fresh, [avar(i0) for i0 in fresh])):
                kept = leaves[i0 if i0 > held else -i0] = *_least_tail(witness, n, m), (1, split(witness))
                value[i0] = kept[2]
        if going:
            tag, (down, right) = node.tag, steps
            (product,) = checked(label, tag, going, [avar(tag.i) * bvar(tag.j)])
            product = split(product)
            for i0 in going:
                if combined:
                    value[i0] = node_witness(product, (down[i0], right[i0]), avar(i0), tag)
                else:
                    value[i0] = down[i0][0] + right[i0][0], None
            # Children first and down before right, the down child's other
            # parent, (A+1, B-1), is done before this one is met; the right
            # child's, (A-1, B+1), is a branch only if A > 0 and B+1 < m.
            del memo[children[0]]
            if not A or B + 1 == m:
                del memo[children[1]]
        # Without early_stop every target has the stored exponent.
        if not early_stop and value[ascending[0]][0] != node.exponent:
            raise _Refused
        return value

    try:
        root = _post_order((0, 0), expand, finish, memo)
    except (_Refused, NotInClosure):
        return None
    if read != len(nodes):
        return None
    return {i0: root[i0] for i0 in targets}


def check_node_local(
    digraph: Digraph, *target_indices: int, early_stop: bool = False, source: Callable = local_witnesses
) -> bool:
    """Exact node-local check of the digraph's claim u^e = 0, for each
    u = a_i0 with i0 in target_indices, by the key lemma one node at a
    time: ``checked_exponents(...) is not None``.  A ``source`` is called
    as ``local_witnesses`` is, once per distinct identity at the first grid
    position that uses it, and returns what it returns: a list of
    ``KeyedWitness``."""
    return checked_exponents(digraph, *target_indices, early_stop=early_stop, source=source) is not None


def checked_exponents(
    digraph: Digraph, *target_indices: int, early_stop: bool = False, source: Callable = local_witnesses
) -> dict[int, int] | None:
    """Each target's exponent e with u^e = 0 for u = a_i0, proved by the
    key lemma one node at a time; None when the check fails.

    A target's proof is the digraph or, with ``early_stop``, its early-stop
    digraph (``engine.early_stop_cut``), which ends at the first tail
    T(A, B) that holds a_i0.  One walk over the grid of tails checks every
    target's proof by the rules in the module docstring.
    ``source(label, tag, targets)`` returns a list of ``KeyedWitness``: one
    leaf identity per target at a leaf, the product witness at a branch.
    ``local_witnesses`` builds them, and a test may give a fake.  It is
    called once per distinct identity, at the first position that uses it:
    each branch's product with the targets that go on past it, and a_i0's
    leaf identity once where a_i0 is a generator of the tail and once where
    it is not.  Each witness must key only generators of that tail,
    relations 1..n+m and the unit coefficient, and expand, less its
    subject, to zero in the relations of the tail's size; each later use
    tests only its generator keys against its own tail.  The root label
    must be empty, which leaves u^e in I, the ideal of the relations.
    Raises ValueError for a concrete digraph, or when no target is given or
    one lies outside 1..n.
    """
    walked = _walk(digraph, target_indices, early_stop, source, False)
    return None if walked is None else {i0: exponent for i0, (exponent, _) in walked.items()}


def certify(digraph: Digraph, *target_indices: int, early_stop: bool = False) -> list[NilpotencyCertificate] | None:
    """The grid walk of ``checked_exponents``, which also takes each
    position's ``node_witness`` step over the identities it checks, up each
    target's proof, and returns the root certificates in the order of
    target_indices (a repeated target is certified once); None whenever
    the check fails.  Each identity is split into its coefficient map once,
    where it is first built: a product witness that several targets share
    is combined into each of their steps at its branch, and a leaf identity
    is each target's step wherever its proof ends in that form.  A
    position's steps are dropped once its last parent has combined them.
    Raises ValueError as ``checked_exponents`` does."""
    walked = _walk(digraph, target_indices, early_stop, local_witnesses, True)
    if walked is None:
        return None
    n, m = digraph.n, digraph.m
    return [NilpotencyCertificate(n, m, i0, e, membership_witness(root)) for i0, (e, root) in walked.items()]


def _identity_holds(witness: KeyedWitness, label: IdealLabel, subject: MultiPoly) -> bool:
    """The keyed witness keys only generators of label, relations 1..n+m
    and the unit coefficient, and its expansion less subject is the zero
    polynomial, with (n, m) the label's size.

    One loop over its terms adds the expansion into one term map: a zero
    coefficient is skipped; each key is tested when first met, a generator
    against the label, a relation index against 1..n+m and a unit key
    against _UNIT itself (r0 has no index); a generator term is shifted by
    its indeterminate, a relation or unit term times each term of c_k or
    r0.  Then the subject's terms are taken off, each
    of which must be there with its coefficient, and nothing else may be
    left.  Raises OverflowError where ``poly.sum_of_products`` would for
    the same products."""
    n, m = label.n, label.m
    bits = _key_bits(n, m)
    mask = (1 << bits) - 1
    headroom = EXPONENT_LIMIT - witness.bound  # a factor's bound must stay below it
    factors: dict[int, dict[int, int]] = {}  # key -> the terms of x_k, c_k or r0
    out: dict[int, int] = {}
    get = out.get
    for composite, coeff in witness.terms.items():
        if not coeff:
            continue
        key = composite & mask
        factor = factors.get(key)
        if factor is None:
            tag, index = key & 3, key >> 2
            if tag == _REL:
                if not 1 <= index <= n + m:
                    return False
                factor = relation_poly(n, m, index)._terms
            elif tag == _UNIT:
                if index:
                    return False
                factor = UNIT_RELATION._terms
            elif label.has("ab"[tag], index):
                factor = {packed("ab"[tag], index): 1}
            else:
                return False
            # c_k and r0 have exponent bound 2, an indeterminate 1.
            if (2 if tag >= _REL else 1) >= headroom:
                raise OverflowError(f"a product exponent could reach 2**{FIELD_BITS}")
            factors[key] = factor
        mono = composite >> bits
        for factor_mono, factor_coeff in factor.items():
            product = mono + factor_mono
            out[product] = get(product, 0) + coeff * factor_coeff
    # Less the subject: each of its terms must be there, with its coefficient.
    for mono, coeff in subject._terms.items():
        if out.pop(mono, 0) != coeff:
            return False
    return not any(out.values())


def extract_certificate(digraph: Digraph, target_index: int) -> NilpotencyCertificate:
    """``certify`` for one target: the root-level witness of u^e, with e
    the root exponent; ValueError when the check fails.

    The same e serves every target index; only the witness polynomials
    depend on the choice.
    """
    certificates = certify(digraph, target_index)
    if certificates is None:
        raise ValueError("the digraph's node-local proof fails its check")
    return certificates[0]


@dataclass(frozen=True)
class SymbolicCheck:
    ok: bool
    diff: MultiPoly


def verify_symbolic(certificate: NilpotencyCertificate) -> SymbolicCheck:
    """Independent expansion check of the certificate identity.

    Recomputes from (n, m) only the relation polynomials the witness
    uses, expands sum relCoeffs[k]*c_k + unitCoeff*(a0*b0 - 1) - u^e as
    one sum of products (``_expansion_minus``), and passes iff the
    difference is the zero polynomial.  Refuses what ``load_certificate``
    refuses for its ranges (``_check_ranges``) with ValueError.
    """
    _check_ranges(certificate)
    witness = certificate.root_witness
    subject = avar(certificate.target_index) ** certificate.exponent
    diff = _expansion_minus(witness, subject, certificate.n, certificate.m)
    return SymbolicCheck(diff.is_zero, diff)


@dataclass(frozen=True)
class ConcreteCheck:
    ok: bool
    value: int
    minimal_exponent: int | None


def power_check(instance: ProblemInstance, target_index: int, exponent: int) -> ConcreteCheck:
    """Evaluate u^exponent in Z/N; also scan for the least exponent <= the
    given one that already kills u.

    A nilpotent u dies by the largest prime exponent of N, which is below
    N.bit_length(), so the scan stops there, whatever the given exponent.
    Raises ValueError for a negative exponent.
    """
    if instance.is_generic:
        raise ValueError("power checks need a concrete instance")
    if not 1 <= target_index <= instance.n:
        raise ValueError(f"target index must lie in 1..{instance.n}, got {target_index}")
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    modulus = instance.modulus
    u = instance.a[target_index]
    value = pow(u, exponent, modulus)
    minimal = None
    for e in range(1, min(exponent, modulus.bit_length()) + 1):
        if pow(u, e, modulus) == 0:
            minimal = e
            break
    return ConcreteCheck(value == 0, value, minimal)


def verify_concrete(certificate: NilpotencyCertificate, instance: ProblemInstance) -> ConcreteCheck:
    """Specialize the certificate's claim u^e = 0 to a concrete instance."""
    if instance.is_generic:
        raise ValueError("verify_concrete needs a concrete instance")
    if (certificate.n, certificate.m) != (instance.n, instance.m):
        raise ValueError("certificate and instance disagree on (n, m)")
    return power_check(instance, certificate.target_index, certificate.exponent)


CERTIFICATE_FORMAT = "nilcert-certificate"


def dump_certificate(certificate: NilpotencyCertificate) -> str:
    """Serialize to a self-contained JSON document.

    Relation coefficients are canonical polynomial strings keyed by the
    relation index; zero coefficients are omitted.  The dump re-verifies in
    isolation after load_certificate; what that would refuse for its
    ranges (``_check_ranges``) raises ValueError here.
    """
    _check_ranges(certificate)
    witness = certificate.root_witness
    rel = {
        str(k): witness.rel_coeffs[k].render()
        for k in sorted(witness.rel_coeffs)
        if not witness.rel_coeffs[k].is_zero
    }
    doc = {
        "format": CERTIFICATE_FORMAT,
        "n": certificate.n,
        "m": certificate.m,
        "i0": certificate.target_index,
        "e": certificate.exponent,
        "rel_coeffs": rel,
        "unit_coeff": witness.unit_coeff.render(),
    }
    return json.dumps(doc, indent=2) + "\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key that occurs twice."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise ValueError("a key is repeated in one JSON object of the dump")
    return doc


# Built once: json.loads with a hook would build a decoder on every call.
_DUMP_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_certificate(text: str) -> NilpotencyCertificate:
    """Rebuild a certificate from its JSON dump.

    Raises ValueError for any malformed dump: bad or too deeply nested JSON,
    a key repeated in one object, wrong field types, a relation key k that
    is not str(int(k)), a coefficient string that ``MultiPoly.parse``
    refuses (``PolyParseError``), a coefficient that the packed monomials
    of verify_symbolic cannot hold, or what ``_check_ranges`` refuses
    (sizes, exponent or relation indices out of range).
    """
    try:
        doc = _DUMP_DECODER.decode(text)
    except RecursionError:
        raise ValueError("the dump nests JSON arrays or objects too deeply") from None
    if not isinstance(doc, dict) or doc.get("format") != CERTIFICATE_FORMAT:
        raise ValueError("not a certificate dump")
    sizes = [doc.get(key) for key in ("n", "m", "i0", "e")]
    if any(type(value) is not int for value in sizes):
        raise ValueError(f"n, m, i0 and e must be integers, got {sizes}")
    rel, unit = doc.get("rel_coeffs"), doc.get("unit_coeff")
    if not isinstance(rel, dict) or not all(isinstance(v, str) for v in (*rel.values(), unit)):
        raise ValueError("rel_coeffs must map indices to polynomial strings, unit_coeff a string")
    for key in rel:
        if str(int(key)) != key:
            raise ValueError(f"relation index {key!r} is not written as a plain integer")
    try:
        rel_coeffs = {int(key): MultiPoly.parse(rendered) for key, rendered in rel.items()}
        unit_coeff = MultiPoly.parse(unit)
    except OverflowError as exc:
        raise ValueError(f"dump does not fit packed monomials: {exc}") from None
    # verify_symbolic multiplies each coefficient by c_k or a0*b0 - 1, whose
    # carried exponent bound is 2 (they are sums of products a_i*b_j).
    if any(c.exponent_bound + 2 >= EXPONENT_LIMIT for c in (*rel_coeffs.values(), unit_coeff)):
        raise ValueError(f"coefficient exponents must stay below {EXPONENT_LIMIT - 2}")
    certificate = NilpotencyCertificate(*sizes, MembershipWitness(rel_coeffs, unit_coeff))
    _check_ranges(certificate)
    return certificate
