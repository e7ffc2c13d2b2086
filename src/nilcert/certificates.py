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

builds every element and product witness from the same parts
(``WitnessBuilder._isolation``), each higher a_p' and b_q' on the right
being replaced by its own element witness:

* product witnesses: at a branch(i, j) label, maximality of i and j puts
  every a_p (p > i) and b_q (q > j) into the ideal, so isolating a_i*b_j
  needs only witnesses that exist;

* element witnesses: the closure rule admits a_k once b_1..b_min(k,m) are
  in, exactly the witnesses that isolating a_k*b_0 needs, and
  a0*b0 = 1 + r0 turns that product back into a_k,

      a_k = a0 * (a_k*b_0) - a_k*r0

  (mirrored through a_0*b_k for b_k), one combination of the isolation
  parts, each scaled by a0.  A generator is its own witness, so the
  builder reads only bits: the closed masks of ``oracles.closure_bits``
  for membership, the label's own for generator status;

* ``combine`` multiplies two child witnesses u^k = v + s*a_i and
  u^l = w + t*b_j into u^(k+l) = v*u^l + s*a_i*w + s*t*(a_i*b_j) at the
  parent, substituting the product witness for a_i*b_j.  ``node_witness``,
  the one induction step per label, calls it at every branch, for the
  digraph walk and the tests' label-poset runner alike.

Every factor of an isolation identity is +-1 times one monomial (a_x,
b_y, or the x0 that scales an element's parts), so ``WitnessBuilder``
accumulates a witness straight into one keyed term map
(``poly.split_keyed``): each part is shifted in term by term, a
generator as its one term, an element as its memoized map.  The
MultiPoly coefficients and the ``MembershipWitness`` are made once per
witness returned, where zero coefficients are dropped.  Only ``combine``
sums whole witnesses as polynomials (``_combination``).  A witness is its
coefficients alone: its subject and label are stated by whoever checks
it, never read from the witness.

One routine expands every identity, node-local or root
(``_expansion_minus``): sum genCoeffs[d]*d + sum relCoeffs[k]*c_k +
unitCoeff*r0 - subject, added into a single term map
(``poly.sum_of_products``), with each c_k's terms derived from (n, m)
alone; the identity holds when nothing is left.

A digraph's proof is checked node by node.  ``local_witnesses`` is the one
source of a node's own witnesses: the product witness of a_i*b_j at a
branch(i, j), which every target shares, and where a target's proof ends
the witness of each target u, all from one ``WitnessBuilder``; a target
outside that label's closure has none, and the check fails.
``checked_exponents`` walks the digraph once for all the targets it is
given: it builds each node's witnesses, expands each of these small
identities exactly, checks the digraph's structure around it and drops
them, keeping per label only each target's exponent.  With early stop, a
target's proof ends at the first label whose stored closed a-bits hold
it, so the same single walk checks each target's early-stop proof: each
distinct branch identity once for every target that goes on past it.  By
the key lemma (u^k in I + (D, a_i), u^l in I + (D, b_j) and a_i*b_j in
I + (D) give u^(k+l) in I + (D)) that proves u^e = 0 without expanding
u^e.  Its cost is polynomial in the digraph, and its memory that of the
digraph and one node's witnesses, while the root identity grows
exponentially in n + m.

That root identity is built only for a dump, by ``certify`` alone (for
one target, ``extract_certificate``): the same walk then also takes each
node's ``node_witness`` step over the witnesses it has just checked, up to
the root, where the generator sum is empty; a failed check yields none.
That leaves the nilpotency certificate u^e = sum relCoeffs[k]*c_k +
unitCoeff*r0, which ``verify_symbolic`` checks independently by expanding
it, less u^e, with the same routine.  It, the dump and
the load refuse the same out-of-range certificates (``_check_ranges``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from .engine import CaseTag, Digraph, ProblemInstance
from .oracles import IdealLabel, closure_bits
from .poly import (
    EXPONENT_LIMIT,
    MAX_INDEX,
    Indeterminate,
    MultiPoly,
    avar,
    bvar,
    packed,
    split_keyed,
    subtract_shifted,
    sum_of_products,
)


class NotInClosure(Exception):
    """The closure rule does not admit the element at this label."""


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
    """The coefficients of one identity
    s = sum gen_coeffs[d]*d + sum rel_coeffs[k]*c_k + unit_coeff*r0.

    Neither the subject s nor the label D is stored: a checker expands the
    right-hand side against the s and D it expects, so it never trusts the
    builder's claim.  Zero coefficients are dropped.
    """

    gen_coeffs: dict[Indeterminate, MultiPoly] = field(default_factory=dict)
    rel_coeffs: dict[int, MultiPoly] = field(default_factory=dict)
    unit_coeff: MultiPoly = field(default_factory=MultiPoly.zero)


def _combination(
    parts: Sequence[tuple[MultiPoly, MembershipWitness]],
    without: tuple[Indeterminate, ...] = (),
) -> MembershipWitness:
    """The witness sum factor*witness over parts, each coefficient one sum
    of products; the generators in without are left out.  It witnesses the
    same sum of the parts' subjects, at the label they share."""
    gens: dict[Indeterminate, list] = {}
    rels: dict[int, list] = {}
    for factor, witness in parts:
        for d, coeff in witness.gen_coeffs.items():
            if d not in without:
                gens.setdefault(d, []).append((coeff, factor))
        for k, coeff in witness.rel_coeffs.items():
            rels.setdefault(k, []).append((coeff, factor))
    gen_coeffs = {d: c for d, c in zip(gens, map(sum_of_products, gens.values())) if not c.is_zero}
    rel_coeffs = {k: c for k, c in zip(rels, map(sum_of_products, rels.values())) if not c.is_zero}
    unit_coeff = sum_of_products((witness.unit_coeff, factor) for factor, witness in parts)
    return MembershipWitness(gen_coeffs, rel_coeffs, unit_coeff)


_MINUS_ONE = MultiPoly.const(-1)


def _expansion_minus(witness: MembershipWitness, subject: MultiPoly, n: int, m: int) -> MultiPoly:
    """sum genCoeffs[d]*d + sum relCoeffs[k]*c_k + unitCoeff*r0 - subject,
    as one sum of products, with c_k the relations of size (n, m)."""
    pairs = [(subject, _MINUS_ONE), (witness.unit_coeff, UNIT_RELATION)]
    pairs += [(coeff, relation_poly(n, m, k)) for k, coeff in witness.rel_coeffs.items()]
    return sum_of_products(pairs, witness.gen_coeffs.items())


# MultiPoly is immutable, so one zero serves every witness without a unit
# coefficient.
_ZERO = MultiPoly.zero()


# The keys of a witness's keyed term map (``poly.split_keyed``): an index
# shifted past two tag bits, 0 for generator a_i and 1 for generator b_j
# (``kind == "b"``), _REL for relation c_k and _UNIT for the unit
# coefficient.
_REL, _UNIT = 2, 3


class WitnessBuilder:
    """Element and product witnesses for one label's closure, built through
    the isolation identity ``isolate``, each element's terms memoized.

    Every factor of an isolation identity is +-1 times one monomial, so a
    witness is built as one keyed term map (``poly.split_keyed``): each
    part is added in, shifted by its factor, term by term.  A generator
    adds its one term; an element the closure rule admits adds its own
    memoized map.  Maps become MultiPoly coefficients only in the witness
    that ``witness`` or ``isolate`` returns.  The closure is computed when
    an element that is no generator is first asked for.
    """

    def __init__(self, label: IdealLabel):
        self.label = label
        # Enough key bits for every index up to n+m and a tag.
        self._bits = ((label.n + label.m) << 2 | 3).bit_length()
        self._closed: IdealLabel | None = None
        self._memo: dict[int, tuple[dict[int, int], int]] = {}

    def witness(self, element: Indeterminate) -> MembershipWitness:
        if self.label.has(element.kind, element.index):  # a generator is in the closure
            return MembershipWitness({element: MultiPoly.one()}, {}, _ZERO)
        return self._membership(*self._element(element.kind, element.index))

    def isolate(self, p: int, q: int) -> MembershipWitness:
        """Witness for a_p*b_q, 0 <= p <= n and 0 <= q <= m: c_{p+q} minus
        its other terms."""
        terms, bound = self._isolation(p, q, 0)
        # No other part has a term of degree 0, so c_{p+q}'s own term 1 is new.
        terms[(p + q) << 2 | _REL] = 1
        return self._membership(terms, bound)

    def _membership(self, terms: dict[int, int], bound: int) -> MembershipWitness:
        """The witness of a keyed term map, every coefficient bounded by bound."""
        gens, rels, unit = {}, {}, _ZERO
        for key, coeff in split_keyed(terms, self._bits, bound).items():
            tag = key & 3
            if tag == _REL:
                rels[key >> 2] = coeff
            elif tag == _UNIT:
                unit = coeff
            else:
                gens[Indeterminate("ab"[tag], key >> 2)] = coeff
        return MembershipWitness(gens, rels, unit)

    def _element(self, kind: str, k: int) -> tuple[dict[int, int], int]:
        """The keyed terms of x_k, no generator, and their exponent bound:
        x_k = x0 * (x_k*y0) - x_k*r0, because x0*y0 = 1 + r0, so the parts
        isolating x_k*y0, each scaled by x0, and -x_k*r0."""
        built = self._memo.get(k << 2 | (kind == "b"))
        if built is not None:
            return built
        label = self.label
        if self._closed is None:
            # The closure as a label of its own: membership is its generators.
            self._closed = IdealLabel(label.n, label.m, *closure_bits(label))
        if not self._closed.has(kind, k):
            raise NotInClosure(f"{Indeterminate(kind, k)} is not forced into {label.render()}")
        bits = self._bits
        x0 = packed(kind, 0, bits)
        terms, bound = self._isolation(k, 0, x0) if kind == "a" else self._isolation(0, k, x0)
        # The other parts' terms have degree 2 or more: these two are new.
        terms[x0 + (k << 2 | _REL)] = 1
        terms[packed(kind, k, bits) + _UNIT] = -1
        built = self._memo[k << 2 | (kind == "b")] = terms, bound + 1
        return built

    def _isolation(self, p: int, q: int, scale: int) -> tuple[dict[int, int], int]:
        """The keyed terms of c_{p+q} - a_p*b_q less c_{p+q}'s own term,
        scaled by the keyed monomial scale, and their exponent bound
        before scaling: each other term of c_{p+q} removed through the
        element witness of its higher b_q' (q' > q) or higher a_p'
        (p' > p)."""
        n, m, a_gens, b_gens = self.label
        bits, k = self._bits, p + q
        terms: dict[int, int] = {}
        get = terms.get
        bound = 0
        for kind, mask, size, low in (("b", b_gens, m, q), ("a", a_gens, n, p)):
            other = "a" if kind == "b" else "b"
            for x in range(low + 1, min(k, size) + 1):
                shift = scale + packed(other, k - x, bits)
                if mask >> (size - x) & 1:
                    composite = shift + (x << 2 | (kind == "b"))
                    terms[composite] = get(composite, 0) - 1
                    if not bound:
                        bound = 1
                    continue
                part, part_bound = self._element(kind, x)
                subtract_shifted(terms, part, shift)
                if bound <= part_bound:
                    bound = part_bound + 1
        return terms, bound


def gauss_product_witness(i: int, j: int, label: IdealLabel) -> MembershipWitness:
    """Witness for a_i*b_j at a label whose case analysis gave branch(i, j);
    maximality of i and j puts every higher coefficient into the ideal."""
    if not (1 <= i <= label.n and 1 <= j <= label.m):
        raise ValueError(f"branch indices ({i},{j}) out of range for n={label.n}, m={label.m}")
    return WitnessBuilder(label).isolate(i, j)


def combine(
    left: MembershipWitness,
    right: MembershipWitness,
    product: MembershipWitness,
    tag: CaseTag,
    u_l: MultiPoly,
) -> MembershipWitness:
    """Merge child witnesses of u^k (at D + a_i) and u^l (at D + b_j) into
    a witness of u^(k+l) at the parent D, whose case tag is branch(i, j)
    and whose product witness of a_i*b_j is product.

    Splitting off the child generators as u^k = v + s*a_i and
    u^l = w + t*b_j gives u^(k+l) = v*u^l + s*a_i*w + s*t*(a_i*b_j); the
    last term is replaced by the product witness.  The three terms are one
    combination, each child without its split-off generator.  The caller
    vouches for the labels; the node-local check re-derives them.
    """
    a_gen, b_gen = Indeterminate.a(tag.i), Indeterminate.b(tag.j)
    s = left.gen_coeffs.get(a_gen, MultiPoly.zero())
    t = right.gen_coeffs.get(b_gen, MultiPoly.zero())
    return _combination(
        [(u_l, left), (s * MultiPoly.variable(a_gen), right), (s * t, product)],
        without=(a_gen, b_gen),
    )


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
    1 <= e < EXPONENT_LIMIT, the root witness keys no generator and every
    relation index lies in 1..n+m (c_0 = a0*b0 is 1, not 0, modulo them)."""
    n, m, i0, e, rels = cert.n, cert.m, cert.target_index, cert.exponent, cert.root_witness.rel_coeffs
    if not (1 <= n <= MAX_INDEX and 0 <= m <= MAX_INDEX and 1 <= i0 <= n and 1 <= e < EXPONENT_LIMIT):
        raise ValueError(f"sizes out of range: n={n}, m={m}, i0={i0}, e={e}")
    if cert.root_witness.gen_coeffs:
        raise ValueError("root witness must not use ideal generators")
    if not all(1 <= k <= n + m for k in rels):
        raise ValueError(f"relation indices {sorted(rels)} out of range 1..{n + m}")


def local_witnesses(label: IdealLabel, tag: CaseTag, target_indices: Sequence[int]) -> list[MembershipWitness]:
    """A node's own witnesses, built afresh: at a branch(i, j) the product
    witness of a_i*b_j, which every target shares; at a leaf the witness of
    each target a_i0, all from one ``WitnessBuilder``.  Raises NotInClosure
    when a target is not in the leaf's closure."""
    if not tag.is_leaf:
        return [gauss_product_witness(tag.i, tag.j, label)]
    builder = WitnessBuilder(label)
    return [builder.witness(Indeterminate("a", i0)) for i0 in target_indices]


def node_witness(
    local: MembershipWitness, children: Sequence[tuple[int, MembershipWitness]], u: MultiPoly, tag: CaseTag
) -> tuple[int, MembershipWitness]:
    """The induction step at one label, whose case tag is tag: (1, local)
    at a leaf, where local is the witness of u; at a branch(i, j), the
    children's (k, u^k) at label + a_i and (l, u^l) at label + b_j combined
    through the product witness local into (k + l, u^(k+l))."""
    if not children:
        return 1, local
    (k, left), (l, right) = children
    return k + l, combine(left, right, local, tag, u**l)


def _positions(mask: int) -> list[int]:
    """The set bits of mask, lowest first."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def _checked(source: Callable, label: IdealLabel, tag: CaseTag, targets: list[int], subjects: list[MultiPoly]):
    """The witnesses source gives at label for tag and targets, each of
    whose identities holds for its subject; None when one fails."""
    try:
        local = source(label, tag, targets)
    except NotInClosure:
        return None
    if len(local) != len(subjects):
        return None
    return local if all(_identity_holds(w, label, s) for w, s in zip(local, subjects)) else None


_LEAF = CaseTag.leaf()


def _walk(
    digraph: Digraph,
    target_indices: Sequence[int],
    early_stop: bool,
    source: Callable,
    combined: bool,
) -> dict[int, tuple[int, MembershipWitness | None]] | None:
    """The walk of ``checked_exponents`` and ``certify``: each target's
    root (exponent, witness of u^exponent), the witness None unless
    ``combined``; None when the check fails, as it does when source raises
    NotInClosure."""
    if not digraph.generic:
        raise ValueError("certificates are extracted from indeterminate-coefficient runs")
    n, nodes, root = digraph.n, digraph.nodes, digraph.root
    targets = list(dict.fromkeys(target_indices))
    if not targets or not all(1 <= i0 <= n for i0 in targets):
        raise ValueError(f"target indices must be given, each in 1..{n}, got {tuple(target_indices)}")
    if root != IdealLabel.root(n, digraph.m):
        return None
    # Targets share a lane where the walk cannot tell them apart: without
    # early_stop every target stops at the leaves, and unless combined
    # their steps differ only in the leaf identities.
    lanes = [[i0] for i0 in targets] if early_stop or combined else [targets]
    # Parents first, each label's plan: the lanes whose proofs reach it and
    # those that go on to its children, as bit masks over the lanes.  A
    # lane stops at a leaf, and with early_stop also where the stored
    # closed a-bits hold its target.
    reaching = {root: (1 << len(lanes)) - 1}
    plans: dict[IdealLabel, tuple[int, int, list[IdealLabel]]] = {}
    held: dict[int, int] = {}  # closed a-bits -> the lanes whose target they hold
    for label, node in reversed(nodes.items()):
        reach = reaching.pop(label, 0)
        if not reach:
            continue
        go = 0 if node.tag.is_leaf else reach
        if early_stop:
            closed = node.closed_a
            lanes_held = held.get(closed)
            if lanes_held is None:
                if not 0 <= closed < 1 << n:
                    return None
                lanes_held = held[closed] = sum(
                    1 << p for p, (i0,) in enumerate(lanes) if closed & root.bit("a", i0)
                )
            go &= ~lanes_held
        # A child met here first has here its last parent, children first.
        last = []
        if go:
            for child in node.children:
                if child not in reaching:
                    last.append(child)
                    reaching[child] = go
                else:
                    reaching[child] |= go
        plans[label] = reach, go, last
    # Children first, each planned label's witnesses are checked and
    # dropped; its row keeps each reaching lane's (exponent, witness) until
    # the last parent that goes on to it is done.  The lanes, targets and
    # subjects of each lane mask are listed once per walk.
    subjects = [[avar(i0) for i0 in lane] for lane in lanes]
    selections: dict[int, tuple[list[int], list[int], list[MultiPoly]]] = {}

    def select(mask: int) -> tuple[list[int], list[int], list[MultiPoly]]:
        positions = _positions(mask)
        chosen = selections[mask] = (
            positions,
            [i0 for p in positions for i0 in lanes[p]],
            [u for p in positions for u in subjects[p]],
        )
        return chosen

    rows: dict[IdealLabel, list] = {}
    for label, node in nodes.items():
        plan = plans.get(label)
        if plan is None:
            continue
        reach, go, last = plan
        tag = node.tag
        try:
            children = tag.children(label)
        except ValueError:
            return None
        if node.children != children:
            return None
        row: list = [None] * len(lanes)
        if reach != go:
            stop, stopping, stopped = selections.get(reach & ~go) or select(reach & ~go)
            local = _checked(source, label, _LEAF, stopping, stopped)
            if local is None:
                return None
            # Combined, each lane is one target, with one witness.
            for p, witness in zip(stop, local):
                row[p] = (1, witness if combined else None)
            # Dropped before the next label's witnesses are built.
            del local
        if go:
            going, goers, _ = selections.get(go) or select(go)
            product = _checked(source, label, tag, goers, [avar(tag.i) * bvar(tag.j)])
            left, right = rows.get(children[0]), rows.get(children[1])
            if product is None or left is None or right is None:
                return None
            for p in going:
                steps = left[p], right[p]
                if combined:
                    row[p] = node_witness(product[0], steps, subjects[p][0], tag)
                else:
                    row[p] = (steps[0][0] + steps[1][0], None)
            for child in last:
                del rows[child]
        # Without early_stop every lane has the stored exponent.
        if not early_stop and row[0][0] != node.exponent:
            return None
        rows[label] = row
    if root not in rows:
        return None
    return {i0: step for lane, step in zip(lanes, rows[root]) for i0 in lane}


def check_node_local(
    digraph: Digraph, *target_indices: int, early_stop: bool = False, source: Callable = local_witnesses
) -> bool:
    """Exact node-local check of the digraph's claim u^e = 0, for each
    u = a_i0 with i0 in target_indices, by the key lemma one node at a
    time: ``checked_exponents(...) is not None``."""
    return checked_exponents(digraph, *target_indices, early_stop=early_stop, source=source) is not None


def checked_exponents(
    digraph: Digraph, *target_indices: int, early_stop: bool = False, source: Callable = local_witnesses
) -> dict[int, int] | None:
    """Each target's exponent e with u^e = 0 for u = a_i0, proved by the
    key lemma one node at a time; None when the check fails.

    A target's proof is the digraph or, with ``early_stop``, its early-stop
    digraph (``engine.early_stop_cut``): the same nodes down to the first
    label whose stored closed a-bits hold a_i0, where it ends.  One walk
    checks every target's proof.  Parents first, it finds which targets
    reach each label and which go on past it; then, children first, it
    takes each reached node's own witnesses from ``source`` (a test may
    give a fake ``local_witnesses``), checks them and drops them.  It
    requires at each label D the stored children to be
    ``tag.children(D)``, each already checked for every target that goes
    on past D; every witness to key only generators of D and relations
    1..n+m, and to expand, less its subject (u where u's proof ends, a_i*b_j
    at a branch(i, j) it goes on past), to the zero polynomial in the
    relations of D's size; and without ``early_stop`` the stored exponent
    to be the recomputed one.

    Then u^k in I + (D, a_i), u^l in I + (D, b_j) and a_i*b_j in I + (D)
    give u^(k+l) in I + (D), I the ideal of the relations; the root label
    must be empty, which leaves u^e in I, with u^e never expanded.  Each
    product identity is checked once for all the targets that go on past
    its branch.  A target outside the closure where its proof ends fails
    the check, and so do closed a-bits that are no mask of n bits.  Raises
    ValueError for a concrete digraph, or when no target is given or one
    lies outside 1..n.
    """
    walked = _walk(digraph, target_indices, early_stop, source, False)
    return None if walked is None else {i0: exponent for i0, (exponent, _) in walked.items()}


def certify(digraph: Digraph, *target_indices: int, early_stop: bool = False) -> list[NilpotencyCertificate] | None:
    """The walk of ``checked_exponents``, which also takes each node's
    ``node_witness`` step over the witnesses it checks, up each target's
    proof, and returns the root certificates in the order of
    target_indices (a repeated target is certified once); None whenever
    the check fails.  A product witness that several targets share is
    built once and combined into each of their steps at its label.
    Raises ValueError as ``checked_exponents`` does."""
    walked = _walk(digraph, target_indices, early_stop, local_witnesses, True)
    if walked is None:
        return None
    return [NilpotencyCertificate(digraph.n, digraph.m, i0, *step) for i0, step in walked.items()]


def _identity_holds(witness: MembershipWitness, label: IdealLabel, subject: MultiPoly) -> bool:
    """The witness keys only generators of label and relations 1..n+m, and
    its expansion less subject is the zero polynomial, with (n, m) the
    label's size."""
    n, m = label.n, label.m
    if not all(label.has(d.kind, d.index) for d in witness.gen_coeffs):
        return False
    rels = witness.rel_coeffs
    if rels and not (min(rels) >= 1 and max(rels) <= n + m):
        return False
    return _expansion_minus(witness, subject, n, m).is_zero


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
    witness = MembershipWitness(rel_coeffs=rel_coeffs, unit_coeff=unit_coeff)
    certificate = NilpotencyCertificate(*sizes, witness)
    _check_ranges(certificate)
    return certificate
