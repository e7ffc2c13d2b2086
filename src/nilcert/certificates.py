"""Explicit polynomial-identity certificates.

Everything here is an identity in the free ring Z[a0..an, b0..bm].  Write
c_k for the convolution polynomials of the pair (so c_k collects the
degree-k products a_i*b_j), and r0 = a0*b0 - 1 for the unit relation.  A
membership witness for a subject s at a label D is a stored identity

    s = sum_{d in D} genCoeffs[d] * d
      + sum_{k=1..n+m} relCoeffs[k] * c_k
      + unitCoeff * r0

holding exactly; it certifies s in (D) once the relations c_k = 0 (k >= 1)
and a0*b0 = 1 are imposed.  Witnesses are built in three ways:

* element witnesses follow the closure derivation of a_i or b_j, using

      a_i = a0*c_i - a0 * sum_{q=1..min(i,m)} a_{i-q}*b_q - a_i*r0

  (and its mirror image for b_j), each b_q in the middle sum being
  replaced by its own, earlier-derived witness;

* product witnesses isolate a_i*b_j out of c_{i+j},

      a_i*b_j = c_{i+j} - sum_{q>j} a_{i+j-q}*b_q - sum_{p>i} a_p*b_{i+j-p},

  legitimate at a branch(i, j) label because maximality of i and j puts
  every a_p (p > i) and b_q (q > j) into the ideal, hence behind a witness;

* ``combine`` multiplies two child witnesses u^k = v + s*a_i and
  u^l = w + t*b_j into u^(k+l) = v*u^l + s*a_i*w + s*t*(a_i*b_j) at the
  parent, substituting the product witness for a_i*b_j.

At the root the generator sum is empty, leaving the nilpotency certificate
u^e = sum relCoeffs[k]*c_k + unitCoeff*r0, which an independent checker
verifies by expanding everything back to the zero polynomial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .engine import Digraph, ProblemInstance, convolution_polys
from .oracles import IdealLabel, generic_closure
from .poly import EXPONENT_LIMIT, MAX_INDEX, Indeterminate, MultiPoly, avar, bvar


class NotInClosure(Exception):
    """No derivation admits the element at this label."""


def unit_relation() -> MultiPoly:
    """The polynomial a0*b0 - 1."""
    return avar(0) * bvar(0) - 1


@dataclass
class MembershipWitness:
    """A stored identity proving subject in the ideal of label.

    The subject is kept explicitly rather than reconstructed, so a checker
    can expand the right-hand side and compare without trusting the
    builder.  Coefficient polynomials are kept exactly as built; zero
    coefficients are dropped.
    """

    subject: MultiPoly
    label: IdealLabel
    gen_coeffs: dict[Indeterminate, MultiPoly] = field(default_factory=dict)
    rel_coeffs: dict[int, MultiPoly] = field(default_factory=dict)
    unit_coeff: MultiPoly = field(default_factory=MultiPoly.zero)

    def scaled(self, factor: MultiPoly | int) -> MembershipWitness:
        """The witness for factor * subject, every coefficient scaled."""
        if isinstance(factor, int):
            factor = MultiPoly.const(factor)
        if factor.is_zero:
            return MembershipWitness(MultiPoly.zero(), self.label)
        return MembershipWitness(
            subject=self.subject * factor,
            label=self.label,
            gen_coeffs={d: c * factor for d, c in self.gen_coeffs.items()},
            rel_coeffs={k: c * factor for k, c in self.rel_coeffs.items()},
            unit_coeff=self.unit_coeff * factor,
        )

    def __add__(self, other: MembershipWitness) -> MembershipWitness:
        if self.label != other.label:
            raise ValueError("cannot add witnesses at different labels")
        gen = dict(self.gen_coeffs)
        for d, c in other.gen_coeffs.items():
            total = gen.get(d, MultiPoly.zero()) + c
            if total.is_zero:
                gen.pop(d, None)
            else:
                gen[d] = total
        rel = dict(self.rel_coeffs)
        for k, c in other.rel_coeffs.items():
            total = rel.get(k, MultiPoly.zero()) + c
            if total.is_zero:
                rel.pop(k, None)
            else:
                rel[k] = total
        return MembershipWitness(
            subject=self.subject + other.subject,
            label=self.label,
            gen_coeffs=gen,
            rel_coeffs=rel,
            unit_coeff=self.unit_coeff + other.unit_coeff,
        )


def expand_witness(witness: MembershipWitness) -> MultiPoly:
    """Expand the combination side of the witness identity in Z[a, b]."""
    n, m = witness.label.n, witness.label.m
    c_polys = convolution_polys(n, m)
    acc = MultiPoly.zero()
    for d, coeff in witness.gen_coeffs.items():
        acc = acc + coeff * MultiPoly.variable(d)
    for k, coeff in witness.rel_coeffs.items():
        acc = acc + coeff * c_polys[k]
    acc = acc + witness.unit_coeff * unit_relation()
    return acc


def witness_gap(witness: MembershipWitness) -> MultiPoly:
    """Expansion minus subject; the zero polynomial iff the witness holds."""
    return expand_witness(witness) - witness.subject


def _generator_part(label: IdealLabel, gen: Indeterminate, coeff: MultiPoly) -> MembershipWitness:
    return MembershipWitness(
        subject=coeff * MultiPoly.variable(gen),
        label=label,
        gen_coeffs={gen: coeff},
    )


def _relation_part(label: IdealLabel, k: int, coeff: MultiPoly) -> MembershipWitness:
    c_polys = convolution_polys(label.n, label.m)
    return MembershipWitness(
        subject=coeff * c_polys[k],
        label=label,
        rel_coeffs={k: coeff},
    )


def _unit_part(label: IdealLabel, coeff: MultiPoly) -> MembershipWitness:
    return MembershipWitness(
        subject=coeff * unit_relation(),
        label=label,
        unit_coeff=coeff,
    )


class WitnessBuilder:
    """Memoized element witnesses for one label's closure."""

    def __init__(self, label: IdealLabel):
        self.label = label
        self.derivations = generic_closure(label)
        self._memo: dict[Indeterminate, MembershipWitness] = {}

    def witness(self, element: Indeterminate) -> MembershipWitness:
        derivation = self.derivations.get(element)
        if derivation is None:
            raise NotInClosure(f"{element} is not forced into {self.label.render()}")
        cached = self._memo.get(element)
        if cached is not None:
            return cached
        if derivation.rule == "generator":
            built = _generator_part(self.label, element, MultiPoly.one())
        elif element.kind == "a":
            i = element.index
            built = _relation_part(self.label, i, avar(0)) + _unit_part(self.label, -avar(i))
            for premise in derivation.premises:
                q = premise.index
                built = built + self.witness(premise).scaled(-(avar(0) * avar(i - q)))
        else:
            j = element.index
            built = _relation_part(self.label, j, bvar(0)) + _unit_part(self.label, -bvar(j))
            for premise in derivation.premises:
                p = premise.index
                built = built + self.witness(premise).scaled(-(bvar(0) * bvar(j - p)))
        self._memo[element] = built
        return built


def membership_witness(label: IdealLabel, element: Indeterminate) -> MembershipWitness:
    """Witness that a closure element lies in the ideal of the label."""
    return WitnessBuilder(label).witness(element)


def gauss_product_witness(
    i: int,
    j: int,
    label: IdealLabel,
    builder: WitnessBuilder | None = None,
) -> MembershipWitness:
    """Witness for a_i*b_j at a label whose case analysis gave branch(i, j).

    The relation c_{i+j} contributes the a_i*b_j term; every other term of
    that convolution has p > i or q > j and is removed through the element
    witness available by maximality.
    """
    n, m = label.n, label.m
    if not (1 <= i <= n and 1 <= j <= m):
        raise ValueError(f"branch indices ({i},{j}) out of range for n={n}, m={m}")
    if builder is None:
        builder = WitnessBuilder(label)
    built = _relation_part(label, i + j, MultiPoly.one())
    for q in range(j + 1, min(i + j, m) + 1):
        built = built + builder.witness(Indeterminate.b(q)).scaled(-avar(i + j - q))
    for p in range(i + 1, min(i + j, n) + 1):
        built = built + builder.witness(Indeterminate.a(p)).scaled(-bvar(i + j - p))
    return built


def combine(
    left: MembershipWitness,
    right: MembershipWitness,
    product: MembershipWitness,
) -> MembershipWitness:
    """Merge child witnesses u^k (at D + a_i) and u^l (at D + b_j) into a
    witness of u^(k+l) at the parent D.

    Splitting off the child generators as u^k = v + s*a_i and
    u^l = w + t*b_j gives u^(k+l) = v*u^l + s*a_i*w + s*t*(a_i*b_j); the
    last term is replaced by the product witness.
    """
    parent = left.label.meet(right.label)
    a_extra = [d for d in left.label.generators() if not parent.has(d)]
    b_extra = [d for d in right.label.generators() if not parent.has(d)]
    if len(a_extra) != 1 or a_extra[0].kind != "a":
        raise ValueError("left witness must live at parent plus one a-generator")
    if len(b_extra) != 1 or b_extra[0].kind != "b":
        raise ValueError("right witness must live at parent plus one b-generator")
    if product.label != parent:
        raise ValueError("product witness must live at the parent label")
    a_gen, b_gen = a_extra[0], b_extra[0]

    def drop(witness: MembershipWitness, gen: Indeterminate) -> tuple[MultiPoly, MembershipWitness]:
        coeff = witness.gen_coeffs.get(gen, MultiPoly.zero())
        rest = {d: c for d, c in witness.gen_coeffs.items() if d != gen}
        remainder = MembershipWitness(
            subject=witness.subject - coeff * MultiPoly.variable(gen),
            label=parent,
            gen_coeffs=rest,
            rel_coeffs=dict(witness.rel_coeffs),
            unit_coeff=witness.unit_coeff,
        )
        return coeff, remainder

    s, v = drop(left, a_gen)
    t, w = drop(right, b_gen)
    return (
        v.scaled(right.subject)
        + w.scaled(s * MultiPoly.variable(a_gen))
        + product.scaled(s * t)
    )


@dataclass
class NilpotencyCertificate:
    """Root-level witness: u^e written in the defining relations alone."""

    n: int
    m: int
    target_index: int
    exponent: int
    root_witness: MembershipWitness


def node_witnesses(
    digraph: Digraph, target_index: int
) -> dict[IdealLabel, tuple[int, MembershipWitness]]:
    """Exponent and witness of u^exponent at every node of the digraph.

    Leaves witness u itself; branches combine their children through the
    product witness.  The per-node exponents equal the digraph's exponent
    recursion.  One forward pass suffices, because the digraph stores its
    nodes in post-order.
    """
    if not digraph.generic:
        raise ValueError("certificates are extracted from indeterminate-coefficient runs")
    if not 1 <= target_index <= digraph.n:
        raise ValueError(f"target index must lie in 1..{digraph.n}, got {target_index}")
    u = Indeterminate.a(target_index)
    memo: dict[IdealLabel, tuple[int, MembershipWitness]] = {}
    for label, node in digraph.nodes.items():
        if node.tag.is_leaf:
            memo[label] = (1, membership_witness(label, u))
        else:
            (k, left), (l, right) = (memo[child] for child in node.children)
            product = gauss_product_witness(node.tag.i, node.tag.j, label)
            memo[label] = (k + l, combine(left, right, product))
    return memo


def extract_certificate(digraph: Digraph, target_index: int) -> NilpotencyCertificate:
    """The root-level witness of u^e, with e the root exponent.

    The same e serves every target index; only the witness polynomials
    depend on the choice.
    """
    witnesses = node_witnesses(digraph, target_index)
    exponent, witness = witnesses[digraph.root]
    return NilpotencyCertificate(digraph.n, digraph.m, target_index, exponent, witness)


@dataclass(frozen=True)
class SymbolicCheck:
    ok: bool
    diff: MultiPoly


def verify_symbolic(certificate: NilpotencyCertificate) -> SymbolicCheck:
    """Independent expansion check of the certificate identity.

    Recomputes the relation polynomials from (n, m), expands
    sum relCoeffs[k]*c_k + unitCoeff*(a0*b0 - 1) - u^e, and passes iff the
    difference is the zero polynomial.
    """
    witness = certificate.root_witness
    if witness.gen_coeffs:
        raise ValueError("root witness must not use ideal generators")
    c_polys = convolution_polys(certificate.n, certificate.m)
    acc = MultiPoly.zero()
    for k, coeff in witness.rel_coeffs.items():
        acc = acc + coeff * c_polys[k]
    acc = acc + witness.unit_coeff * unit_relation()
    diff = acc - avar(certificate.target_index) ** certificate.exponent
    return SymbolicCheck(diff.is_zero, diff)


@dataclass(frozen=True)
class ConcreteCheck:
    ok: bool
    value: int
    minimal_exponent: int | None


def power_check(instance: ProblemInstance, target_index: int, exponent: int) -> ConcreteCheck:
    """Evaluate u^exponent in the instance's ring; also scan for the least
    exponent <= the given one that already kills u."""
    if instance.is_generic:
        raise ValueError("power checks need a concrete instance")
    ring = instance.ring
    u = instance.a[target_index]
    value = ring.power(u, exponent)
    minimal = None
    for e in range(1, exponent + 1):
        if ring.power(u, e) == 0:
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
    isolation after load_certificate.
    """
    witness = certificate.root_witness
    if witness.gen_coeffs:
        raise ValueError("only root-level certificates are dumped")
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


def load_certificate(text: str) -> NilpotencyCertificate:
    """Rebuild a certificate from its JSON dump.

    Raises ValueError for any malformed dump: bad JSON, wrong field types,
    sizes outside 1 <= n <= MAX_INDEX, 0 <= m <= MAX_INDEX, 1 <= i0 <= n,
    1 <= e < EXPONENT_LIMIT, or a coefficient that the packed monomials of
    verify_symbolic cannot hold.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != CERTIFICATE_FORMAT:
        raise ValueError("not a certificate dump")
    sizes = [doc.get(key) for key in ("n", "m", "i0", "e")]
    if any(type(value) is not int for value in sizes):
        raise ValueError(f"n, m, i0 and e must be integers, got {sizes}")
    n, m, target_index, exponent = sizes
    if (
        not 1 <= n <= MAX_INDEX
        or not 0 <= m <= MAX_INDEX
        or not 1 <= target_index <= n
        or not 1 <= exponent < EXPONENT_LIMIT
    ):
        raise ValueError(f"sizes out of range: n={n}, m={m}, i0={target_index}, e={exponent}")
    rel, unit = doc.get("rel_coeffs"), doc.get("unit_coeff")
    if not isinstance(rel, dict) or not all(isinstance(v, str) for v in (*rel.values(), unit)):
        raise ValueError("rel_coeffs must map indices to polynomial strings, unit_coeff a string")
    try:
        rel_coeffs = {int(key): MultiPoly.parse(rendered) for key, rendered in rel.items()}
        unit_coeff = MultiPoly.parse(unit)
    except OverflowError as exc:
        raise ValueError(f"dump does not fit packed monomials: {exc}") from None
    if not all(1 <= k <= n + m for k in rel_coeffs):
        raise ValueError(f"relation indices {sorted(rel_coeffs)} out of range 1..{n + m}")
    # verify_symbolic multiplies each coefficient by c_k or a0*b0 - 1, whose
    # carried exponent bound is 2 (they are sums of products a_i*b_j).
    if any(c.exponent_bound + 2 >= EXPONENT_LIMIT for c in (*rel_coeffs.values(), unit_coeff)):
        raise ValueError(f"coefficient exponents must stay below {EXPONENT_LIMIT - 2}")
    witness = MembershipWitness(
        subject=avar(target_index) ** exponent,
        label=IdealLabel.root(n, m),
        rel_coeffs=rel_coeffs,
        unit_coeff=unit_coeff,
    )
    return NilpotencyCertificate(n, m, target_index, exponent, witness)
