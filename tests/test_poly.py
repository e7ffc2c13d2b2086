"""Ring axioms, normal form, evaluation and the canonical text form."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert import (
    Indeterminate,
    MissingAssignment,
    MultiPoly,
    PolyParseError,
    avar,
    bvar,
)
from nilcert.poly import FIELD_BITS, MAX_INDEX, _fields

from helpers import reference_parse

A0, A1, A2 = Indeterminate.a(0), Indeterminate.a(1), Indeterminate.a(2)
B0, B1 = Indeterminate.b(0), Indeterminate.b(1)


def indeterminates() -> st.SearchStrategy[Indeterminate]:
    return st.builds(
        Indeterminate,
        kind=st.sampled_from(["a", "b"]),
        index=st.integers(min_value=0, max_value=2),
    )


def monomials() -> st.SearchStrategy:
    return st.dictionaries(indeterminates(), st.integers(min_value=1, max_value=3), max_size=3).map(
        lambda exps: tuple(sorted(exps.items()))
    )


def polys(max_terms: int = 8) -> st.SearchStrategy[MultiPoly]:
    return st.dictionaries(
        monomials(),
        st.integers(min_value=-9, max_value=9),
        max_size=max_terms,
    ).map(MultiPoly)


class TestArithmetic:
    def test_additive_identity(self):
        p = avar(1) * bvar(1) + 3
        assert p + MultiPoly.zero() == p

    def test_additive_inverse(self):
        assert (avar(1) + (-avar(1))).is_zero

    def test_relation_polynomial(self):
        p = avar(0) * bvar(0) + MultiPoly.const(-1)
        assert p.terms == {((A0, 1), (B0, 1)): 1, (): -1}

    def test_multiplicative_identity(self):
        p = avar(2) * bvar(1) - 7
        assert p * MultiPoly.one() == p

    def test_annihilator(self):
        p = avar(1) + bvar(1)
        assert (p * MultiPoly.zero()).is_zero

    def test_binomial_square(self):
        p = avar(1) + bvar(1)
        assert p * p == avar(1) ** 2 + 2 * avar(1) * bvar(1) + bvar(1) ** 2

    def test_power_zero_is_one(self):
        assert (avar(1) + bvar(1)) ** 0 == MultiPoly.one()

    def test_power_single_monomial(self):
        assert avar(1) ** 3 == MultiPoly({((A1, 3),): 1})

    def test_power_binomial(self):
        assert (avar(1) + 1) ** 2 == avar(1) ** 2 + 2 * avar(1) + 1

    def test_int_operands(self):
        assert 2 * avar(1) == avar(1) + avar(1)
        assert avar(1) - 1 == avar(1) + MultiPoly.const(-1)

    @given(p=polys(), q=polys(), r=polys())
    @settings(max_examples=60)
    def test_add_assoc_comm(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p

    @given(p=polys(4), q=polys(4), r=polys(4))
    @settings(max_examples=40)
    def test_mul_assoc_comm(self, p, q, r):
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)

    @given(p=polys(4), q=polys(4), r=polys(4))
    @settings(max_examples=40)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(p=polys())
    @settings(max_examples=60)
    def test_normal_form(self, p):
        assert not (p + (-p)).terms

    @given(p=polys(4), e=st.integers(min_value=0, max_value=4))
    @settings(max_examples=30)
    def test_pow_is_repeated_mul(self, p, e):
        expected = MultiPoly.one()
        for _ in range(e):
            expected = expected * p
        assert p**e == expected


class TestEvaluate:
    def test_unit_relation_vanishes(self):
        p = avar(0) * bvar(0) - 1
        assert p.evaluate({A0: 1, B0: 1}, 8) == 0

    def test_product_term_mod8(self):
        # 4 * 6 = 24 = 0 mod 8
        p = avar(2) * bvar(1)
        assert p.evaluate({A2: 4, B1: 6}, 8) == 0

    def test_cube_mod8(self):
        assert (avar(1) ** 3).evaluate({A1: 2}, 8) == 0

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignment):
            (avar(1) + bvar(1)).evaluate({A1: 1}, 8)

    def test_integers_ring(self):
        p = avar(1) ** 2 - bvar(1)
        assert p.evaluate({A1: 5, B1: 3}, None) == 22

    @given(p=polys(5), q=polys(5), n=st.integers(min_value=2, max_value=13), seed=st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_evaluation_is_a_homomorphism(self, p, q, n, seed):
        import random

        rng = random.Random(seed)
        inds = p.indeterminates() | q.indeterminates()
        assignment = {ind: rng.randrange(n) for ind in inds}
        assert (p * q).evaluate(assignment, n) == (
            p.evaluate(assignment, n) * q.evaluate(assignment, n)
        ) % n
        assert (p + q).evaluate(assignment, n) == (
            p.evaluate(assignment, n) + q.evaluate(assignment, n)
        ) % n


class TestTextForm:
    def test_canonical_example(self):
        p = -(avar(0) * bvar(0)) + 2 * avar(1) ** 2
        assert p.render() == "-1*a0*b0 + 2*a1^2"

    def test_zero(self):
        assert MultiPoly.zero().render() == "0"
        assert MultiPoly.parse("0").is_zero

    def test_constant(self):
        assert MultiPoly.const(-5).render() == "-5"

    def test_graded_before_lex(self):
        # degree 3 term precedes every degree 2 term
        p = avar(1) ** 3 + avar(0) * bvar(0)
        assert p.render() == "1*a1^3 + 1*a0*b0"

    def test_parse_rejects_junk(self):
        for bad in ["1*x0", "a0", "1*a0^0", "1 + 1", "2*a0*a0", "0*a1"]:
            with pytest.raises(PolyParseError):
                MultiPoly.parse(bad)

    def test_accepted_language(self):
        """Any factor order; each indeterminate at most once per term."""
        assert MultiPoly.parse("1*b0*a0") == avar(0) * bvar(0)
        for text in ("2*a0*a0^2", "1*b1*a0*b1^3"):
            with pytest.raises(PolyParseError, match="repeated indeterminate"):
                MultiPoly.parse(text)
        for text in ("5*", "5**a1"):
            with pytest.raises(PolyParseError, match="bad factor"):
                MultiPoly.parse(text)

    @given(p=polys())
    @settings(max_examples=80)
    def test_round_trip(self, p):
        assert MultiPoly.parse(p.render()) == p


class TestIndeterminate:
    def test_ordering_matches_variable_order(self):
        assert Indeterminate.a(2) < Indeterminate.b(0)
        assert Indeterminate.a(0) < Indeterminate.a(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Indeterminate("c", 0)
        with pytest.raises(ValueError):
            Indeterminate("a", -1)


# -- packed monomials ---------------------------------------------------------
#
# Indices up to 40 put exponents into slots up to 81, so a monomial spans
# many 32-bit fields of its packed int.


def wide_monomials() -> st.SearchStrategy:
    wide = st.builds(
        Indeterminate,
        kind=st.sampled_from(["a", "b"]),
        index=st.integers(min_value=0, max_value=40),
    )
    return st.dictionaries(wide, st.integers(min_value=1, max_value=6), max_size=5).map(
        lambda exps: tuple(sorted(exps.items()))
    )


def wide_polys(max_terms: int = 8) -> st.SearchStrategy[MultiPoly]:
    return st.dictionaries(
        wide_monomials(),
        st.integers(min_value=-(10**12), max_value=10**12),
        max_size=max_terms,
    ).map(MultiPoly)


def reference_mul(x, y) -> dict:
    """Product of two tuple-keyed term maps, without packing."""
    out: dict = {}
    for mono_x, coeff_x in x.items():
        for mono_y, coeff_y in y.items():
            exps = dict(mono_x)
            for ind, e in mono_y:
                exps[ind] = exps.get(ind, 0) + e
            mono = tuple(sorted(exps.items()))
            out[mono] = out.get(mono, 0) + coeff_x * coeff_y
    return {mono: coeff for mono, coeff in out.items() if coeff}


class TestPackedMonomials:
    @given(p=wide_polys())
    @settings(max_examples=80)
    def test_render_parse_round_trip(self, p):
        assert MultiPoly.parse(p.render()) == p

    @given(p=wide_polys())
    @settings(max_examples=80)
    def test_terms_view_round_trip(self, p):
        assert MultiPoly(p.terms) == p
        assert all(p.terms[mono] == coeff for mono, coeff in p.terms.items())

    @given(p=wide_polys(6), q=wide_polys(6))
    @settings(max_examples=80)
    def test_mul_matches_reference(self, p, q):
        assert (p * q).terms == reference_mul(p.terms, q.terms)

    def test_terms_view_is_read_only_and_tuple_keyed(self):
        p = avar(40) * bvar(3) ** 2 - 5
        assert dict(p.terms) == {((Indeterminate.a(40), 1), (Indeterminate.b(3), 2)): 1, (): -5}
        assert ((Indeterminate.b(3), 2), (Indeterminate.a(40), 1)) not in p.terms
        with pytest.raises(TypeError):
            p.terms[()] = 1

    def test_constructor_merges_equal_monomials(self):
        p = MultiPoly({((A0, 1), (B0, 1)): 2, ((B0, 1), (A0, 1)): -2, ((A1, 1),): 3})
        assert p == 3 * avar(1)

    def test_degree_and_indeterminates_decode_fields(self):
        p = avar(40) ** 3 * bvar(0) + bvar(7)
        assert p.total_degree() == 4
        assert p.indeterminates() == {Indeterminate.a(40), B0, Indeterminate.b(7)}

    def test_evaluate_reads_wide_slots(self):
        p = avar(40) ** 2 * bvar(39) - 1
        values = {Indeterminate.a(40): 3, Indeterminate.b(39): 5}
        assert p.evaluate(values, None) == 44


class TestOverflowGuard:
    W = FIELD_BITS

    def test_field_holds_its_largest_exponent(self):
        p = avar(0) ** (2**self.W - 1)
        assert p.render() == f"1*a0^{2**self.W - 1}"
        assert MultiPoly.parse(p.render()) == p

    def test_power_past_the_field(self):
        with pytest.raises(OverflowError):
            avar(0) ** (2**self.W)

    def test_product_past_the_field(self):
        with pytest.raises(OverflowError):
            avar(0) ** (2**self.W - 1) * (avar(0) + bvar(0))

    def test_constants_never_overflow(self):
        assert MultiPoly.const(-1) ** (2**self.W + 1) * MultiPoly.const(2) == -2

    def test_parse_past_the_field(self):
        with pytest.raises(OverflowError):
            MultiPoly.parse(f"1*a0^{2**self.W}")

    def test_constructor_past_the_field(self):
        with pytest.raises(OverflowError):
            MultiPoly({((A0, 2**self.W),): 1})
        with pytest.raises(OverflowError):
            MultiPoly({((A0, 2**self.W - 1), (A0, 1)): 1})

    def test_index_past_the_layout(self):
        assert avar(MAX_INDEX) * bvar(MAX_INDEX) == MultiPoly.parse(f"1*a{MAX_INDEX}*b{MAX_INDEX}")
        with pytest.raises(OverflowError):
            avar(MAX_INDEX + 1)
        with pytest.raises(OverflowError):
            MultiPoly.parse(f"1*b{MAX_INDEX + 1}")

    def test_variables_packed_directly(self):
        """avar and bvar pack their term without an Indeterminate, with the
        same value and the same refusal of a negative index."""
        for i in (0, 1, 7, MAX_INDEX):
            for var, ind in ((avar, Indeterminate.a(i)), (bvar, Indeterminate.b(i))):
                assert var(i) == MultiPoly.variable(ind) == MultiPoly({((ind, 1),): 1})
        for var in (avar, bvar):
            with pytest.raises(ValueError):
                var(-1)


# -- rendering ----------------------------------------------------------------


def reference_render(p: MultiPoly) -> str:
    """The canonical text form written row by row, one packed monomial at a
    time, as render was before it read the monomials column by column."""
    if not p._terms:
        return "0"
    nbytes = _fields(max(p._terms)).nbytes
    nbytes += nbytes % (2 * FIELD_BITS // 8)
    half = nbytes * 8 // FIELD_BITS // 2
    names = [f"a{i}" for i in range(half)] + [f"b{j}" for j in range(half)]
    rows = []
    for packed, coeff in p._terms.items():
        fields = _fields(packed, nbytes).tolist()
        exps = fields[0::2] + fields[1::2]
        rows.append((sum(exps), exps, coeff))
    rows.sort(reverse=True)
    return " + ".join(
        "*".join([str(coeff), *[name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]])
        for _, exps, coeff in rows
    )


TOP = 2**FIELD_BITS - 1
RENDER_CASES = {
    "zero": MultiPoly.zero(),
    "constant only": MultiPoly.const(-5),
    "constant plus terms": 3 + avar(1) * bvar(0) - 2 * avar(0) ** 2,
    "one factor b4095": bvar(MAX_INDEX),
    "exponents 1 and 2**32 - 1": MultiPoly({((A0, 1), (B1, TOP)): 1, ((A0, TOP),): -1, ((B0, 1),): 2}),
    "negative and 50-digit coefficients": MultiPoly(
        {((A1, 1),): -(10**49 + 7), ((B0, 2),): 10**49 + 3, ((A0, 1), (B0, 1)): -1, (): -(10**50)}
    ),
    "slots with gaps": avar(40) ** 3 * bvar(7) + avar(2) * bvar(39) ** 2 - avar(40) * bvar(0) + bvar(12),
}


class TestRenderMatchesReference:
    @pytest.mark.parametrize("p", RENDER_CASES.values(), ids=RENDER_CASES.keys())
    def test_cases(self, p):
        assert p.render() == reference_render(p)
        assert MultiPoly.parse(p.render()) == p

    def test_pinned_texts(self):
        assert RENDER_CASES["one factor b4095"].render() == "1*b4095"
        assert RENDER_CASES["exponents 1 and 2**32 - 1"].render() == f"1*a0*b1^{TOP} + -1*a0^{TOP} + 2*b0"

    @given(p=polys())
    @settings(max_examples=80)
    def test_narrow_polys(self, p):
        assert p.render() == reference_render(p)

    @given(p=wide_polys(12))
    @settings(max_examples=80)
    def test_wide_polys(self, p):
        assert p.render() == reference_render(p)


# -- parsing ------------------------------------------------------------------
#
# MultiPoly.parse must accept exactly what reference_parse accepts, with the
# same value and exponent bound, and must refuse the rest with the same
# exception class and message.  Indices up to MAX_INDEX make a parse widen
# its factor table; the mutations break rendered text in every way the
# parser refuses, and in some ways it accepts.


def far_polys(max_terms: int = 4) -> st.SearchStrategy[MultiPoly]:
    far = st.builds(
        Indeterminate,
        kind=st.sampled_from(["a", "b"]),
        index=st.one_of(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=MAX_INDEX)),
    )
    exponent = st.one_of(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=TOP))
    mono = st.dictionaries(far, exponent, max_size=4).map(lambda exps: tuple(sorted(exps.items())))
    return st.dictionaries(mono, st.integers(min_value=-9, max_value=9), max_size=max_terms).map(MultiPoly)


def packed_parse(text: str) -> tuple[dict[int, int], int]:
    p = MultiPoly.parse(text)
    return p._terms, p.exponent_bound


def parse_outcome(parse, text: str):
    """What a parser makes of text: (terms, bound), or (class, message)."""
    try:
        return parse(text)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def assert_parses_as_reference(text: str) -> None:
    assert parse_outcome(packed_parse, text) == parse_outcome(reference_parse, text), text


MUTATIONS = (
    "repeat factor",
    "swap factors",
    "zero coefficient",
    "blank coefficient",
    "signed coefficient",
    "empty factor",
    "exponent 0",
    "index 4096",
    "exponent 2**32",
    "repeat term",
)


def mutate(terms: list[list[str]], kind: str, data) -> None:
    """Break one term in place; positions come from data.  A mutation that
    needs a factor leaves a constant term alone."""
    term = terms[data.draw(st.integers(min_value=0, max_value=len(terms) - 1))]
    gap = data.draw(st.integers(min_value=1, max_value=len(term)))  # a place after the coefficient
    at = min(gap, len(term) - 1)  # a factor, or 0 in a constant term
    name = term[at].partition("^")[0] if at else ""
    if kind == "repeat factor" and name:
        term.insert(gap, f"{name}^{data.draw(st.integers(min_value=1, max_value=9))}")
    elif kind == "swap factors" and len(term) > 2:
        other = data.draw(st.integers(min_value=1, max_value=len(term) - 1))
        term[at], term[other] = term[other], term[at]
    elif kind == "zero coefficient":
        term[0] = data.draw(st.sampled_from(["0", "-0", "00", "+0"]))
    elif kind == "blank coefficient":
        term[0] = data.draw(st.sampled_from(["", " ", "-", "+", " 1"]))
    elif kind == "signed coefficient":
        term[0] = "+" + term[0].lstrip("-")
    elif kind == "empty factor":
        term.insert(gap, "")
    elif kind == "exponent 0" and name:
        term[at] = f"{name}^0"
    elif kind == "index 4096" and name:
        term[at] = f"{name[0]}{MAX_INDEX + 1}"
    elif kind == "exponent 2**32" and name:
        term[at] = f"{name}^{2**FIELD_BITS}"
    elif kind == "repeat term":
        copy = [data.draw(st.sampled_from([term[0], "7"])), *term[1:]]
        terms.insert(data.draw(st.integers(min_value=0, max_value=len(terms))), copy)


class TestParseMatchesReference:
    @given(p=polys())
    @settings(max_examples=80)
    def test_narrow_polys(self, p):
        assert_parses_as_reference(p.render())

    @given(p=wide_polys())
    @settings(max_examples=80)
    def test_wide_polys(self, p):
        assert_parses_as_reference(p.render())

    @given(p=far_polys())
    @settings(max_examples=80)
    def test_indices_up_to_max(self, p):
        assert_parses_as_reference(p.render())

    @given(
        p=st.one_of(polys(), wide_polys(4), far_polys(3)),
        kinds=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=300)
    def test_malformed_text(self, p, kinds, data):
        terms = [chunk.split("*") for chunk in p.render().split(" + ")]
        for kind in kinds:
            mutate(terms, kind, data)
        assert_parses_as_reference(" + ".join("*".join(term) for term in terms))

    @pytest.mark.parametrize(
        "text",
        [
            "1*a0 + 1*a9*b20 + -1*b4095^3",  # widens twice, after terms are packed
            f"1*b7^{TOP}*b7",  # the top slot of a fresh table carries out of its field
            f"1*a2^{TOP}*a2^{TOP}*a2^{TOP}",
            "1*a0*a0*x",  # the repeat comes before the bad factor
            "1*a0*x*a0",
            "1*a0*a9*a0",  # a repeat before a factor that widens the table
            "1*a1 + 1*a1 + 1*x",  # the repeated monomial comes before the bad factor
            "1*a1 + 1*x + 1*a1",
            "+3*a1 + -0*b0",
            f"1*a{MAX_INDEX + 1}*a0^0",
            f"1*a0^0*a{MAX_INDEX + 1}",
        ],
    )
    def test_pinned_texts(self, text):
        assert_parses_as_reference(text)
