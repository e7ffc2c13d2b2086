"""Exact sparse multivariate polynomial arithmetic over the integers.

The ambient ring is Z[a0..an, b0..bm]: the coefficients of two univariate
polynomials f = sum a_i T^i and g = sum b_j T^j, treated as indeterminates.
All certificate checking reduces to identities between such polynomials, so
the arithmetic here is exact: coefficients are Python ints (arbitrary
precision) and a polynomial is a map from monomials to nonzero coefficients.
The zero polynomial has an empty term map, hence two polynomials are equal
iff their term maps are equal.

Packed monomials.  Inside a MultiPoly a monomial is one Python int with a
FIELD_BITS = 32 bit field per indeterminate: the exponent of a_i sits in
slot 2i and that of b_j in slot 2j+1, at bit offset FIELD_BITS*slot.  The
layout is global, so it needs no (n, m) context, and multiplying two
monomials is one integer addition (packed exponent vectors, as in Monagan
and Pearce's sparse polynomial arithmetic).  The monomial 1 is the int 0.

Overflow guard.  A field must never carry into its neighbour.  Every
MultiPoly carries an upper bound on each of its exponents; a product's
bound is the sum of its factors' bounds, so one comparison per
multiplication or power shows whether a field could reach EXPONENT_LIMIT =
2**FIELD_BITS.  Multiplication, powers, the constructor and parse raise
OverflowError before that can happen.  They raise it as well for an index
above MAX_INDEX, which caps a packed monomial at 32 KiB.

Boundary.  Indeterminate and the tuple form of a monomial (Monomial: sorted
(indeterminate, exponent) pairs, all exponents positive) appear only at the
API boundary: the constructor takes a tuple-keyed map, ``.terms`` is a
read-only tuple-keyed view decoded on access, and evaluate, indeterminates
and total_degree decode the fields they need.

The canonical text form orders terms by graded lexicographic order (total
degree first, then the dense exponent vector with a-indeterminates before
b-indeterminates, ascending index), highest term first, e.g.

    -1*a0*b0 + 2*a1^2

and the same form parses back via MultiPoly.parse.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from .rings import RingHandle


class MissingAssignment(KeyError):
    """Evaluation met an indeterminate that has no assigned value."""


class PolyParseError(ValueError):
    """A polynomial string is not in the canonical text form."""


@dataclass(frozen=True, order=True)
class Indeterminate:
    """One generator of the coefficient ring: a<index> or b<index>.

    The dataclass ordering (kind first, then index) is exactly the fixed
    variable order used for canonical serialization.
    """

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in ("a", "b"):
            raise ValueError(f"indeterminate kind must be 'a' or 'b', got {self.kind!r}")
        if self.index < 0:
            raise ValueError(f"indeterminate index must be >= 0, got {self.index}")

    @classmethod
    def a(cls, index: int) -> Indeterminate:
        return cls("a", index)

    @classmethod
    def b(cls, index: int) -> Indeterminate:
        return cls("b", index)

    @property
    def name(self) -> str:
        return f"{self.kind}{self.index}"

    def __str__(self) -> str:
        return self.name


# A monomial at the API boundary: a sorted tuple of (indeterminate, exponent)
# pairs with positive exponents; the empty tuple is the monomial 1.
Monomial = tuple[tuple[Indeterminate, int], ...]

FIELD_BITS = 32
EXPONENT_LIMIT = 1 << FIELD_BITS
MAX_INDEX = 4095

# Fields are read back as the machine's C unsigned ints.
if memoryview(bytes(8)).cast("I").itemsize * 8 != FIELD_BITS:
    raise ImportError("packed monomials need a 32-bit C unsigned int")


def _slot(kind: str, index: int) -> int:
    if index > MAX_INDEX:
        raise OverflowError(f"{kind}{index}: packed monomials hold indices up to {MAX_INDEX}")
    return 2 * index + (kind == "b")


def _pack(mono: Monomial) -> tuple[int, int]:
    """The packed int of a tuple monomial, and its largest exponent."""
    exps: dict[int, int] = {}
    for ind, e in mono:
        if e < 0:
            raise ValueError(f"negative exponent {e} of {ind.name}")
        slot = _slot(ind.kind, ind.index)
        exps[slot] = exps.get(slot, 0) + e
    top = max(exps.values(), default=0)
    if top >= EXPONENT_LIMIT:
        raise OverflowError(f"exponent {top} does not fit a {FIELD_BITS}-bit field")
    return sum(e << (FIELD_BITS * slot) for slot, e in exps.items()), top


def _fields(packed: int, nbytes: int | None = None) -> memoryview:
    """The exponents of a packed monomial, indexed by slot."""
    if nbytes is None:
        nbytes = (packed.bit_length() + FIELD_BITS - 1) // FIELD_BITS * (FIELD_BITS // 8)
    return memoryview(packed.to_bytes(nbytes, sys.byteorder)).cast("I")


def _decode(packed: int) -> Monomial:
    fields = _fields(packed)
    return tuple((Indeterminate("a", i), e) for i, e in enumerate(fields[0::2]) if e) + tuple(
        (Indeterminate("b", j), e) for j, e in enumerate(fields[1::2]) if e
    )


def _new(terms: dict[int, int], bound: int) -> MultiPoly:
    """A MultiPoly over already packed, nonzero terms."""
    poly = object.__new__(MultiPoly)
    poly._terms = terms
    poly._bound = bound
    return poly


class _TermsView(Mapping):
    """Read-only tuple-keyed view of a polynomial's packed terms."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, int]):
        self._terms = terms

    def __getitem__(self, mono: Monomial) -> int:
        try:
            packed = _pack(mono)[0]
        except (TypeError, ValueError, AttributeError, OverflowError):
            raise KeyError(mono) from None
        if packed not in self._terms or _decode(packed) != mono:
            raise KeyError(mono)
        return self._terms[packed]

    def __iter__(self) -> Iterator[Monomial]:
        return map(_decode, self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class MultiPoly:
    """Immutable sparse polynomial with integer coefficients.

    Stored as a dict mapping packed monomials to nonzero coefficients;
    every operation returns a fresh normalized value.  Integer operands are
    accepted by the arithmetic operators and treated as constants.
    """

    __slots__ = ("_terms", "_bound")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        packed_terms: dict[int, int] = {}
        bound = 0
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    packed, top = _pack(mono)
                    packed_terms[packed] = packed_terms.get(packed, 0) + coeff
                    bound = max(bound, top)
        self._terms = {packed: coeff for packed, coeff in packed_terms.items() if coeff}
        self._bound = bound

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> MultiPoly:
        return _new({}, 0)

    @classmethod
    def const(cls, value: int) -> MultiPoly:
        return _new({0: value} if value else {}, 0)

    @classmethod
    def one(cls) -> MultiPoly:
        return _new({0: 1}, 0)

    @classmethod
    def variable(cls, ind: Indeterminate) -> MultiPoly:
        return _new({1 << (FIELD_BITS * _slot(ind.kind, ind.index)): 1}, 1)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, int]:
        """The terms keyed by tuple monomials, decoded on access."""
        return _TermsView(self._terms)

    @property
    def exponent_bound(self) -> int:
        """An upper bound on every exponent (exact for parsed polynomials)."""
        return self._bound

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        return max((sum(_fields(packed)) for packed in self._terms), default=0)

    def indeterminates(self) -> set[Indeterminate]:
        # A field is nonzero in the OR of all monomials iff it is nonzero
        # in one of them.
        union = 0
        for packed in self._terms:
            union |= packed
        return {ind for ind, _ in _decode(union)}

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()!r})"

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value: object) -> MultiPoly | None:
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, int):
            return MultiPoly.const(value)
        return None

    def __add__(self, other: MultiPoly | int) -> MultiPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not self._terms:
            return rhs
        if not rhs._terms:
            return self
        out = dict(self._terms)
        get = out.get
        for mono, coeff in rhs._terms.items():
            total = get(mono, 0) + coeff
            if total:
                out[mono] = total
            else:
                del out[mono]
        return _new(out, max(self._bound, rhs._bound))

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return _new({mono: -coeff for mono, coeff in self._terms.items()}, self._bound)

    def __sub__(self, other: MultiPoly | int) -> MultiPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: MultiPoly | int) -> MultiPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: MultiPoly | int) -> MultiPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        left, right = self._terms, rhs._terms
        if not left or not right:
            return MultiPoly.zero()
        bound = self._bound + rhs._bound
        if bound >= EXPONENT_LIMIT:
            raise OverflowError(f"a product exponent could reach 2**{FIELD_BITS}")
        # Iterate the smaller operand on the outside; the single-term case
        # (scaling by a monomial) is by far the most common, and it cannot
        # merge or cancel terms.
        if len(left) < len(right):
            left, right = right, left
        if len(right) == 1:
            ((mono_r, coeff_r),) = right.items()
            return _new({mono_l + mono_r: coeff_l * coeff_r for mono_l, coeff_l in left.items()}, bound)
        out: dict[int, int] = {}
        get = out.get
        for mono_r, coeff_r in right.items():
            for mono_l, coeff_l in left.items():
                mono = mono_l + mono_r
                out[mono] = get(mono, 0) + coeff_l * coeff_r
        return _new({mono: coeff for mono, coeff in out.items() if coeff}, bound)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> MultiPoly:
        if exponent < 0:
            raise ValueError("negative exponent")
        if self._bound * exponent >= EXPONENT_LIMIT:
            raise OverflowError(f"a power exponent could reach 2**{FIELD_BITS}")
        result = MultiPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Mapping[Indeterminate, int], ring: RingHandle) -> int:
        """Homomorphic image of the polynomial in the target ring.

        Raises MissingAssignment if an occurring indeterminate has no value.
        """
        total = ring.zero
        for packed, coeff in self._terms.items():
            value = ring.canon(coeff)
            for ind, e in _decode(packed):
                if ind not in assignment:
                    raise MissingAssignment(ind.name)
                value = ring.mul(value, ring.power(ring.canon(assignment[ind]), e))
            total = ring.add(total, value)
        return total

    # -- canonical text form -----------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        # Every monomial is read at the width of the widest, as the a-exponents
        # followed by the b-exponents; at one length, list order is lex order.
        nbytes = _fields(max(self._terms)).nbytes
        nbytes += nbytes % (2 * FIELD_BITS // 8)
        half = nbytes * 8 // FIELD_BITS // 2
        names = [f"a{i}" for i in range(half)] + [f"b{j}" for j in range(half)]
        rows = []
        for packed, coeff in self._terms.items():
            fields = _fields(packed, nbytes).tolist()
            exps = fields[0::2] + fields[1::2]
            rows.append((sum(exps), exps, coeff))
        rows.sort(reverse=True)
        return " + ".join(
            "*".join([str(coeff), *[name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]])
            for _, exps, coeff in rows
        )

    _FACTOR_RE = re.compile(r"([ab])(\d+)(?:\^(\d+))?\Z")

    @classmethod
    def parse(cls, text: str) -> MultiPoly:
        """Parse the canonical text form produced by render."""
        text = text.strip()
        if text == "0":
            return cls.zero()
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
                    factor = factors[piece] = cls._parse_factor(piece, chunk)
                shift, e = factor
                if packed >> shift & (EXPONENT_LIMIT - 1):
                    raise PolyParseError(f"repeated indeterminate in term {chunk!r}")
                packed += e << shift
            if packed in terms:
                raise PolyParseError(f"repeated monomial in {text!r}")
            terms[packed] = coeff
        return _new(terms, max((e for _, e in factors.values()), default=0))

    @classmethod
    def _parse_factor(cls, piece: str, chunk: str) -> tuple[int, int]:
        """Bit shift and exponent of one factor such as a2^3."""
        match = cls._FACTOR_RE.match(piece)
        if match is None:
            raise PolyParseError(f"bad factor {piece!r} in term {chunk!r}")
        kind, index, exp = match.groups()
        e = int(exp) if exp else 1
        if e < 1:
            raise PolyParseError(f"bad exponent in factor {piece!r}")
        if e >= EXPONENT_LIMIT:
            raise OverflowError(f"exponent in {piece!r} does not fit a {FIELD_BITS}-bit field")
        return FIELD_BITS * _slot(kind, int(index)), e


def avar(i: int) -> MultiPoly:
    """The polynomial a_i."""
    return MultiPoly.variable(Indeterminate.a(i))


def bvar(j: int) -> MultiPoly:
    """The polynomial b_j."""
    return MultiPoly.variable(Indeterminate.b(j))
