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
2**FIELD_BITS.  Multiplication, powers and parse raise OverflowError
before that can happen.  Parse, avar, bvar and ``packed`` raise it as
well for an index above MAX_INDEX, which caps a packed monomial at 32 KiB.

Boundary.  Packed ints are the only representation: a MultiPoly is built
by zero, const, one, avar, bvar, parse or split_keyed, and grown by the
arithmetic operators or sum_of_products; render is the one view of its
terms.  MultiPoly(...) itself raises TypeError.  No object names an
indeterminate: outside this module one is a kind "a" or "b" and an index,
and a packed monomial is an opaque non-negative int from ``packed``:
adding two multiplies them.

Keyed term maps.  Several term maps under construction can share one
dict: the term c*x^mono of the map under key k, 0 <= k < 2**key_bits, is
the entry mono << key_bits | k -> c.  Multiplying a term by a monomial
adds that monomial, shifted by key_bits (``packed`` gives an
indeterminate's so), to its composite, so a term c*x^mono under key k
is written straight in as one entry.  ``split_keyed`` turns the finished
dict into one MultiPoly per key, dropping zero coefficients once.  The
certificate layer builds its node witnesses this way, and combines its
root witnesses on the maps that ``split_keyed`` returns.

The canonical text form orders terms by graded lexicographic order (total
degree first, then the dense exponent vector with a-indeterminates before
b-indeterminates, ascending index), highest term first, e.g.

    -1*a0*b0 + 2*a1^2

and the same form parses back via MultiPoly.parse.

Parsing.  Each parse keeps one factor table (``_FactorTable``): every
distinct factor text such as ``a3^17`` is parsed once into one int, its
packed contribution ``e << FIELD_BITS*slot`` plus a presence bit
``1 << (base + slot)`` above every field.  A term is then one C-level sum
over its factor texts.  The fields below ``base`` are its monomial.  The
presence bits add without a carry only when every slot is distinct, so
their popcount equals the number of factors exactly when no indeterminate
repeats.  A table starts with room for a0..a7 and b0..b7; a factor in a
wider slot s widens it to 2*(s + 1) slots.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable
from functools import reduce
from itertools import repeat
from operator import itemgetter, or_


class PolyParseError(ValueError):
    """A polynomial string is not in the canonical text form."""


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


def _fields(packed: int) -> memoryview:
    """The exponents of a packed monomial, indexed by slot."""
    nbytes = (packed.bit_length() + FIELD_BITS - 1) // FIELD_BITS * (FIELD_BITS // 8)
    return memoryview(packed.to_bytes(nbytes, sys.byteorder)).cast("I")


def _new(terms: dict[int, int], bound: int) -> MultiPoly:
    """A MultiPoly over already packed, nonzero terms."""
    poly = object.__new__(MultiPoly)
    poly._terms = terms
    poly._bound = bound
    return poly


class MultiPoly:
    """Immutable sparse polynomial with integer coefficients.

    Stored as a dict mapping packed monomials to nonzero coefficients;
    every operation returns a fresh normalized value.  Integer operands are
    accepted by the arithmetic operators and treated as constants.
    """

    __slots__ = ("_terms", "_bound")

    def __init__(self, *args: object, **kwargs: object):
        raise TypeError("build a MultiPoly with zero, const, one, parse, avar or bvar")

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

    # -- structure ---------------------------------------------------------

    @property
    def exponent_bound(self) -> int:
        """An upper bound on every exponent (exact for parsed polynomials)."""
        return self._bound

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        return f"MultiPoly.parse({self.render()!r})"

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
        return sum_of_products([(self, rhs)])

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

    # -- canonical text form -----------------------------------------------

    # Column layout.  All monomials are laid side by side in one buffer of
    # 32-bit fields, one row of equal width per term.  Only the slots that
    # occur in some monomial (the nonzero fields of their OR) are read, each
    # as one strided column, a-slots before b-slots in index order; so the
    # graded lex key of a row is its degree followed by its column entries.
    # Each column's factor text comes from a table with one entry per
    # distinct exponent, so Python loops per indeterminate and per distinct
    # exponent, not per factor.
    def render(self) -> str:
        terms = self._terms
        if not terms:
            return "0"
        union = _fields(reduce(or_, terms))
        width = len(union)
        slots = [s for s in range(0, width, 2) if union[s]] + [s for s in range(1, width, 2) if union[s]]
        rows = b"".join(map(int.to_bytes, terms, repeat(union.nbytes), repeat(sys.byteorder)))
        columns = [memoryview(rows).cast("I")[slot::width].tolist() for slot in slots]
        del rows  # the row copy goes before the texts are built
        factors = []
        for slot, column in zip(slots, columns):
            name = f"*{'ab'[slot & 1]}{slot >> 1}"
            table = {e: f"{name}^{e}" for e in set(column)}
            table[0], table[1] = "", name
            factors.append(map(table.__getitem__, column))
        texts = map("".join, zip(map(str, terms.values()), *factors))
        degrees = list(map(sum, zip(*columns))) if columns else [0]
        return " + ".join(map(itemgetter(-1), sorted(zip(degrees, *columns, texts), reverse=True)))

    @classmethod
    def parse(cls, text: str) -> MultiPoly:
        """Parse the canonical text form produced by render.

        Any factor order is accepted, each indeterminate at most once per
        term.  A term costs one C-level sum of its factor texts' entries in
        a ``_FactorTable``: the fields of the sum are the term's monomial,
        and the popcount of its presence bits shows a repeated
        indeterminate.  Faults are raised in text order: within a term its
        coefficient, then its factors left to right, then a repeat of an
        earlier term's monomial.
        """
        text = text.strip()
        if text == "0":
            return cls.zero()
        terms: dict[int, int] = {}
        table = _FactorTable()
        lookup = table.__getitem__
        base, mask = table.base, table.mask
        for chunk in text.split(" + "):
            pieces = chunk.split("*")
            try:
                coeff = int(pieces[0])
            except ValueError:
                raise PolyParseError(f"bad coefficient in term {chunk!r}") from None
            if coeff == 0:
                raise PolyParseError(f"zero coefficient in term {chunk!r}")
            del pieces[0]
            try:
                total = sum(map(lookup, pieces))
            except KeyError:
                total = None
            if total is None:
                total = table.read(pieces, chunk)
                base, mask = table.base, table.mask
            if (total >> base).bit_count() != len(pieces):
                raise PolyParseError(f"repeated indeterminate in term {chunk!r}")
            packed = total & mask
            if packed in terms:
                raise PolyParseError(f"repeated monomial in {text!r}")
            terms[packed] = coeff
        return _new(terms, table.bound)


_FACTOR_RE = re.compile(r"([ab])(\d+)(?:\^(\d+))?\Z")


def _parse_factor(piece: str, chunk: str) -> tuple[int, int]:
    """Slot and exponent of one factor such as a2^3 in the term chunk."""
    match = _FACTOR_RE.match(piece)
    if match is None:
        raise PolyParseError(f"bad factor {piece!r} in term {chunk!r}")
    kind, index, exp = match.groups()
    e = int(exp) if exp else 1
    if e < 1:
        raise PolyParseError(f"bad exponent in factor {piece!r}")
    if e >= EXPONENT_LIMIT:
        raise OverflowError(f"exponent in {piece!r} does not fit a {FIELD_BITS}-bit field")
    return _slot(kind, int(index)), e


class _FactorTable(dict):
    """The factor table of one parse: each distinct factor text, parsed
    once, mapped to one int, so that a term is the plain sum of its
    factors' entries.

    The entry of a factor x^e in slot s is its packed contribution
    e << FIELD_BITS*s plus the presence bit 1 << (base + s) above every
    field.  In a term's sum, the bits below base are the packed monomial.
    Presence bits add without a carry, so their popcount equals the number
    of factors exactly when no slot repeats.  base leaves one spare field
    above the ``width`` slots the table holds: a repeated slot's exponents
    may carry out of their field, but for that carry to pass the spare
    field into the presence bits a term would need 2**32 factors.

    A lookup miss parses the factor text and stores its entry.  It raises
    KeyError instead for a malformed factor, or for a slot past the width;
    ``read`` then re-reads that term in order and reports the fault, or
    widens the table.  The table lives for one parse: no cache outlives it.
    """

    # A fresh table holds 16 slots: a0..a7 and b0..b7.
    width = 16
    base = FIELD_BITS * (width + 1)
    mask = (1 << base) - 1
    bound = 0  # the largest exponent stored

    def __missing__(self, piece: str) -> int:
        try:
            slot, e = _parse_factor(piece, "")
        except (PolyParseError, OverflowError):
            raise KeyError(piece) from None  # ``read`` reports it with its term
        if slot >= self.width:
            raise KeyError(piece)
        if e > self.bound:
            self.bound = e
        value = self[piece] = e << FIELD_BITS * slot | 1 << self.base + slot
        return value

    def _widen(self, width: int) -> None:
        """Hold slots below width: every presence bit moves up to the new base."""
        old_base, old_mask = self.base, self.mask
        self.width, self.base = width, FIELD_BITS * (width + 1)
        self.mask = (1 << self.base) - 1
        self.update({piece: v & old_mask | v >> old_base << self.base for piece, v in self.items()})

    def read(self, pieces: list[str], chunk: str) -> int:
        """The sum over a term's factor texts, read one by one in text order
        after a lookup missed: a bad factor or a repeated indeterminate is
        raised where it is met, and a factor in a slot s past the width
        widens the table to 2*(s + 1) slots."""
        seen = 0
        for piece in pieces:
            value = self.get(piece)
            if value is None:
                slot, _ = _parse_factor(piece, chunk)
                if slot >= self.width:
                    self._widen(2 * (slot + 1))
                value = self[piece]
            presence = value >> self.base
            if seen & presence:
                raise PolyParseError(f"repeated indeterminate in term {chunk!r}")
            seen |= presence
        return sum(map(self.__getitem__, pieces))


def packed(kind: str, index: int, key_bits: int = 0) -> int:
    """The packed monomial of one indeterminate, x_index with x = a or b,
    shifted up by key_bits as in a keyed term map.  Raises ValueError for a
    negative index and OverflowError past MAX_INDEX."""
    if not 0 <= index <= MAX_INDEX:
        if index < 0:
            raise ValueError(f"indeterminate index must be >= 0, got {index}")
        _slot(kind, index)  # raises the OverflowError
    return 1 << (FIELD_BITS * (2 * index + (kind == "b")) + key_bits)


# The polynomials of one indeterminate are packed directly.  Not cached: a
# packed a4095 is 32 KiB.


def avar(i: int) -> MultiPoly:
    """The polynomial a_i."""
    return _new({packed("a", i): 1}, 1)


def bvar(j: int) -> MultiPoly:
    """The polynomial b_j."""
    return _new({packed("b", j): 1}, 1)


def sum_of_products(pairs: Iterable[tuple[MultiPoly, MultiPoly]]) -> MultiPoly:
    """The sum of left*right over the pairs.  Every product of two terms is
    added into one packed-term map, so no product, factor or partial sum is
    built as a polynomial of its own (Monagan and Pearce).  Raises
    OverflowError where ``*`` would for one of the products."""
    out: dict[int, int] = {}
    get = out.get
    bound = 0
    for left, right in pairs:
        left_terms, right_terms = left._terms, right._terms
        if not left_terms or not right_terms:
            continue
        if left._bound + right._bound >= EXPONENT_LIMIT:
            raise OverflowError(f"a product exponent could reach 2**{FIELD_BITS}")
        bound = max(bound, left._bound + right._bound)
        if len(left_terms) < len(right_terms):
            left_terms, right_terms = right_terms, left_terms
        for mono_r, coeff_r in right_terms.items():
            for mono_l, coeff_l in left_terms.items():
                mono = mono_l + mono_r
                out[mono] = get(mono, 0) + coeff_l * coeff_r
    return _new({mono: coeff for mono, coeff in out.items() if coeff}, bound)


def split_keyed(terms: dict[int, int], key_bits: int, bound: int) -> dict[int, MultiPoly]:
    """The term maps of a keyed term map, one MultiPoly per key that keeps
    a nonzero term, each with the exponent bound ``bound``; zero
    coefficients are dropped here, once."""
    mask = (1 << key_bits) - 1
    maps: dict = {}
    for composite, coeff in terms.items():
        if coeff:
            key = composite & mask
            one_map = maps.get(key)
            if one_map is None:
                maps[key] = {composite >> key_bits: coeff}
            else:
                one_map[composite >> key_bits] = coeff
    for key, one_map in maps.items():
        maps[key] = _new(one_map, bound)
    return maps
