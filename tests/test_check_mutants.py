"""The node check's own adversary: mutants of its soundness checks.

Each mutant is one textual edit of a check in ``certificates``, named
after the check it weakens: the node identity's (``_identity_holds`` and
the walk's length guard and tail label), the grid rules of the walk over
the tails (``_walk``: tags, children, exponents, closed a-bits, which
targets go on, each later use of an identity, no unread node), the
certificate ranges' (``_check_ranges``) and the dump reader's
(``load_certificate``).  The edited source is loaded as a fresh module
and runs two fixed batteries: node proofs, true and false, through its
own ``checked_exponents`` with fake witness sources and tampered
digraphs, and dumps, one true and the rest malformed, through its own
``load_certificate`` and ``verify_symbolic``.  Every mutant must judge
some proof or dump otherwise than the real module: accept a false one,
reject a true one, raise where the real module gives a verdict, give one
where it raises, or raise another exception.  A later change that
removes one of these checks has to delete its mutant here, in plain view.
"""

from __future__ import annotations

import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import helpers
from nilcert import CaseTag, IdealLabel, ProblemInstance, avar, bvar, certificates, dump_certificate, grow_digraph
from nilcert.certificates import KeyedWitness, local_witnesses
from nilcert.poly import EXPONENT_LIMIT

SOURCE = Path(certificates.__file__).read_text(encoding="utf-8")

# name -> (text of the check, its mutated text).  Each text occurs once.
# A failed check returns None and never raises, so the mutant without the
# length guard, which raises ValueError where a source gives no witness,
# judges that proof otherwise than the real module.
MUTANTS = {
    "generator key tested against the label": (
        '            elif label.has("ab"[tag], index):\n',
        "            elif True:\n",
    ),
    "relation index tested against 1..n+m": (
        "                if not 1 <= index <= n + m:\n",
        "                if False:\n",
    ),
    "unit key tested against index 0": (
        "                if index:\n                    return False\n",
        "",
    ),
    "identity checked at n+m >= 7": (
        "    n, m = label.n, label.m\n    bits = _key_bits(n, m)\n",
        "    n, m = label.n, label.m\n    if n + m >= 7:\n        return True\n    bits = _key_bits(n, m)\n",
    ),
    "one witness per subject (length guard)": (
        "        if len(local) != len(subjects):\n            raise _Refused\n",
        "",
    ),
    "subject subtracted": (
        "        if out.pop(mono, 0) != coeff:\n            return False\n",
        "        pass\n",
    ),
    "overflow guard": (
        '                raise OverflowError(f"a product exponent could reach 2**{FIELD_BITS}")\n',
        "                pass\n",
    ),
    "root label empty": (
        "    if digraph.root != IdealLabel.root(n, m):\n        return None\n",
        "",
    ),
    "identities expanded at the node's tail label": (
        "_identity_holds(witness, label, subject)",
        "_identity_holds(witness, IdealLabel.tail(n, m, n, m), subject)",
    ),
    "tag a leaf or branch(n-A, m-B)": (
        "            or not node.tag.is_leaf and node.tag != (n - A, m - B)\n",
        "",
    ),
    "stored children equal to the tag's": (
        "            or node.children != node.tag.children(label)\n",
        "",
    ),
    "stored exponent without early stop": (
        "        if not early_stop and value[ascending[0]][0] != node.exponent:\n",
        "        if False:\n",
    ),
    "closed a-bits the grid's under early stop": (
        "            or early_stop and node.closed_a != (label.a if B < m else full)\n",
        "",
    ),
    "a_i0 goes on past a branch iff i0 <= n-A": (
        "        going = [] if node.tag.is_leaf else upto(n - A)\n",
        "        going = [] if node.tag.is_leaf else upto(n)\n",
    ),
    "generator keys tested at each later use": (
        "            elif A < kept[0] or B < kept[1]:\n",
        "            elif False:\n",
    ),
    "no node the walk does not read": (
        "    if read != len(nodes):\n        return None\n",
        "",
    ),
    "sizes in range (_check_ranges)": (
        "    if not (1 <= n <= MAX_INDEX and 0 <= m <= MAX_INDEX and 1 <= i0 <= n and 1 <= e < EXPONENT_LIMIT):\n"
        '        raise ValueError(f"sizes out of range: n={n}, m={m}, i0={i0}, e={e}")\n',
        "",
    ),
    "relation indices in 1..n+m (_check_ranges)": (
        "    if not all(1 <= k <= n + m for k in rels):\n",
        "    if False:\n",
    ),
    "no key repeated in one JSON object (_unique_keys)": (
        "    if len(doc) < len(pairs):\n",
        "    if False:\n",
    ),
    "relation keys written as plain integers": (
        "        if str(int(key)) != key:\n",
        "        if False:\n",
    ),
    "n, m, i0 and e of integer type": (
        "    if any(type(value) is not int for value in sizes):\n",
        "    if False:\n",
    ),
    "exponent headroom of a loaded coefficient": (
        "    if any(c.exponent_bound + 2 >= EXPONENT_LIMIT for c in (*rel_coeffs.values(), unit_coeff)):\n",
        "    if False:\n",
    ),
}


def load(source: str, name: str) -> types.ModuleType:
    """source run as a fresh module of the nilcert package."""
    module = types.ModuleType("nilcert._mutant")
    module.__package__ = "nilcert"
    sys.modules[module.__name__] = module
    try:
        exec(compile(source, f"<mutant: {name}>", "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def replacing(at, change):
    """The witness source whose list of keyed witnesses at label ``at``
    is change(label, tag, witnesses)."""

    def source(label, tag, targets):
        witnesses = local_witnesses(label, tag, targets)
        return change(label, tag, witnesses) if label == at else witnesses

    return source


def with_node(digraph, at, **fields):
    """A copy of the digraph whose node at ``at`` has the given fields
    replaced."""
    nodes = dict(digraph.nodes)
    nodes[at] = replace(nodes[at], **fields)
    return replace(digraph, nodes=nodes)


def unit_moved(label, tag, witnesses):
    """The unit coefficient's terms moved from its key to the unit key of
    index 1: the same terms, under a key that names no coefficient."""
    mask = (1 << helpers.key_bits(label)) - 1
    (witness,) = witnesses
    moved = 1 << 2 | helpers.UNIT
    terms = {c - helpers.UNIT + moved if c & mask == helpers.UNIT else c: v for c, v in witness.terms.items()}
    return [KeyedWitness(terms, witness.bound)]


def has_unit_terms(label, tag) -> bool:
    (witness,) = local_witnesses(label, tag, [1])
    return not helpers.field_form(witness, label).unit_coeff.is_zero


def battery():
    """(case name, digraph, targets, early_stop, source): true proofs
    first, then false ones, each false in one node or in the digraph's
    structure."""
    small = grow_digraph(ProblemInstance.generic(3, 2))
    wide = grow_digraph(ProblemInstance.generic(4, 3))
    tiny = grow_digraph(ProblemInstance.generic(2, 1))
    leaf = next(label for label, node in small.nodes.items() if node.tag.is_leaf)
    wide_leaf = next(label for label, node in wide.nodes.items() if node.tag.is_leaf)
    tiny_leaf = next(label for label, node in tiny.nodes.items() if node.tag.is_leaf)
    tiny_unit_leaf = next(
        label for label, node in tiny.nodes.items() if node.tag.is_leaf and has_unit_terms(label, node.tag)
    )
    u = avar(1)
    root, child = small.nodes[small.root], small.nodes[small.root].children[0]
    tail = lambda a_count, b_count: IdealLabel.tail(3, 2, a_count, b_count)  # noqa: E731
    # The tail (0,1) made a leaf, its only child (0,2) gone and the root's
    # exponent summed again: a_1 ends there, where its leaf identity, built
    # in relation form at a leaf with B = 2, has a b_1 that is no generator.
    cut_short = dict(small.nodes)
    cut_short[tail(0, 1)] = replace(cut_short[tail(0, 1)], tag=CaseTag.leaf(), children=(), exponent=1)
    del cut_short[tail(0, 2)]
    cut_short[small.root] = replace(root, exponent=small.nodes[tail(1, 0)].exponent + 1)
    wrong_tag = CaseTag.branch(3, 2)

    def bumped_unit(label, tag, witnesses):
        field = helpers.field_form(witnesses[0], label)
        return [helpers.keyed(replace(field, unit_coeff=field.unit_coeff + 1), label)]

    def by_generator(label, tag, witnesses):
        """a_i*b_j = b_j * a_i: an identity, no proof where a_i is no generator."""
        return [helpers.keyed(helpers.FieldWitness({helpers.Indeterminate.a(tag.i): bvar(tag.j)}), label)]

    def by_c0(label, tag, witnesses):
        """u = u*c_0 - u*r0: an identity, but c_0 = a0*b0 is 1 modulo the relations."""
        return [helpers.keyed(helpers.FieldWitness(rel_coeffs={0: u}, unit_coeff=-u), label)]

    cases = [
        ("true (3,2), all targets", small, (1, 2, 3), False, local_witnesses),
        ("true (3,2), all targets, early stop", small, (1, 2, 3), True, local_witnesses),
        ("true (4,3)", wide, (2,), False, local_witnesses),
        ("false (4,3): unit coefficient off by one at a leaf", wide, (1,), False, replacing(wide_leaf, bumped_unit)),
        ("false (3,2): a_i*b_j as b_j times a_i at the root", small, (1,), False, replacing(small.root, by_generator)),
        ("false (2,1): u = u*c_0 - u*r0 at a leaf", tiny, (1,), False, replacing(tiny_leaf, by_c0)),
        (
            "false (2,1): a leaf's unit coefficient under a unit key of index 1",
            tiny,
            (1,),
            False,
            replacing(tiny_unit_leaf, unit_moved),
        ),
        ("false (3,2): no product witness at the root", small, (1,), False, replacing(small.root, lambda *_: [])),
        (
            "false (3,2): a leaf witness whose bound reaches the overflow guard",
            small,
            (1,),
            False,
            replacing(leaf, lambda label, tag, ws: [KeyedWitness(ws[0].terms, EXPONENT_LIMIT - 1)]),
        ),
        ("false (3,2): a root that is no empty label", replace(small, root=child), (1,), False, local_witnesses),
        (
            "false (3,2): a root tag out of range",
            with_node(small, small.root, tag=CaseTag.branch(5, 5)),
            (1,),
            False,
            local_witnesses,
        ),
        (
            "false (3,2): the root's children stored swapped",
            with_node(small, small.root, children=root.children[::-1]),
            (1,),
            False,
            local_witnesses,
        ),
        (
            "false (3,2): the root's exponent off by one",
            with_node(small, small.root, exponent=root.exponent + 1),
            (1,),
            False,
            local_witnesses,
        ),
        (
            "false (3,2), early stop: the root's closed a-bits wider than n",
            with_node(small, small.root, closed_a=root.closed_a | 1 << small.n),
            (1, 2, 3),
            True,
            local_witnesses,
        ),
        ("false (3,2): a_1 ends at the tail (0,1)", replace(small, nodes=cut_short), (1,), False, local_witnesses),
        (
            "false (3,2): branch(3,2) with its own children at the tail (1,0)",
            with_node(small, tail(1, 0), tag=wrong_tag, children=wrong_tag.children(tail(1, 0))),
            (1,),
            False,
            local_witnesses,
        ),
        (
            "false (3,2): a node off the grid of tails",
            replace(small, nodes={**small.nodes, helpers.label(3, 2, "a1"): small.nodes[leaf]}),
            (1,),
            False,
            local_witnesses,
        ),
        (
            "false (3,2): no root node",
            replace(small, nodes={label: node for label, node in small.nodes.items() if label != small.root}),
            (1,),
            False,
            local_witnesses,
        ),
    ]
    return cases


BATTERY = battery()


def dumps() -> list[tuple[str, str]]:
    """(case name, dump text): the true (2,1) dump for a_1, e = 3, then
    that dump with one field malformed, or a dump of a false identity."""
    true = dump_certificate(certificates.extract_certificate(grow_digraph(ProblemInstance.generic(2, 1)), 1))
    doc = json.loads(true)
    assert doc["e"] == 3 and "1" in doc["rel_coeffs"]

    def edited(**fields) -> str:
        return json.dumps({**doc, **fields}, indent=2) + "\n"

    padded = {("01" if key == "1" else key): value for key, value in doc["rel_coeffs"].items()}
    return [
        ("true (2,1), a_1, e = 3", true),
        ("i0 = 3 outside 1..n", edited(i0=3)),
        ("u = u*c_0 - u*r0 with u = a_1, e = 1", edited(e=1, rel_coeffs={"0": "1*a1"}, unit_coeff="-1*a1")),
        ("e given twice, 2 then 3", true.replace('  "e": 3,\n', '  "e": 2,\n  "e": 3,\n')),
        ("relation key 1 written as 01", edited(rel_coeffs=padded)),
        ("i0 written as true", edited(i0=True)),
        ("a unit coefficient with no exponent headroom", edited(unit_coeff=f"1*a1^{EXPONENT_LIMIT - 2}")),
    ]


DUMPS = dumps()


def verdicts(module: types.ModuleType) -> list:
    """The module's exponents for each case of the node battery, None for
    a failed check, then its ``verify_symbolic`` verdict on each loaded
    dump; the class of the exception raised in place of either."""
    out = []
    for _, digraph, targets, early_stop, source in BATTERY:
        try:
            out.append(module.checked_exponents(digraph, *targets, early_stop=early_stop, source=source))
        except (OverflowError, ValueError, KeyError) as exc:
            out.append(type(exc))
    for _, text in DUMPS:
        try:
            out.append(module.verify_symbolic(module.load_certificate(text)).ok)
        except (OverflowError, ValueError, KeyError) as exc:
            out.append(type(exc))
    return out


REAL = verdicts(certificates)
CASES = [case[0] for case in BATTERY] + [name for name, _ in DUMPS]


def test_the_real_module_judges_every_proof():
    assert dict(zip(CASES[: len(BATTERY)], REAL)) == {
        "true (3,2), all targets": {1: 10, 2: 10, 3: 10},
        "true (3,2), all targets, early stop": {1: 10, 2: 6, 3: 3},
        "true (4,3)": {2: 35},
        "false (4,3): unit coefficient off by one at a leaf": None,
        "false (3,2): a_i*b_j as b_j times a_i at the root": None,
        "false (2,1): u = u*c_0 - u*r0 at a leaf": None,
        "false (2,1): a leaf's unit coefficient under a unit key of index 1": None,
        "false (3,2): no product witness at the root": None,
        "false (3,2): a leaf witness whose bound reaches the overflow guard": OverflowError,
        "false (3,2): a root that is no empty label": None,
        "false (3,2): a root tag out of range": None,
        "false (3,2): the root's children stored swapped": None,
        "false (3,2): the root's exponent off by one": None,
        "false (3,2), early stop: the root's closed a-bits wider than n": None,
        "false (3,2): a_1 ends at the tail (0,1)": None,
        "false (3,2): branch(3,2) with its own children at the tail (1,0)": None,
        "false (3,2): a node off the grid of tails": None,
        "false (3,2): no root node": None,
    }


def test_the_real_module_judges_every_dump():
    """The true dump verifies, and every other is refused on load."""
    assert dict(zip(CASES[len(BATTERY) :], REAL[len(BATTERY) :])) == {
        name: True if name.startswith("true") else ValueError for name, _ in DUMPS
    }


def test_the_real_source_loads_as_a_fresh_module():
    assert verdicts(load(SOURCE, "unchanged")) == REAL


@pytest.mark.parametrize("name", list(MUTANTS))
def test_every_mutant_is_killed(name):
    check, mutated = MUTANTS[name]
    assert SOURCE.count(check) == 1, f"the check that {name!r} mutates is no longer in certificates"
    got = verdicts(load(SOURCE.replace(check, mutated), name))
    killed = [case for case, real, mutant in zip(CASES, REAL, got) if real != mutant]
    assert killed, f"no proof or dump in the batteries tells the mutant {name!r} from the real check"
