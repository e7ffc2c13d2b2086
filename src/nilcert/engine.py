"""Induction digraph over ideal labels.

Given an inverse pair f*g = 1 (with concrete coefficients in Z/n, or with
indeterminate coefficients), every label D is classified:

* leaf: all of a_1..a_n lie in the ideal of D, so in particular any chosen
  nonconstant coefficient u = a_i0 does, with exponent 1;
* branch(i, j): i is the largest index with a_i outside the ideal and j the
  largest with b_j outside; the two children add a_i resp. b_j to the
  generators, and the parent's exponent is the sum of the children's.

Memoizing by label turns the underlying full binary tree into a small
acyclic digraph; labels grow strictly along edges, so construction
terminates.  It runs as one post-order walk on an explicit stack, so depth
is unbounded, and stores nodes children-first: later passes are loops.
The root exponent e is the number of leaves of the unfolded tree and
satisfies u^e = 0 for every choice of u.  Each node keeps the closed
a-bits its label was classified by, so that a target's early-stop digraph
is a cut of the plain one, with no label classified twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .oracles import IdealLabel, closure_bits, last_clear, mod_closure_bits


class NotAUnit(Exception):
    """The product f*g is not 1: carries the first violated index."""

    def __init__(self, k: int, value: object):
        expected = "1" if k == 0 else "0"
        super().__init__(f"c[{k}] = {value} (expected {expected})")
        self.k = k
        self.value = value


class InternalInconsistency(Exception):
    """Some a_i lies outside the ideal but every b_j lies inside.

    Impossible for a genuine inverse pair; reaching this means the unit
    check was skipped or violated.
    """


class CaseTag(NamedTuple("CaseTag", [("i", int | None), ("j", int | None)])):
    """Classification of a label: leaf, or branch(i, j) with the maximal
    indices of an a- and a b-coefficient outside the ideal.  A tag is the
    tuple ``(i, j)``, ``(None, None)`` for a leaf."""

    __slots__ = ()

    def __new__(cls, i: int | None = None, j: int | None = None) -> CaseTag:
        if (i is None) != (j is None):
            raise ValueError("branch tags need both indices")
        if i is not None and (i < 1 or j < 1):
            raise ValueError("branch indices start at 1")
        return tuple.__new__(cls, (i, j))

    @classmethod
    def _make(cls, iterable) -> CaseTag:
        # Through __new__, so that _replace refuses what it does.
        return cls(*iterable)

    @classmethod
    def leaf(cls) -> CaseTag:
        return cls()

    @classmethod
    def branch(cls, i: int, j: int) -> CaseTag:
        return cls(i, j)

    @property
    def is_leaf(self) -> bool:
        return self.i is None

    def children(self, label: IdealLabel) -> tuple[IdealLabel, ...]:
        """label + a_i and label + b_j for branch(i, j), one OR each;
        none for a leaf."""
        i, j = self
        if i is None:
            return ()
        n, m, a, b = label
        if i > n or j > m:
            raise ValueError(f"{self} out of range for label {label.render()}")
        # In range, each child fits its masks: no second check.
        return (
            tuple.__new__(IdealLabel, (n, m, a | label.bit("a", i), b)),
            tuple.__new__(IdealLabel, (n, m, a, b | label.bit("b", j))),
        )

    def __str__(self) -> str:
        return "leaf" if self.is_leaf else f"branch({self.i},{self.j})"


@dataclass(frozen=True)
class ProblemInstance:
    """One run of the pipeline: degrees n, m plus the coefficient mode.

    Generic mode (modulus is None) treats the coefficients as
    indeterminates subject only to the inverse-pair relations; concrete
    mode carries a modulus N >= 2 and the coefficient lists a (length n+1)
    and b (length m+1) over Z/N, lowest degree first, each canonical in
    [0, N).  The instance does not name the coefficient u = a_i0 under
    study: one digraph serves every target, and only an early stop, in
    ``grow_digraph`` or ``early_stop_cut``, is tied to one.
    """

    n: int
    m: int
    modulus: int | None = None
    a: tuple[int, ...] | None = None
    b: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        concrete_fields = (self.modulus, self.a, self.b)
        if any(x is not None for x in concrete_fields) and not all(
            x is not None for x in concrete_fields
        ):
            raise ValueError("concrete instances need modulus, a and b together")
        if self.modulus is not None:
            if self.modulus < 2:
                raise ValueError(f"modulus must be >= 2, got {self.modulus}")
            if len(self.a) != self.n + 1 or len(self.b) != self.m + 1:
                raise ValueError("coefficient list lengths must be n+1 and m+1")
            if any(not 0 <= v < self.modulus for v in self.a + self.b):
                raise ValueError("concrete coefficients must be canonical")

    @classmethod
    def generic(cls, n: int, m: int) -> ProblemInstance:
        return cls(n=n, m=m)

    @classmethod
    def concrete(cls, modulus: int, f: Sequence[int], g: Sequence[int]) -> ProblemInstance:
        """Build a concrete instance, reducing coefficients mod the modulus."""
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if len(f) < 2:
            raise ValueError("f needs a nonconstant coefficient (degree >= 1)")
        if len(g) < 1:
            raise ValueError("g needs at least its constant coefficient")
        return cls(
            n=len(f) - 1,
            m=len(g) - 1,
            modulus=modulus,
            a=tuple(v % modulus for v in f),
            b=tuple(v % modulus for v in g),
        )

    @property
    def is_generic(self) -> bool:
        return self.modulus is None


def convolution(a: Sequence[int], b: Sequence[int], modulus: int) -> list[int]:
    """c_k = sum over i+j = k of a_i * b_j in Z/modulus, for k = 0..n+m,
    each canonical."""
    if not a or not b:
        raise ValueError("coefficient lists must be nonempty")
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            c[i + j] = c[i + j] + ai * bj
    return [ck % modulus for ck in c]


def check_unit(c: Sequence[int]) -> None:
    """Require c_0 = 1 and c_k = 0 for k >= 1; raise NotAUnit otherwise."""
    if c[0] != 1:
        raise NotAUnit(0, c[0])
    for k in range(1, len(c)):
        if c[k] != 0:
            raise NotAUnit(k, c[k])


def _check_target(n: int, early_stop_target: int | None) -> None:
    if early_stop_target is not None and not 1 <= early_stop_target <= n:
        raise ValueError(f"early-stop target must lie in 1..{n}, got {early_stop_target}")


def case_split(
    label: IdealLabel,
    instance: ProblemInstance,
    early_stop_target: int | None = None,
) -> tuple[CaseTag, int]:
    """Classify a label as leaf or branch(i, j) with maximal i, j; also
    return its closed a-bits, the mask of the a_i in the ideal.

    The split works on two such masks, one per family: the rule closure's
    in generic mode, those of one gcd per label over Z/N.  With
    ``early_stop_target`` set (it must lie in 1..n), the node is already a
    leaf once the studied coefficient itself lies in the ideal.
    """
    _check_target(instance.n, early_stop_target)
    if instance.is_generic:
        a_in, b_in = closure_bits(label)
    else:
        a_in, b_in = mod_closure_bits(label, instance.modulus, instance.a, instance.b)

    if early_stop_target is not None and a_in & label.bit("a", early_stop_target):
        return CaseTag.leaf(), a_in
    i = last_clear(a_in, label.n)
    if not i:
        return CaseTag.leaf(), a_in
    j = last_clear(b_in, label.m)
    if not j:
        raise InternalInconsistency(
            f"a{i} lies outside the ideal of {label.render()} "
            "but every b does not; the instance is not an inverse pair"
        )
    return CaseTag.branch(i, j), a_in


def _post_order(root, expand, finish, memo: dict):
    """Value of ``root`` on an acyclic structure, children first.

    ``expand(x)`` returns ``(payload, children)`` and, once every child has
    a value, ``finish(x, payload, children, child_values)`` gives x's.  The
    walk always descends into the first child without a value in ``memo``
    and stores values there in finishing order, on an explicit stack.
    """
    if root not in memo:
        payload, children = expand(root)
        stack = [(root, payload, children, iter(children))]
        while stack:
            x, payload, children, pending = stack[-1]
            for child in pending:
                if child not in memo:
                    child_payload, grandchildren = expand(child)
                    stack.append((child, child_payload, grandchildren, iter(grandchildren)))
                    break
            else:
                stack.pop()
                memo[x] = finish(x, payload, children, [memo[c] for c in children])
    return memo[root]


@dataclass(frozen=True, slots=True)
class DigraphNode:
    """A label's case tag, children and exponent, and its closed a-bits:
    the mask, in the label's layout, of the a_i in the ideal of the label."""

    tag: CaseTag
    children: tuple[IdealLabel, ...]
    exponent: int
    closed_a: int


@dataclass
class Digraph:
    """Memoized induction structure: one node per reached label.

    ``nodes`` must be in post-order (children before parents, root last);
    the passes below rely on it.
    """

    n: int
    m: int
    root: IdealLabel
    nodes: dict[IdealLabel, DigraphNode]
    generic: bool

    def edges(self) -> list[tuple[IdealLabel, IdealLabel]]:
        out = []
        for label in sorted(self.nodes):
            for child in self.nodes[label].children:
                out.append((label, child))
        return out


def grow_digraph(instance: ProblemInstance, early_stop_target: int | None = None) -> Digraph:
    """Post-order construction keyed by label.

    Children add one generator each, so labels strictly grow along edges
    and the walk terminates.  Leaves carry exponent 1, branches the sum of
    their children's exponents.  Each label is classified once, and its
    node keeps the closed a-bits that gave its tag.  Without
    ``early_stop_target`` the digraph serves every target a_1..a_n, and
    ``early_stop_cut`` cuts each target's early-stop digraph from it; with
    it (in 1..n, else ValueError) a label is a leaf as soon as that one
    coefficient is in its ideal, and the digraph serves that target alone.
    """

    def expand(label: IdealLabel) -> tuple[tuple[CaseTag, int], tuple[IdealLabel, ...]]:
        tag, closed_a = case_split(label, instance, early_stop_target)
        return (tag, closed_a), tag.children(label)

    def finish(label, payload, children, child_nodes) -> DigraphNode:
        tag, closed_a = payload
        return DigraphNode(tag, children, sum(c.exponent for c in child_nodes) if children else 1, closed_a)

    nodes: dict[IdealLabel, DigraphNode] = {}
    root = IdealLabel.root(instance.n, instance.m)
    _post_order(root, expand, finish, nodes)
    return Digraph(instance.n, instance.m, root, nodes, instance.is_generic)


def early_stop_cut(digraph: Digraph, target: int) -> Digraph:
    """The early-stop digraph of a_target, cut from ``digraph``.

    ``digraph`` is grown without early stop, or with this same target.
    Until a_target enters the ideal, early-stop growth makes the plain
    tags and children, so the cut walks ``digraph`` from its root as
    ``grow_digraph`` walks the labels, in the same post-order: a label whose
    closed a-bits hold a_target becomes a leaf with exponent 1, every other
    label keeps its tag and children, and exponents are summed again,
    children first.  Labels the cut no longer reaches are dropped, and
    nodes that come out unchanged are shared.  The result equals
    ``grow_digraph(instance, early_stop_target=target)`` node for node,
    with no closure or gcd recomputed.  It describes the target's proof
    (its DOT file, metrics and exponent); the check needs no cut, since
    ``certificates.checked_exponents`` applies the same stopping rule in
    its one walk over ``digraph``.  Raises ValueError when target lies
    outside 1..n, or at a leaf that a_target is not in (a digraph
    early-stopped for another target).
    """
    _check_target(digraph.n, target)
    nodes = digraph.nodes

    def expand(label: IdealLabel) -> tuple[DigraphNode, tuple[IdealLabel, ...]]:
        node = nodes[label]
        if node.closed_a & label.bit("a", target):
            return node, ()
        if not node.children:
            raise ValueError(f"a{target} is not in the ideal of the leaf {label.render()}")
        return node, node.children

    def finish(label, node, children, child_nodes) -> DigraphNode:
        exponent = sum(c.exponent for c in child_nodes) if children else 1
        if node.children == children and node.exponent == exponent:
            return node
        return DigraphNode(node.tag if children else CaseTag.leaf(), children, exponent, node.closed_a)

    cut: dict[IdealLabel, DigraphNode] = {}
    _post_order(digraph.root, expand, finish, cut)
    return Digraph(digraph.n, digraph.m, digraph.root, cut, digraph.generic)


def structural_metrics(digraph: Digraph) -> dict[str, int]:
    """Size data of the digraph.

    height / shortest_path are the longest / shortest root-to-sink path
    lengths; tree_leaf_count is the leaf count of the unfolded binary tree,
    i.e. the root exponent.
    """
    longest: dict[IdealLabel, int] = {}
    shortest: dict[IdealLabel, int] = {}
    for label, node in digraph.nodes.items():
        if node.children:
            longest[label] = 1 + max(longest[c] for c in node.children)
            shortest[label] = 1 + min(shortest[c] for c in node.children)
        else:
            longest[label] = shortest[label] = 0
    leaf_count = sum(1 for node in digraph.nodes.values() if not node.children)
    return {
        "height": longest[digraph.root],
        "shortest_path": shortest[digraph.root],
        "vertex_count": len(digraph.nodes),
        "leaf_count": leaf_count,
        "tree_leaf_count": digraph.nodes[digraph.root].exponent,
    }
