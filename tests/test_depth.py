"""Deep instances under a tight recursion limit.

Every traversal of the induction runs on an explicit stack or as a plain
loop, so no pass may use Python stack depth proportional to the instance.
Each test lowers the recursion limit to a small margin above the current
depth; a recursive traversal of these instances would exceed it.
"""

from __future__ import annotations

import inspect
import sys
from contextlib import contextmanager

import pytest

from nilcert import (
    FinitePoset,
    Holds,
    ProblemInstance,
    Reduce,
    extract_certificate,
    grow_digraph,
    root_exponent,
    run_induction,
    structural_metrics,
    verify_symbolic,
)

HEADROOM = 60


@contextmanager
def shallow_stack():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + HEADROOM)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


DEEP_N, DEEP_M = 150, 1


@pytest.fixture(scope="module")
def deep_digraph():
    return grow_digraph(ProblemInstance.generic(DEEP_N, DEEP_M))


def test_grow_digraph_on_deep_instance():
    with shallow_stack():
        digraph = grow_digraph(ProblemInstance.generic(DEEP_N, DEEP_M))
    assert len(digraph.nodes) == DEEP_N * DEEP_M + DEEP_N + DEEP_M
    assert digraph.nodes[digraph.root].exponent == DEEP_N + 1


def test_structural_metrics_on_deep_instance(deep_digraph):
    with shallow_stack():
        metrics = structural_metrics(deep_digraph)
    assert metrics["height"] == DEEP_N
    assert metrics["tree_leaf_count"] == DEEP_N + 1


def test_root_exponent_on_deep_instance(deep_digraph):
    with shallow_stack():
        exponent, per_node = root_exponent(deep_digraph)
    assert exponent == DEEP_N + 1
    assert len(per_node) == len(deep_digraph.nodes)


def test_certificate_on_deep_generic_instance():
    n, m = 80, 1
    digraph = grow_digraph(ProblemInstance.generic(n, m))
    with shallow_stack():
        certificate = extract_certificate(digraph, 1)
        check = verify_symbolic(certificate)
    assert certificate.exponent == n + 1
    assert check.ok


def test_run_induction_on_long_ladder():
    # x_0 < x_1 < .. < x_199 is a chain; each x_k (k < 199) also lies
    # below a side element s_k, incomparable to x_(k+1), and is the meet
    # of the two.  Reducing x_k to (x_(k+1), s_k) walks the whole chain.
    length = 200

    def leq(p, q):
        return p == q or (p[0] == "x" and p[1] <= q[1])

    def meet(y, z):
        if leq(y, z):
            return y
        if leq(z, y):
            return z
        return ("x", min(y[1], z[1]))

    chain = [("x", k) for k in range(length)]
    sides = [("s", k) for k in range(length - 1)]
    poset = FinitePoset(tuple(chain + sides), leq, meet)

    def goodness(p):
        if p[0] == "x" and p[1] < length - 1:
            return Reduce(("x", p[1] + 1), ("s", p[1]))
        return Holds(1)

    def merge(x, y, z, ev_y, ev_z):
        return ev_y + ev_z

    with shallow_stack():
        evidence = run_induction(poset, goodness, merge)
    assert list(evidence) == list(poset.elements)
    assert [evidence[p] for p in chain] == [length - k for k in range(length)]
    assert all(evidence[p] == 1 for p in sides)
