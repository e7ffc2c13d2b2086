"""Graphviz DOT rendering of an induction digraph.

One node per label, named by its bitmask pair, e.g. "(001,1)"; sinks are
double-circled and every node is annotated with its exponent.  Nodes and
edges are emitted in sorted label order, so the output is byte-identical
across runs.
"""

from __future__ import annotations

from .engine import Digraph


def emit_dot(digraph: Digraph) -> str:
    lines = ["digraph induction {"]
    for label in sorted(digraph.nodes):
        node = digraph.nodes[label]
        name = label.render()
        shape = ", shape=doublecircle" if not node.children else ""
        lines.append(f'  "{name}" [label="{name}\\ne={node.exponent}"{shape}];')
    for label, child in digraph.edges():
        lines.append(f'  "{label.render()}" -> "{child.render()}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
