"""Span tracing around nilcert's layer boundaries, from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
nilcert module namespace that holds it (``cli`` does
``from .engine import grow_digraph``, so the name is rebound there too),
and wraps the ``MultiPoly`` operators and ``RingHandle.power`` on their
classes.  A wrapper records one span per call: name, start, end, parent
span and op id.  Spans are kept in flat arrays in memory and written out
once, by ``write``.

A span's self time is its duration minus the time its child spans cover;
it is accumulated as spans close, so per-layer totals need no second pass.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (module, attribute, span name).  "Class.method" attributes are wrapped on
# the class; plain names are rebound in every nilcert namespace.
TRACED = (
    ("poly", "MultiPoly.__mul__", "poly.mul"),
    ("poly", "MultiPoly.__rmul__", "poly.mul"),
    ("poly", "MultiPoly.__add__", "poly.add"),
    ("poly", "MultiPoly.__radd__", "poly.add"),
    ("poly", "MultiPoly.__sub__", "poly.sub"),
    ("poly", "MultiPoly.__rsub__", "poly.sub"),
    ("poly", "MultiPoly.__neg__", "poly.neg"),
    ("poly", "MultiPoly.__pow__", "poly.pow"),
    ("poly", "MultiPoly.parse", "poly.parse"),
    ("poly", "MultiPoly.render", "poly.render"),
    ("rings", "xgcd", "rings.xgcd"),
    ("rings", "RingHandle.power", "rings.power"),
    ("oracles", "mod_membership", "oracles.mod_membership"),
    ("oracles", "generic_closure", "oracles.generic_closure"),
    ("oracles", "generic_membership", "oracles.generic_membership"),
    ("engine", "check_unit", "engine.check_unit"),
    ("engine", "convolution", "engine.convolution"),
    ("engine", "convolution_polys", "engine.convolution_polys"),
    ("engine", "case_split", "engine.case_split"),
    ("engine", "grow_digraph", "engine.grow_digraph"),
    ("engine", "root_exponent", "engine.root_exponent"),
    ("engine", "structural_metrics", "engine.structural_metrics"),
    ("certificates", "unit_relation", "certificates.unit_relation"),
    ("certificates", "expand_witness", "certificates.expand_witness"),
    ("certificates", "membership_witness", "certificates.membership_witness"),
    ("certificates", "gauss_product_witness", "certificates.gauss_product_witness"),
    ("certificates", "combine", "certificates.combine"),
    ("certificates", "node_witnesses", "certificates.node_witnesses"),
    ("certificates", "extract_certificate", "certificates.extract_certificate"),
    ("certificates", "verify_symbolic", "certificates.verify_symbolic"),
    ("certificates", "power_check", "certificates.power_check"),
    ("certificates", "verify_concrete", "certificates.verify_concrete"),
    ("certificates", "dump_certificate", "certificates.dump"),
    ("certificates", "load_certificate", "certificates.load"),
    ("induction", "run_induction", "induction.run_induction"),
    ("induction", "spt_modn", "induction.spt_modn"),
    ("induction", "radical_modn", "induction.radical_modn"),
    ("induction", "radical_ideal_poset", "induction.radical_ideal_poset"),
    ("induction", "ln_decompose", "induction.ln_decompose"),
    ("dot", "emit_dot", "dot.emit_dot"),
    ("cli", "main", "cli.main"),
)


def _poly_len(value) -> int:
    return len(value) if hasattr(value, "terms") else 1


def _count_mul(tracer, args, result):
    tracer.add("poly.mul.term_pairs", _poly_len(args[0]) * _poly_len(args[1]))


def _count_parse(tracer, args, result):
    tracer.add("poly.parse.bytes", len(args[-1]))


def _count_digraph(tracer, args, result):
    tracer.add("engine.nodes", len(result.nodes))
    tracer.add("engine.edges", sum(len(node.children) for node in result.nodes.values()))


def _count_certificate(tracer, args, result):
    witness = result.root_witness
    terms = len(witness.unit_coeff) + sum(len(c) for c in witness.rel_coeffs.values())
    tracer.add("certificates.root_witness_terms", terms)


def _count_dump(tracer, args, result):
    tracer.add("certificates.dump.bytes", len(result))


def _count_poset(tracer, args, result):
    tracer.add("induction.poset_elements", len(args[0].elements))


def _count_dot(tracer, args, result):
    tracer.add("dot.bytes", len(result))


COUNTERS = {
    "poly.mul": _count_mul,
    "poly.parse": _count_parse,
    "engine.grow_digraph": _count_digraph,
    "certificates.extract_certificate": _count_certificate,
    "certificates.dump": _count_dump,
    "induction.run_induction": _count_poset,
    "dot.emit_dot": _count_dot,
}


class Tracer:
    """Records spans and counters for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        self.op_id = -1
        # One [span index, child time] pair per open span.
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self._caches: dict[str, tuple[object, object]] = {}

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def span(self, name: str, func, counter=None):
        """Wrap func so each call records one span named name."""
        nid = self._intern(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            self.start.append(start)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.end[index] = end
                duration = end - start
                self.calls[nid] += 1
                self.self_s[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every name in TRACED; undo with uninstall."""
        modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "nilcert"]
        for module_name, attr, span_name in TRACED:
            module = sys.modules.get(f"nilcert.{module_name}")
            if module is None:
                continue
            counter = COUNTERS.get(span_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(method)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.span(span_name, raw.__func__, counter))
                else:
                    wrapped = self.span(span_name, raw, counter)
                self._restore.append((cls, method, raw))
                setattr(cls, method, wrapped)
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            if hasattr(original, "cache_info"):
                self._caches[span_name] = (original, original.cache_info())
            wrapped = self.span(span_name, original, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def cache_counts(self, span_name: str) -> tuple[int, int]:
        """(hits, misses) of an lru_cache'd function since install; a
        function without a cache counts every call as a miss."""
        if span_name not in self._caches:
            nid = self._ids.get(span_name)
            return 0, 0 if nid is None else self.calls[nid]
        func, before = self._caches[span_name]
        after = func.cache_info()
        return after.hits - before.hits, after.misses - before.misses

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_of(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def layer_self(self) -> dict[str, float]:
        """Self time summed per layer (the span-name prefix)."""
        out: dict[str, float] = {}
        for name, seconds in zip(self.names, self.self_s):
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def write(self, path: Path) -> None:
        """Write all spans: one JSON header line, then the raw arrays in the
        header's field order (native byte order).  ``load`` reads it back."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "fields": [["name_id", "H"], ["start", "d"], ["end", "d"], ["parent", "i"], ["op", "i"]],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent, self.op):
                arr.tofile(out)


def load(path: Path) -> tuple[list[str], dict[str, array]]:
    """Read a span file written by Tracer.write."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        columns = {}
        for field, code in header["fields"]:
            arr = array(code)
            arr.fromfile(src, header["count"])
            columns[field] = arr
    return header["names"], columns
