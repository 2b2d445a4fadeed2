"""Spans around calls into each wildcycles layer, recorded from outside.

`Tracer.install` replaces the public entry points below with timing wrappers,
in their defining module and in every wildcycles module that imported them by
name. Spans (name, parent, start, end) are kept in flat arrays in memory and
written out once, when the run ends. Per-layer metrics are derived from the
spans: a layer's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List

# (module, attribute, span name, observer of the result). Dotted attributes
# name methods. "kernels" is whichever kernel module the lane selected. Spans
# that no metric names still mark analysis calls, so that cli.overhead_s
# leaves them out.
TARGETS = [
    ("cli", "run", "cli.run", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("poly", "poly_parse", "poly.parse", None),
    ("weyl", "weyl_parse", "weyl.parse", None),
    ("groebner", "tame_wild_split", "groebner.tame_wild_split", None),
    ("groebner", "local_dimension", "groebner.local_dimension", None),
    ("groebner", "buchberger", "groebner.buchberger", lambda t, a, r: t.maximum("groebner.basis_max", len(r))),
    ("groebner", "normal_form", "groebner.normal_form", None),
    ("groebner", "standard_monomials", "groebner.standard_monomials", None),
    ("groebner", "quotient_dimension", "groebner.quotient_dimension", None),
    ("inertia", "inertia_membership", "inertia.membership", None),
    ("weyl", "WeylOperator.compose", "weyl.compose", None),
    ("fields", "Matrix.kernel_basis", "fields.kernel_basis", None),
    ("curves", "verify_identity", "curves.verify_identity", lambda t, a, r: t.add("curves.points", r.p * r.p)),
    ("curves", "slice_counts_with_multiplicity", "curves.multiplicity", None),
    ("kernels", "curve_affine_count", "curves.kernel", None),
    ("kernels", "curve_slice_counts", "curves.kernel", None),
    ("kernels", "curve_is_singular", "curves.kernel", None),
    ("dynsys", "euler_discretize", "dynsys.euler_discretize", None),
    ("dynsys", "orbit_decomposition", "dynsys.orbit", lambda t, a, r: t.add("dynsys.states", r.p**r.n)),
    ("kernels", "functional_graph_decompose", "dynsys.graph_kernel", None),
    ("dynsys", "parity_bijection_check", "dynsys.parity", None),
]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._undo: List[tuple] = []

    def add(self, key: str, n: int) -> None:
        self.counters[key] += n

    def maximum(self, key: str, n: int) -> None:
        self.counters[key] = max(self.counters[key], n)

    def _wrap(self, fn: Callable, span: str, observe) -> Callable:
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import wildcycles.backend

        modules = {name: sys.modules[f"wildcycles.{name}"] for name in ("cli", "poly", "weyl", "groebner", "inertia", "fields", "curves", "dynsys")}
        modules["kernels"] = wildcycles.backend.kernels
        everyone = [m for n, m in sys.modules.items() if n == "wildcycles" or n.startswith("wildcycles.")]
        for mod_name, attr, span, observe in TARGETS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(original, span, observe))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(original, span, observe)
            for mod in everyone + [owner]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)

    def _set(self, obj, key, value) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._undo):
            setattr(obj, key, value)
        self._undo.clear()

    def totals(self):
        """Per span name: call count, total duration, and per (parent name,
        child name) the duration of direct children."""
        count: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        child: Dict[tuple, float] = defaultdict(float)
        child_count: Dict[tuple, int] = defaultdict(int)
        names = self.names
        for i in range(len(self.name)):
            n = names[self.name[i]]
            d = self.end[i] - self.start[i]
            count[n] += 1
            total[n] += d
            par = self.parent[i]
            if par >= 0:
                key = (names[self.name[par]], n)
                child[key] += d
                child_count[key] += 1
        return count, total, child, child_count

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, parent index, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i in range(len(self.name)):
                fh.write(json.dumps([self.names[self.name[i]], self.parent[i], self.start[i], self.end[i]]) + "\n")


def layer_metrics(tracer: Tracer, rounds: int, output_bytes: int) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, each per round of jobs."""
    count, total, child, child_count = tracer.totals()
    run_children = sum(v for (par, _), v in child.items() if par == "cli.run")
    c = tracer.counters
    values = {
        "cli.build_parser_s": total["cli.build_parser"],
        # run minus its analysis calls; building the parser is CLI work
        "cli.overhead_s": total["cli.run"] - run_children + child[("cli.run", "cli.build_parser")],
        "cli.output_bytes": output_bytes,
        "poly.parse_s": total["poly.parse"],
        "groebner.buchberger_calls": count["groebner.buchberger"],
        "groebner.buchberger_s": total["groebner.buchberger"],
        "groebner.buchberger_self_s": total["groebner.buchberger"] - child[("groebner.buchberger", "groebner.normal_form")],
        "groebner.normal_form_calls": count["groebner.normal_form"],
        "groebner.normal_form_s": total["groebner.normal_form"],
        "groebner.local_dimension_s": total["groebner.local_dimension"],
        "groebner.truncation_orders": child_count[("groebner.local_dimension", "groebner.buchberger")],
        "inertia.membership_s": total["inertia.membership"],
        "weyl.compose_s": total["weyl.compose"],
        "fields.kernel_basis_s": total["fields.kernel_basis"],
        "fields.kernel_basis_calls": count["fields.kernel_basis"],
        "curves.kernel_s": total["curves.kernel"],
        "curves.multiplicity_s": total["curves.multiplicity"],
        "curves.points": c["curves.points"],
        "dynsys.orbit_s": total["dynsys.orbit"],
        "dynsys.graph_kernel_s": total["dynsys.graph_kernel"],
        "dynsys.orbit_self_s": total["dynsys.orbit"] - child[("dynsys.orbit", "dynsys.graph_kernel")],
        "dynsys.states": c["dynsys.states"],
        "dynsys.parity_s": total["dynsys.parity"],
    }
    per_round = {k: (v // rounds if isinstance(v, int) else v / rounds) for k, v in values.items()}
    # the largest basis is a maximum, not a sum over rounds
    per_round["groebner.basis_max"] = c["groebner.basis_max"]
    return per_round
