"""Outside-in tracing of the poischain layers.

The tracer wraps a fixed list of public functions from outside the package.
Each wrapper is installed in every ``poischain`` module namespace that holds
the original object, so calls made through ``from .x import f`` bindings are
seen as well.  Span wrappers append ``(function, parent span, start, end,
outermost)`` to an in-memory list; self time (span minus direct child spans)
and inclusive time are computed once, after the pass.  Hot per-row helpers
get counting wrappers only: timing them would cost more than they do.

Counters that need a function's arguments or result are taken after the span
closes; their cost lands in the caller's self time and is reported as
``counter_s``.
"""

from __future__ import annotations

import importlib
import sys
import time
from math import comb

LAYERS = (
    "algebra", "poly", "linalg", "commutant", "casimir_mf",
    "chains", "cycles", "sampling", "flow", "cli",
)


def _invariant_basis_counts(counts, args, kwargs, result):
    alg, k = args[0], args[2]
    counts["monomials"] += comb(alg.dim + k - 1, k) if k > 0 else 1
    counts["kernel_dim"] += len(result)


def _nullspace_counts(counts, args, kwargs, result):
    rows = args[0]
    counts["rows"] += len(rows) if hasattr(rows, "__len__") else 0


def _rref_counts(counts, args, kwargs, result):
    # nullspace returns canonical_rref's output, so scanning here covers both
    best = counts["bits_max"]
    for vec in result:
        for v in vec.values():
            bits = max(v.numerator.bit_length(), v.denominator.bit_length())
            if bits > best:
                best = bits
    counts["bits_max"] = best


def _mul_counts(counts, args, kwargs, result):
    terms = getattr(result, "terms", None)
    if terms is not None:
        counts["terms_out"] += len(terms)


def _center_counts(counts, args, kwargs, result):
    counts["pairs"] += result.pair_count


def _relation_counts(counts, args, kwargs, result):
    counts["relations"] += len(result.relations)


def _flow_counts(counts, args, kwargs, result):
    counts["steps"] += result.steps


# (trace name, module, attribute path, kind, counter hook)
TARGETS = (
    ("algebra.builtin_sl", "algebra", "builtin_sl", "span", None),
    ("algebra.validate_algebra", "algebra", "validate_algebra", "span", None),
    ("algebra.orbit_dimension", "algebra", "orbit_dimension", "span", None),
    ("poly.mul", "poly", "Polynomial.__mul__", "span", _mul_counts),
    ("poly.bracket", "poly", "lie_poisson_bracket", "span", None),
    ("poly.render", "poly", "render_polynomial", "span", None),
    ("poly.dump_json", "poly", "dump_json", "span", None),
    ("linalg.nullspace", "linalg", "nullspace", "span", _nullspace_counts),
    ("linalg.canonical_rref", "linalg", "canonical_rref", "span", _rref_counts),
    ("linalg.row_from_rationals", "linalg", "row_from_rationals", "count", None),
    ("linalg.echelon_insert", "linalg", "Echelon.insert", "count", None),
    ("commutant.monomial_basis", "commutant", "monomial_basis", "span", None),
    ("commutant.invariant_basis", "commutant", "invariant_basis", "span",
     _invariant_basis_counts),
    ("commutant.indecomposables", "commutant", "indecomposables", "span", None),
    ("commutant.relation_basis", "commutant", "relation_basis", "span",
     _relation_counts),
    ("commutant.membership", "commutant", "membership", "span", None),
    ("casimir_mf.mf_commutativity_check", "casimir_mf", "mf_commutativity_check",
     "span", None),
    ("casimir_mf.trace_casimirs_sln", "casimir_mf", "trace_casimirs_sln", "span",
     None),
    ("chains.base_center_check", "chains", "base_center_check", "span",
     _center_counts),
    ("chains.trdeg", "chains", "trdeg", "span", None),
    ("cycles.balance_check", "cycles", "balance_check", "span", None),
    ("cycles.oracle_cross_check", "cycles", "oracle_cross_check", "span", None),
    ("sampling.jacobian_rank", "sampling", "generic_jacobian_rank", "span", None),
    ("flow.integrate", "flow", "integrate", "span", _flow_counts),
    ("cli.main", "cli", "main", "span", None),
)


class _Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Installs the wrappers once per process; ``active`` gates recording."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list = []
        self.names: list[str] = []
        self.counts: dict[str, _Counts] = {}
        self.counter_s = 0.0
        self._stack: list[int] = []
        self._depth: list[int] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for modname in {t[1] for t in TARGETS}:
            importlib.import_module(f"poischain.{modname}")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "poischain"
                                         or name.startswith("poischain."))]
        for fid, (name, modname, path, kind, hook) in enumerate(TARGETS):
            self.names.append(name)
            self._depth.append(0)
            self.counts[name] = _Counts()
            module = sys.modules[f"poischain.{modname}"]
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(fid, name, original, kind, hook))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(fid, name, original, kind, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, fid, name, fn, kind, hook):
        tracer = self
        counts = self.counts[name]
        if kind == "count":
            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.active:
                    counts["calls"] += 1
                    if result is not None:
                        counts["useful"] += 1
                return result
            return counting

        spans = self.spans
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            outer = depth[fid] == 0
            depth[fid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[fid] -= 1
                stack.pop()
                spans[idx] = (fid, parent, start, end, outer)
            if hook is not None:
                hook(counts, args, kwargs, result)
                tracer.counter_s += clock() - end
            return result

        return span

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, self and inclusive seconds, plus counters."""
        n = len(self.names)
        calls = [0] * n
        incl = [0.0] * n
        self_s = [0.0] * n
        child = [0.0] * len(self.spans)
        for fid, parent, start, end, outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (fid, parent, start, end, outer) in enumerate(self.spans):
            dur = end - start
            calls[fid] += 1
            self_s[fid] += dur - child[idx]
            if outer:
                incl[fid] += dur
        out = {}
        for fid, name in enumerate(self.names):
            entry = {"calls": calls[fid], "self_s": self_s[fid], "incl_s": incl[fid]}
            entry.update(self.counts[name])
            out[name] = entry
        return {"functions": out, "span_count": len(self.spans),
                "counter_s": self.counter_s}
