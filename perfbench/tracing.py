"""Spans and counters recorded around calls into the library's public functions.

Each function is patched on the module that defines it.  The workloads call
through module attributes and the library calls its own functions through
its module globals, so one patch catches both kinds of caller.  Spans keep
name, start, end, parent and ru_maxrss at the end; they stay in memory until
the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from collections import Counter
from resource import RUSAGE_SELF, getrusage
from time import perf_counter

from workloads import C, F, H, L

# the CoefficientDomain methods counted as arithmetic, and the metric suffix
# of each domain kind
ARITHMETIC = ("add", "neg", "sub", "mul", "inv")
KIND_SUFFIX = {C.INTEGERS: "int", C.RATIONALS: "rat", C.PRIME_FIELD: "fp",
               C.INT_POLY_A: "za"}


class Span:
    __slots__ = ("name", "parent", "start", "end", "maxrss_kb", "attrs")

    def __init__(self, name: str, parent: int | None, attrs: dict):
        self.name, self.parent, self.attrs = name, parent, attrs
        self.start = self.end = 0.0
        self.maxrss_kb = 0


class Tracer:
    """Records one span per call of each patched function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.clock = perf_counter
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr, name, enter=None, leave=None):
        """Wrap owner.attr; name may depend on the call's arguments.

        enter(*args, **kwargs) gives the span's attributes before the call,
        leave(result, *args, **kwargs) replaces them after it; neither is timed
        in the span itself.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = Span(name(*args, **kwargs) if callable(name) else name,
                        self._open[-1] if self._open else None,
                        enter(*args, **kwargs) if enter else {})
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = self.clock()
                span.maxrss_kb = getrusage(RUSAGE_SELF).ru_maxrss
                self._open.pop()
            if leave:
                span.attrs = leave(result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def _block_key(self, A):
        """(complex, max degree, degree) of a boundary matrix being reduced."""
        for i in reversed(self._open):
            key = self.spans[i].attrs.get("matrices", {}).get(id(A))
            if key:
                return key
        return ("unlabelled", A.rows, A.cols)

    def install(self, clock=perf_counter) -> None:
        """Patch the library; spans read time from clock."""
        self.clock = clock

        def spec_key(spec):
            return tuple(getattr(spec, f.name) for f in dataclasses.fields(spec)
                         if f.name != "ring")

        def built(cx, spec):
            return {"spec": spec_key(spec),
                    "basis": sum(len(b) for b in cx.basis.values()),
                    "nnz": sum(m.nnz() for m in cx.matrices.values())}

        def reduced(result, A, *args, **kwargs):
            return {"key": self._block_key(A), "nnz": A.nnz(),
                    "cells": A.rows * A.cols}

        def homology_name(c, degrees, representatives=False):
            return "homology.cert" if representatives else "homology.homology"

        def labelled(c, *args, **kwargs):
            return {"matrices": {id(m): (c.description, c.max_degree, p)
                                 for p, m in c.matrices.items()}}

        def snf_name(A, transforms=False):
            return "homology.transform_snf" if transforms else "homology.snf"

        self._patch(L, "build_complex", "loops.build", leave=built)
        self._patch(H, "weight_decompose", "homology.split",
                    leave=lambda blocks, c: {"count": len(blocks)})
        self._patch(H, "homology", homology_name, enter=labelled,
                    leave=lambda *_, **__: {})
        self._patch(H, "smith_normal_form", snf_name, leave=reduced)
        self._patch(H, "rank_over_field", "homology.rank", leave=reduced)
        self._patch(H, "validate_d_squared", "homology.dsq")
        for attr in ("is_cycle", "is_boundary", "solve_integer",
                     "integer_kernel_basis"):
            self._patch(H, attr, "homology.cert")
        self._patch(F, "truncated_complex", "freedga.truncate",
                    leave=lambda cx, *_, **__: {
                        "basis": sum(len(b) for b in cx.basis.values())})
        self._patch(F, "minimal_model", "freedga.model")
        for attr in ("phi", "psi"):
            self._patch(F, attr, "freedga.morphism")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def to_json(self) -> list:
        """Spans as [name, start, end, parent, ru_maxrss KiB], in seconds
        from the start of the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        return [[s.name, s.start - origin, s.end - origin, s.parent, s.maxrss_kb]
                for s in self.spans]


@contextlib.contextmanager
def counting_coeff_ops(counts: Counter):
    """Count calls to the arithmetic methods of CoefficientDomain by kind."""
    cls = C.CoefficientDomain
    originals = {m: getattr(cls, m) for m in ARITHMETIC}

    def counted(orig):
        @functools.wraps(orig)
        def method(self, *args):
            counts[self.kind] += 1
            return orig(self, *args)
        return method

    for m, orig in originals.items():
        setattr(cls, m, counted(orig))
    try:
        yield
    finally:
        for m, orig in originals.items():
            setattr(cls, m, orig)


def _repeat_frac(keys: list) -> float:
    """Share of the calls whose key an earlier call of the pass already had."""
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass of wall seconds."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def of(name):
        return [spans[i] for i in by_name.get(name, [])]

    def self_s(name):
        return sum(own[i] for i in by_name.get(name, []))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in of(name))

    builds = of("loops.build")
    reductions = of("homology.snf") + of("homology.rank")
    return {
        "loops.build_s": self_s("loops.build"),
        "loops.build_calls": len(builds),
        "loops.basis_elems": attr_sum("loops.build", "basis"),
        "loops.nnz": attr_sum("loops.build", "nnz"),
        "loops.rebuild_frac": _repeat_frac([s.attrs.get("spec") for s in builds]),
        "homology.split_s": self_s("homology.split"),
        "homology.blocks": attr_sum("homology.split", "count"),
        "homology.snf_s": self_s("homology.snf"),
        "homology.snf_calls": len(of("homology.snf")),
        "homology.rank_s": self_s("homology.rank"),
        "homology.rank_calls": len(of("homology.rank")),
        "homology.rank_repeat_frac": _repeat_frac(
            [s.attrs.get("key") for s in reductions]),
        "homology.max_block_nnz": max(
            (s.attrs.get("nnz", 0) for s in reductions), default=0),
        "homology.dsq_s": self_s("homology.dsq"),
        "homology.cert_s": self_s("homology.cert"),
        "homology.transform_snf_s": self_s("homology.transform_snf"),
        "homology.transform_max_cells": max(
            (s.attrs.get("cells", 0) for s in of("homology.transform_snf")),
            default=0),
        "freedga.truncate_s": self_s("freedga.truncate"),
        "freedga.model_basis": attr_sum("freedga.truncate", "basis"),
        "freedga.morphism_s": self_s("freedga.morphism"),
        "trace.coverage_frac": sum(s.end - s.start for s in spans
                                   if s.parent is None) / wall,
    }
