"""Spans and counters recorded around schwarzlab's public functions.

The benchmark traces the package from outside.  `Tracer.install` rebinds
each public function (and every name another schwarzlab module re-imported,
such as `bounds.solved_field` or `metrics.segments_gauss`) and a few methods
to timing wrappers; `Tracer.uninstall` puts the originals back.  Spans are
kept in memory, with the type of any exception that left the call.  A span's self time is its duration minus the durations of
its direct children; calls are strictly nested in one thread, so the self
times of all spans under an op sum to the op's own duration.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    name: str
    parent: int              # index of the enclosing span, -1 at top level
    op: int                  # op index; -1 during setup
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)  # work done: points, sweeps, ...
    hit: Optional[bool] = None   # lru_cache hit, for cached functions
    error: Optional[str] = None  # type name of the exception the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


def _size(x) -> int:
    return int(np.size(x))


def _gauss_points(args, kwargs, result):
    _, lo, hi, nodes, _ = args
    return {"points": np.broadcast(np.asarray(lo), np.asarray(hi)).size * len(nodes)}


def _point_samples(args, kwargs, result):
    boundary, z = args
    return {"point_samples": _size(z) * boundary.sample_count}


def _points(args, kwargs, result):
    return {"points": _size(args[1])}


def _fd_work(args, kwargs, result):
    return {"sweeps": result.sweeps, "nodes": int(result.inside.sum())}


def _report_points(args, kwargs, result):
    reports = result if isinstance(result, tuple) else (result,)
    return {"points": sum(len(rep.z) for rep in reports)}


# (module, attribute, span name, work counter, is lru-cached)
FUNCTIONS = [
    ("quadrature", "integrate_to_endpoint", "quadrature.endpoint", None, False),
    ("quadrature", "adaptive_simpson", "quadrature.simpson", None, False),
    ("quadrature", "segments_gauss", "quadrature.gauss", _gauss_points, False),
    ("metrics", "mass", "metrics.mass", None, False),
    ("metrics", "transform_H", "metrics.transform_H", None, False),
    ("metrics", "inverse_H", "metrics.inverse_H", None, False),
    ("metrics", "transform_table", "metrics.transform_table", None, True),
    ("metrics", "curvature_at", "metrics.curvature", None, False),
    ("metrics", "log_concavity_report", "metrics.log_concavity", None, False),
    ("metrics", "mollify", "metrics.mollify", None, False),
    ("harmonic", "poisson_values", "harmonic.poisson_values", _point_samples, False),
    ("harmonic", "poisson_gradient", "harmonic.poisson_gradient", _point_samples, False),
    ("harmonic", "solved_field", "harmonic.solved_field", None, True),
    ("harmonic", "fd_solve_oracle", "harmonic.fd", _fd_work, False),
    ("harmonic", "oracle_sup_difference", "harmonic.oracle", None, False),
    ("bounds", "check_gradient_bound", "bounds.gradient", _report_points, False),
    ("bounds", "check_unimodal_bounds", "bounds.unimodal", _report_points, False),
    ("bounds", "check_distance_contraction", "bounds.distance", _report_points, False),
    ("lemmas", "check_unimodal", "lemmas.check_unimodal", None, False),
    ("lemmas", "unimodal_slack", "lemmas.unimodal_slack", None, False),
    ("cli", "main", "cli.main", None, False),
    ("cli", "dispatch", "cli.dispatch", None, False),
]

# (module, class, method, span name, work counter)
METHODS = [
    ("metrics", "HTransform", "__init__", "metrics.table.build", None),
    ("metrics", "HTransform", "h", "metrics.h", _points),
    ("metrics", "HTransform", "h_inv", "metrics.h_inv", _points),
    ("harmonic", "HarmonicField", "value_many", "harmonic.field.value", None),
    ("harmonic", "HarmonicField", "gradient_many", "harmonic.field.gradient", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        span = Span(name, parent, self.op, time.perf_counter())
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def _wrap(self, name: str, fn: Callable, counter, cache) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            hits = cache.cache_info().hits if cache is not None else 0
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.end(span)
            if cache is not None:
                span.hit = cache.cache_info().hits > hits
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def install(self) -> None:
        """Rebind the traced functions everywhere schwarzlab refers to them."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import schwarzlab.cli  # noqa: F401  (with the package, every submodule)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "schwarzlab" or key.startswith("schwarzlab.")]
        for mod_name, attr, name, counter, cached in FUNCTIONS:
            original = getattr(sys.modules[f"schwarzlab.{mod_name}"], attr)
            wrapper = self._wrap(name, original, counter,
                                 original if cached else None)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, method, name, counter in METHODS:
            cls = getattr(sys.modules[f"schwarzlab.{mod_name}"], cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original, counter, None))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- summaries --------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]
