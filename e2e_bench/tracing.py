"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public entry points of ``repro`` modules with
timing shims and removes them again on :meth:`Tracer.uninstall`.  Only
a traced run (``--trace 1``) creates one, so untraced runs execute the
program exactly as shipped.

Each wrapped call adds its wall time to a per-span total.  Workloads
take a :meth:`Tracer.snapshot` before an operation and read
:meth:`Tracer.since` after it, which attributes layer time to single
operations.  Spans nest (``kernels`` and ``heuristics`` inside the
engine, ``parallel.run_shards`` and ``verify.check`` inside
``serve.pipeline``), so a self time subtracts the spans inside it.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

#: span names, by layer.
GATHER = "kernels.gather"
SCATTER = "kernels.scatter"
CALIBRATE = "kernels.calibrate"
HEURISTICS = "heuristics"
SHM_EXPORT = "graphs.shm_export"
RUN_SHARDS = "parallel.run_shards"
PIPELINE = "serve.pipeline"
CHECK = "verify.check"

#: counters fed by the wrappers.
SCATTER_ELEMENTS = "kernels.scatter_elements"
ENGINE_RUNS = "core.engine_runs"
STEPS = "core.steps"
RELAXATIONS = "core.relaxations"


class Tracer:
    """Timing shims around the public entry points of each layer."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: per-call durations, in call order, for spans that keep them.
        self.durations: dict[str, list[float]] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        import repro.core.batch as batch
        import repro.core.engine as engine
        import repro.kernels.calibrate as calibrate
        from repro.heuristics.geometric import Heuristic, MemoizedHeuristic
        from repro.kernels.scatter import Kernel
        from repro.parallel.pool import ProcessPool
        from repro.serve.pipeline import ServePipeline
        from repro.verify.checker import CertificateChecker

        self._patch(engine, "gather_relax", self._span(GATHER))
        self._patch(Kernel, "scatter_min", self._scatter)
        self._patch(calibrate, "scatter_threshold", self._span(CALIBRATE, keep=True))
        self._patch(Heuristic, "__call__", self._span(HEURISTICS))
        self._patch(MemoizedHeuristic, "__call__", self._span(HEURISTICS))
        self._patch(batch, "run_policy", self._engine_run)
        self._patch(ProcessPool, "share", self._span(SHM_EXPORT, keep=True))
        self._patch(ProcessPool, "run_shards", self._span(RUN_SHARDS, keep=True))
        self._patch(ServePipeline, "run", self._span(PIPELINE, keep=True))
        self._patch(CertificateChecker, "check", self._span(CHECK))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    # ------------------------------------------------------------------
    def _span(self, name: str, *, keep: bool = False):
        seconds = self.seconds
        durations = self.durations[name] if keep else None

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    seconds[name] += dt
                    if durations is not None:
                        durations.append(dt)

            return wrapper

        return make

    def _scatter(self, fn):
        seconds, counts = self.seconds, self.counts

        @functools.wraps(fn)
        def wrapper(kernel, dist, targets, values):
            t0 = perf_counter()
            try:
                return fn(kernel, dist, targets, values)
            finally:
                seconds[SCATTER] += perf_counter() - t0
                counts[SCATTER_ELEMENTS] += len(targets)

        return wrapper

    def _engine_run(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[ENGINE_RUNS] += 1
            counts[STEPS] += result.steps
            counts[RELAXATIONS] += result.relaxations
            return result

        return wrapper

    # ------------------------------------------------------------------
    def snapshot(self) -> tuple[dict, dict]:
        return dict(self.seconds), dict(self.counts)

    def since(self, snap: tuple[dict, dict]) -> dict[str, float]:
        """Span seconds and counters accumulated after ``snap``."""
        seconds, counts = snap
        out = {k: v - seconds.get(k, 0.0) for k, v in self.seconds.items()}
        out.update({k: v - counts.get(k, 0) for k, v in self.counts.items()})
        return out

    def first(self, name: str) -> float:
        """Duration of the first call of a kept span (0 if never called)."""
        calls = self.durations.get(name)
        return calls[0] if calls else 0.0


def fit_step_relax_cost(walls, steps, relaxations) -> tuple[float, float]:
    """Non-negative least squares ``wall ≈ a·steps + b·relaxations``.

    Returns ``(a, b)`` in seconds per step and seconds per relaxation.
    Costs cannot be negative, so the fit is constrained to ``a, b >= 0``.
    """
    from scipy.optimize import nnls

    x = np.column_stack([np.asarray(steps, float), np.asarray(relaxations, float)])
    y = np.asarray(walls, float)
    if len(y) < 2:
        return 0.0, 0.0
    # Scale columns so the solver sees comparable magnitudes.
    scale = np.maximum(x.max(axis=0), 1.0)
    coef, _ = nnls(x / scale, y)
    a, b = coef / scale
    return float(a), float(b)
