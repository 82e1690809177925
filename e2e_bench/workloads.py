"""The benchmark's workloads: seeded inputs, timed calls, answer checks.

Every workload drives ``repro`` through its public API from one client
in one process, closed-loop: the next operation starts only after the
previous answer came back.  A workload runs in *rounds*; a round is the
same list of operations for a given seed and round index, so every run
attempts whole rounds and the share of failed operations cannot depend
on how long a run lasts.

The life cycle, driven by ``run.py``:

``setup()``
    timed: graph build, pool start, warm-up operations.  Returns the
    set-up seconds.  Untimed benchmark work in between (the oracle,
    picking warm-up pairs) is excluded from the sum.
``round(i)``
    the timed operations of round ``i``; returns :class:`Op` records
    and the wall seconds the client spent waiting on the program.
``finish()``
    teardown; returns extra pass/fail checks (service hygiene).
``layer_metrics(ops)``
    traced runs only: the per-layer metrics.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import resource
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import repro
from repro.core import solve_batch
from repro.core.stepping import default_strategy
from repro.graphs import road_graph, social_graph
from repro.serve import QueryService

from oracle import Oracle, distances_match
import tracing

#: the generator seed of every workload's graph.  The graph is the
#: dataset the program serves and stays fixed; ``--seed`` draws the
#: queries and nothing else, so runs with different seeds differ only in
#: the query stream.
GRAPH_SEED = 1

#: every run holds at least this many timed operations, so that at
#: least ten latency samples lie beyond the 90th percentile.
MIN_OPS = 100

#: the layer metrics every traced run reports, with their units.
LAYER_METRICS = {
    "graphs.build_s": "s",
    "graphs.shm_export_s": "s",
    "kernels.calibrate_s": "s",
    "core.steps_per_query": "count",
    "core.relaxations_per_query": "count",
    "core.step_cost_us": "us",
    "core.relax_cost_ns": "ns",
    "core.self_ms_per_op": "ms",
    "core.engine_runs_per_batch": "count",
    "core.searches_per_batch": "count",
    "kernels.gather_ms_per_op": "ms",
    "kernels.scatter_ms_per_op": "ms",
    "kernels.scatter_elements_per_op": "count",
    "heuristics.ms_per_query": "ms",
    "parallel.run_shards_ms_per_batch": "ms",
    "parallel.overhead_ms_per_batch": "ms",
    "parallel.respawns": "count",
    "serve.queue_wait_ms_p50": "ms",
    "serve.pipeline_ms_per_batch": "ms",
    "verify.check_ms_per_batch": "ms",
    "serve.unattributed_ms_per_request": "ms",
}


@dataclass
class Op:
    """One timed operation and the verdict of its checks."""

    wall: float
    pairs: int
    #: the program answered and every check held.
    ok: bool = True
    #: an answer disagreed with the oracle or broke a required property.
    wrong: bool = False
    #: traced runs: span seconds and counters inside the operation.
    layers: dict = field(default_factory=dict)
    #: engine steps / relaxations, where the caller can see them.
    steps: int = 0
    relaxations: int = 0
    #: the solver that answered (the step/relaxation cost is fitted per solver).
    kind: str = ""


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _by_distance(row: np.ndarray, source: int) -> np.ndarray:
    """Vertices reachable from ``source`` (itself excluded), nearest first."""
    reach = np.flatnonzero(np.isfinite(row))
    reach = reach[reach != source]
    return reach[np.lexsort((reach, row[reach]))]


def _report(message: str) -> None:
    """Name one failed operation on standard error; the run goes on."""
    print(message, file=sys.stderr)


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _engine_layers(ops: list[Op]) -> dict[str, float]:
    """core / kernels / heuristics metrics over operations that ran the engine."""
    walls = [op.wall for op in ops]
    steps = [op.steps for op in ops]
    relax = [op.relaxations for op in ops]
    pairs = sum(op.pairs for op in ops)
    span = lambda op, name: op.layers.get(name, 0.0)  # noqa: E731
    # Solvers differ in what one step costs (A* evaluates heuristics in
    # every step), so the cost is fitted per solver and the coefficients
    # are averaged, weighted by the solver's share of the operations.
    a = b = 0.0
    for kind in sorted({op.kind for op in ops}):
        group = [op for op in ops if op.kind == kind]
        ga, gb = tracing.fit_step_relax_cost(
            [op.wall for op in group], [op.steps for op in group],
            [op.relaxations for op in group],
        )
        a += ga * len(group) / len(ops)
        b += gb * len(group) / len(ops)
    inner = [
        span(op, tracing.GATHER) + span(op, tracing.SCATTER) + span(op, tracing.HEURISTICS)
        for op in ops
    ]
    return {
        "core.steps_per_query": sum(steps) / pairs,
        "core.relaxations_per_query": sum(relax) / pairs,
        "core.step_cost_us": a * 1e6,
        "core.relax_cost_ns": b * 1e9,
        "core.self_ms_per_op": 1e3 * float(np.mean([w - i for w, i in zip(walls, inner)])),
        "kernels.gather_ms_per_op": 1e3 * float(np.mean([span(op, tracing.GATHER) for op in ops])),
        "kernels.scatter_ms_per_op": 1e3 * float(np.mean([span(op, tracing.SCATTER) for op in ops])),
        "kernels.scatter_elements_per_op": float(
            np.mean([span(op, tracing.SCATTER_ELEMENTS) for op in ops])
        ),
        "heuristics.ms_per_query": 1e3 * sum(span(op, tracing.HEURISTICS) for op in ops) / pairs,
    }


class Workload:
    """Shared plumbing: graph, oracle, set-up clock, traced snapshots."""

    name = ""

    def __init__(self, seed: int, tiny: bool, tracer=None) -> None:
        self.seed = int(seed)
        self.tracer = tracer
        self.graph = None
        self.oracle: Oracle | None = None
        self.component: np.ndarray | None = None
        self.build_s = 0.0

    # -- set-up helpers -------------------------------------------------
    def _build(self, make) -> float:
        t0 = perf_counter()
        self.graph = make()
        self.build_s = perf_counter() - t0
        # Untimed: the oracle and the vertices worth querying.
        self.oracle = Oracle.of(self.graph)
        self.component = self.oracle.largest_component()
        return self.build_s

    def _pick(self, rng: np.random.Generator, k: int) -> list[int]:
        """``k`` distinct vertices of the largest component."""
        return [int(v) for v in rng.choice(self.component, size=k, replace=False)]

    def _snap(self):
        return self.tracer.snapshot() if self.tracer is not None else None

    def _since(self, snap) -> dict:
        return self.tracer.since(snap) if self.tracer is not None else {}

    # -- interface ------------------------------------------------------
    def setup(self) -> float:
        raise NotImplementedError

    def round(self, index: int) -> tuple[list[Op], float]:
        raise NotImplementedError

    def finish(self) -> list[tuple[str, bool]]:
        return []

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def noise(self) -> dict:
        return {"delta": {self.graph.name: default_strategy(self.graph).delta}}

    def layer_metrics(self, ops: list[Op]) -> dict[str, float]:
        raise NotImplementedError

    def _common_layers(self) -> dict[str, float]:
        metrics = {name: 0.0 for name in LAYER_METRICS}
        metrics["graphs.build_s"] = self.build_s
        metrics["kernels.calibrate_s"] = self.tracer.first(tracing.CALIBRATE)
        return metrics


# ----------------------------------------------------------------------
class RoadQuery(Workload):
    """Single ``ppsp()`` calls at the decile ranks of each source's distances."""

    name = "road-query"
    METHODS = ("bids", "bidastar")

    def __init__(self, seed, tiny, tracer=None) -> None:
        super().__init__(seed, tiny, tracer)
        self.side = 30 if tiny else 200

    def setup(self) -> float:
        spent = self._build(lambda: road_graph(self.side, self.side, seed=GRAPH_SEED))
        s, t = self._pick(_rng(GRAPH_SEED, 0), 2)
        t0 = perf_counter()
        for method in self.METHODS:
            repro.ppsp(self.graph, s, t, method=method)
        return spent + perf_counter() - t0

    def _targets(self, source: int) -> tuple[list[int], np.ndarray]:
        """Targets at the 10%, 20%, ..., 100% ranks of the source's distances."""
        row = self.oracle.rows([source])[source]
        order = _by_distance(row, source)
        ranks = [math.ceil(p * len(order) / 10) - 1 for p in range(1, 11)]
        return [int(order[r]) for r in ranks], row

    def round(self, index):
        (source,) = self._pick(_rng(self.seed, 1, index), 1)
        targets, row = self._targets(source)
        ops = []
        for target in targets:
            for method in self.METHODS:
                snap = self._snap()
                t0 = perf_counter()
                try:
                    ans = repro.ppsp(self.graph, source, target, method=method)
                except Exception as exc:  # noqa: BLE001 — a failed call is counted, not fatal
                    ops.append(Op(perf_counter() - t0, 1, ok=False))
                    _report(f"{method} {(source, target)} raised {exc!r}")
                    continue
                op = Op(perf_counter() - t0, 1, layers=self._since(snap), kind=method,
                        steps=ans.run.steps, relaxations=ans.run.relaxations)
                op.wrong = not self._answer_ok(ans, source, target, row)
                op.ok = ans.exact and not op.wrong
                if not op.ok:
                    _report(f"{method} {(source, target)}: exact {ans.exact}, "
                            f"distance {ans.distance!r}, oracle {row[target]!r}")
                ops.append(op)
        return ops, sum(op.wall for op in ops)

    def _answer_ok(self, ans, source, target, row) -> bool:
        """The distance matches the oracle and ``path()`` is a real edge path
        from source to target whose weights sum to that distance."""
        if not distances_match(ans.distance, row[target]):
            return False
        try:
            path = ans.path()
            length = self.oracle.path_length(path)
        except Exception:  # noqa: BLE001 — any path failure is a wrong answer
            return False
        return path[0] == source and path[-1] == target and distances_match(length, ans.distance)

    def layer_metrics(self, ops):
        metrics = self._common_layers()
        metrics.update(_engine_layers(ops))
        return metrics


# ----------------------------------------------------------------------
class _Ranked:
    """Oracle rows of one round, and partners drawn by distance rank."""

    def __init__(self, oracle: Oracle, rng: np.random.Generator) -> None:
        self.oracle = oracle
        self.rng = rng
        self.rows: dict[int, np.ndarray] = {}

    def row(self, v: int) -> np.ndarray:
        if v not in self.rows:
            self.rows.update(self.oracle.rows([v]))
        return self.rows[v]

    def partner(self, u: int, i: int, k: int, taken: set) -> int:
        """A vertex not in ``taken`` from the ``i``-th of ``k`` equal slices of
        the vertices reachable from ``u``, ordered by distance."""
        order = _by_distance(self.row(u), u)
        lo, hi = i * len(order) // k, (i + 1) * len(order) // k
        while True:
            v = int(order[self.rng.integers(lo, hi)])
            if v not in taken:
                taken.add(v)
                return v


def batch_shapes(ranked: _Ranked, anchor, index: int) -> list[tuple[str, list, tuple[str, ...]]]:
    """Round ``index`` of query-graph shapes (the paper's Fig. 7) and their solvers.

    On a power-law graph the cost of a search swings tenfold with how
    remote its endpoints are and how far apart they lie.  So the draws
    are stratified, and the seed picks the vertices within the strata:

    - the 8 disjoint pairs take their sources from the 8 eighths of the
      vertices ordered by distance from the highest-degree vertex;
    - the star centre, the chain's first vertex and the clique's first
      vertex take the central, middle and remote third of that order, in
      an assignment that rotates with the round, so every three rounds
      cover each combination once;
    - every other vertex is a partner drawn from its own slice of the
      distance ranking from the vertex before it, as the paper's
      distance-percentile queries are.
    """
    sources = [anchor(ranked.rng, i, 8) for i in range(8)]
    disjoint = [(s, ranked.partner(s, i, 8, set(sources))) for i, s in enumerate(sources)]
    center, chain_start, clique_start = (anchor(ranked.rng, (index + k) % 3, 3) for k in range(3))
    chain_v, clique_v = [chain_start], [clique_start]
    taken = {center}
    star = [(center, ranked.partner(center, i, 8, taken)) for i in range(8)]
    for i in range(5):
        chain_v.append(ranked.partner(chain_v[-1], i, 5, set(chain_v)))
    chain = [(chain_v[i], chain_v[i + 1]) for i in range(5)]
    taken = set(clique_v)
    clique_v += [ranked.partner(clique_v[0], i, 3, taken) for i in range(3)]
    clique = [(clique_v[i], clique_v[j]) for i in range(4) for j in range(i + 1, 4)]
    return [
        ("disjoint", disjoint, ("multi",)),
        ("star", star, ("multi", "sssp-vc")),
        ("chain", chain, ("multi",)),
        ("clique", clique, ("multi", "sssp-vc")),
    ]


class SocialBatch(Workload):
    """Serial ``solve_batch()`` over Fig. 7 query-graph shapes on a power-law graph."""

    name = "social-batch"

    def __init__(self, seed, tiny, tracer=None) -> None:
        super().__init__(seed, tiny, tracer)
        self.num_vertices = 2_000 if tiny else 20_000
        self._by_centrality: np.ndarray | None = None

    def _anchor(self, rng: np.random.Generator, i: int, k: int) -> int:
        """A random vertex from the ``i``-th of ``k`` equal slices of the largest
        component ordered by distance from its highest-degree vertex (slice 0
        is the most central)."""
        if self._by_centrality is None:
            degree = np.diff(self.graph.indptr)
            hub = int(self.component[np.argmax(degree[self.component])])
            self._by_centrality = _by_distance(self.oracle.rows([hub])[hub], hub)
        n = len(self._by_centrality)
        return int(self._by_centrality[rng.integers(i * n // k, (i + 1) * n // k)])

    def setup(self) -> float:
        spent = self._build(lambda: social_graph(self.num_vertices, seed=GRAPH_SEED))
        v = self._pick(_rng(GRAPH_SEED, 0), 3)
        warm = [(v[0], v[1]), (v[0], v[2])]
        t0 = perf_counter()
        for method in ("multi", "sssp-vc"):
            solve_batch(self.graph, warm, method=method)
        return spent + perf_counter() - t0

    def round(self, index):
        ranked = _Ranked(self.oracle, _rng(self.seed, 1, index))
        shapes = batch_shapes(ranked, self._anchor, index)
        rows = {s: ranked.row(s) for _, pairs, _ in shapes for s, _ in pairs}
        ops = []
        for shape, pairs, methods in shapes:
            for method in methods:
                snap = self._snap()
                t0 = perf_counter()
                try:
                    res = solve_batch(self.graph, pairs, method=method)
                except Exception as exc:  # noqa: BLE001 — a failed call is counted, not fatal
                    ops.append(Op(perf_counter() - t0, len(pairs), ok=False))
                    _report(f"{method} {shape} batch raised {exc!r}")
                    continue
                op = Op(perf_counter() - t0, len(pairs), layers=self._since(snap), kind=method)
                op.steps = int(op.layers.get(tracing.STEPS, 0))
                op.relaxations = int(op.layers.get(tracing.RELAXATIONS, 0))
                op.layers["searches"] = res.num_searches
                try:
                    op.wrong = not all(
                        distances_match(res.distance(s, t), rows[s][t]) for s, t in pairs
                    )
                except ValueError:  # a queried pair missing from the result
                    op.wrong = True
                op.ok = res.exact and not op.wrong
                if not op.ok:
                    _report(f"{method} {shape} batch: exact {res.exact}, wrong {op.wrong}")
                ops.append(op)
        return ops, sum(op.wall for op in ops)

    def layer_metrics(self, ops):
        metrics = self._common_layers()
        metrics.update(_engine_layers(ops))
        metrics["core.engine_runs_per_batch"] = float(
            np.mean([op.layers.get(tracing.ENGINE_RUNS, 0) for op in ops])
        )
        metrics["core.searches_per_batch"] = float(np.mean([op.layers["searches"] for op in ops]))
        return metrics


# ----------------------------------------------------------------------
def _peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``) in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker this process started, and wait for it.

    CPython starts it on the first shared-memory segment and leaves it to
    exit after its parent.  It then prints a spurious "1 leaked
    shared_memory objects" warning for the graph segment, which the pool
    has already unlinked.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker  # noqa: SLF001 — no public stop
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()  # noqa: SLF001


class RoadService(Workload):
    """Bursts of ``max_batch`` distinct requests to a started ``QueryService``."""

    name = "road-service"
    MAX_BATCH = 8
    WARM_BURSTS = 2
    #: One pool worker.  With two on a 2-CPU host a single busy process
    #: beside the benchmark raised p50 by 23 %; with one it did not move,
    #: since the worker and the service's own threads each keep a CPU.
    WORKERS = 1

    def __init__(self, seed, tiny, tracer=None) -> None:
        super().__init__(seed, tiny, tracer)
        self.side = 30 if tiny else 200
        self.service: QueryService | None = None
        self.segment = None
        self.worker_pids: set[int] = set()
        self.first_timed_batch = 0
        #: traced runs: (batch index, key) -> (request op, distance, queue wait)
        self.answers: dict = {}
        self.replays: list[Op] = []
        self._loop_snap = None
        self.check_s = 0.0
        self.respawns = 0

    def setup(self) -> float:
        spent = self._build(lambda: road_graph(self.side, self.side, seed=GRAPH_SEED))
        rng = _rng(GRAPH_SEED, 0)
        warm = [self._burst(rng)[0] for _ in range(self.WARM_BURSTS)]
        t0 = perf_counter()
        self.service = QueryService(
            self.graph,
            backend="process",
            workers=self.WORKERS,
            verify=True,
            max_batch=self.MAX_BATCH,
            # Flushes are size-triggered: a burst fills one batch at once.
            max_wait_ms=600_000.0,
        ).start()
        for pairs in warm:
            for future in [self.service.submit(s, t) for s, t in pairs]:
                future.result(timeout=120)
        spent += perf_counter() - t0
        self.first_timed_batch = len(self.service.batches)
        self.segment = self.service.pool.share(self.graph)["shm_name"]
        self.worker_pids = {p.pid for p in multiprocessing.active_children()}
        return spent

    def _burst(self, rng) -> tuple[list[tuple[int, int]], dict]:
        """``MAX_BATCH`` pairs from distinct random sources, and the oracle rows.

        Pair ``i`` takes its target from the ``i``-th of ``MAX_BATCH`` slices
        of its source's distance ranking, so every burst spans near and far
        pairs alike.
        """
        ranked = _Ranked(self.oracle, rng)
        sources = self._pick(rng, self.MAX_BATCH)
        ranked.rows.update(self.oracle.rows(sources))
        pairs = [(s, ranked.partner(s, i, self.MAX_BATCH, set())) for i, s in enumerate(sources)]
        return pairs, ranked.rows

    def round(self, index):
        if index == 0:
            self._loop_snap = self._snap()
        pairs, rows = self._burst(_rng(self.seed, 1, index))
        submitted = []
        start = perf_counter()
        for s, t in pairs:
            submitted.append((perf_counter(), self.service.submit(s, t)))
        ops = []
        for (s, t), (t0, future) in zip(pairs, submitted):
            try:
                res = future.result(timeout=120)
            except Exception as exc:  # noqa: BLE001 — a failed request is counted, not fatal
                ops.append(Op(perf_counter() - t0, 1, ok=False))
                _report(f"request {(s, t)} raised {exc!r}")
                continue
            op = Op(perf_counter() - t0, 1)
            op.wrong = not distances_match(res.distance, rows[s][t])
            op.ok = res.outcome == "ok" and res.exact and not op.wrong
            if not op.ok:
                _report(f"request {(s, t)}: outcome {res.outcome}, exact {res.exact}, "
                        f"distance {res.distance!r}, oracle {rows[s][t]!r}")
            ops.append(op)
            if self.tracer is not None:
                self.answers[(res.batch_index, (s, t))] = (op, res.distance, res.waited_s)
        return ops, perf_counter() - start

    def finish(self):
        if self.service is None:
            return []
        pool = self.service.pool
        self.worker_pids |= {p.pid for p in multiprocessing.active_children()}
        if self._loop_snap is not None:
            self.check_s = self._since(self._loop_snap).get(tracing.CHECK, 0.0)
        try:
            self.service.close()
        finally:
            stop_resource_tracker()
        self.respawns = pool.respawns + pool.quarantines
        multiprocessing.active_children()  # reap
        leftover_workers = [pid for pid in self.worker_pids if _alive(pid)]
        checks = [
            ("no worker process survives close()", not leftover_workers),
            ("the graph's /dev/shm segment is gone after close()",
             not os.path.exists(f"/dev/shm/{self.segment}")),
        ]
        if self.tracer is not None:
            self._replay()
        return checks

    def _replay(self) -> None:
        """Replay every timed batch composition serially, in this process.

        The pool promises distances bit-identical to ``backend="serial"``;
        a request whose answer differs from the replay is a wrong answer.
        The replays also give the engine-layer metrics, which the worker
        processes do not report.
        """
        for record in list(self.service.batches)[self.first_timed_batch:]:
            snap = self._snap()
            t0 = perf_counter()
            res = solve_batch(self.graph, list(record.keys), method="multi", certify=True)
            op = Op(perf_counter() - t0, record.size, layers=self._since(snap), kind="multi")
            op.steps = int(op.layers.get(tracing.STEPS, 0))
            op.relaxations = int(op.layers.get(tracing.RELAXATIONS, 0))
            op.layers["searches"] = res.num_searches
            self.replays.append(op)
            for key in record.keys:
                if (record.index, key) not in self.answers:
                    continue  # the request failed; it is already counted
                request, answered, _ = self.answers[(record.index, key)]
                if float(res.distance(*key)).hex() != float(answered).hex():
                    request.ok, request.wrong = False, True

    def peak_rss_mb(self) -> float:
        return _self_rss_mb() + sum(_peak_rss_mb(pid) for pid in self.worker_pids)

    def layer_metrics(self, ops):
        metrics = self._common_layers()
        replays = self.replays
        metrics.update(_engine_layers(replays))
        metrics["core.engine_runs_per_batch"] = float(
            np.mean([op.layers.get(tracing.ENGINE_RUNS, 0) for op in replays])
        )
        metrics["core.searches_per_batch"] = float(np.mean([op.layers["searches"] for op in replays]))
        tr = self.tracer
        first = self.first_timed_batch
        shards = tr.durations[tracing.RUN_SHARDS][first:]
        pipeline = tr.durations[tracing.PIPELINE]
        metrics["graphs.shm_export_s"] = tr.first(tracing.SHM_EXPORT)
        metrics["parallel.run_shards_ms_per_batch"] = 1e3 * float(np.mean(shards))
        metrics["parallel.overhead_ms_per_batch"] = 1e3 * float(
            np.mean([s - r.wall for s, r in zip(shards, replays)])
        )
        metrics["parallel.respawns"] = float(self.respawns)
        metrics["serve.queue_wait_ms_p50"] = 1e3 * float(
            np.median([wait for _, _, wait in self.answers.values()])
        )
        metrics["serve.pipeline_ms_per_batch"] = 1e3 * float(np.mean(pipeline[first:]))
        metrics["verify.check_ms_per_batch"] = 1e3 * self.check_s / len(replays)
        metrics["serve.unattributed_ms_per_request"] = 1e3 * float(np.mean([
            op.wall - wait - pipeline[index]
            for (index, _), (op, _, wait) in self.answers.items()
        ]))
        return metrics


WORKLOADS = {cls.name: cls for cls in (RoadQuery, SocialBatch, RoadService)}
