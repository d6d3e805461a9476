"""Spans at the layer boundaries of the stack, installed from outside it.

:func:`install` wraps the public entry points of each layer (the meter's
probe paths, the measurement backends, the fault planner, the charge-state
solver and sensor model, every pipeline stage, session creation and
scoring) in this process; only a traced run installs them.  A wrapper
records a span only while a :class:`Tracer` is active and inside a job, so
calls made outside jobs (the benchmark's own checks) cost one global lookup
and are not recorded.  End-to-end metrics are never taken from a traced
run.

A span has a name, a layer, a start, an end, a parent and a job id.  Its
self time is its duration minus that of its direct children.  Counts are
taken at the same boundaries: points per backend call, and the solver's
own :class:`~repro.physics.charge_state.SolverStats` before and after each
solve.  Per-layer totals are kept for every span; the spans themselves are
kept in memory and written once, as Chrome trace-event JSON, with the
numerous probe-level spans kept for a tracer's first jobs only.

Campaign jobs trace through :func:`traced_campaign_job`, which the
benchmark's job runner calls; in a process-pool worker it installs the
wrappers and starts the worker's own tracer, whose spans and totals the
runner ships to the parent (:meth:`Tracer.delta`, :meth:`Tracer.merge`).
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

#: Layers with one span per meter request or backend call; only the first
#: ``fine_jobs`` jobs of a tracer keep those spans for the trace file.
FINE_LAYERS = frozenset({"instrument", "backend", "faults", "physics"})

#: Marker attribute set on every installed wrapper.
_MARK = "__perfbench_wrapped__"

#: The tracer recording in this process, if any (one per process: pool
#: workers replace the copy they inherit from a forked parent).
_ACTIVE: "Tracer | None" = None


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, fine_jobs: int = 24) -> None:
        self.pid = os.getpid()
        self.fine_jobs = fine_jobs
        #: ``(name, layer, start, end, span_id, parent_id, job_id)`` tuples.
        self.events: list[tuple] = []
        #: name -> [outer calls, outer inclusive s, self s, outer count].
        self.totals: dict[str, list] = {}
        #: Named counts taken at the boundaries (solver work, cache deltas).
        self.counters: dict[str, float] = {}
        self.n_jobs = 0
        self._stack: list[list] = []
        self._seq = 0
        self._job: int | None = None
        self._keep_fine = False
        self._shipped = 0

    # -- recording ------------------------------------------------------
    def enter(self, name: str, layer: str) -> list:
        self._seq += 1
        frame = [name, layer, time.perf_counter(), 0.0, self._seq]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, count: float = 0) -> None:
        end = time.perf_counter()
        name, layer, start, child_s, span_id = frame
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        # A call nested in a call of the same layer (a meter batch under a
        # full-grid acquisition) adds self time but is not a separate call.
        outer = parent is None or parent[1] != layer
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0, 0]
        total[2] += duration - child_s
        if outer:
            total[0] += 1
            total[1] += duration
            total[3] += count
        if self._keep_fine or layer not in FINE_LAYERS:
            self.events.append(
                (name, layer, start, end, span_id, parent[4] if parent else 0, self._job)
            )

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    @contextmanager
    def span(self, name: str, layer: str):
        frame = self.enter(name, layer)
        try:
            yield
        finally:
            self.exit(frame)

    @contextmanager
    def job(self, job_id: int):
        """Root span of one extraction job; wrapped calls record inside it."""
        self._keep_fine = self.n_jobs < self.fine_jobs
        self.n_jobs += 1
        frame = self.enter("job", "job")
        self._job = job_id
        try:
            yield
        finally:
            self._job = None
            self.exit(frame)

    # -- export ---------------------------------------------------------
    def dump(self) -> dict:
        """Plain-JSON state: spans, totals and counters."""
        return {
            "pid": self.pid,
            "events": self.events,
            "totals": self.totals,
            "counters": self.counters,
            "n_jobs": self.n_jobs,
        }

    def delta(self) -> dict:
        """:meth:`dump` with only the spans recorded since the last delta.

        A pool worker cannot know which job is its last, so it ships a delta
        after every job; the last one carries the final totals.
        """
        delta = dict(self.dump(), events=self.events[self._shipped :])
        self._shipped = len(self.events)
        return delta

    def merge(self, other: dict) -> None:
        """Fold a worker's :meth:`dump` into this tracer (events kept apart)."""
        for name, (calls, incl, self_s, count) in other["totals"].items():
            total = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
            total[0] += calls
            total[1] += incl
            total[2] += self_s
            total[3] += count
        for name, value in other["counters"].items():
            self.add(name, value)
        self.n_jobs += other["n_jobs"]


def activate(tracer: Tracer | None) -> None:
    """Make ``tracer`` the recording tracer of this process (None stops)."""
    global _ACTIVE
    _ACTIVE = tracer


def active() -> Tracer | None:
    """The recording tracer of this process, if any."""
    return _ACTIVE


def _wrap(owner, attr: str, name: str, layer: str, count=None) -> None:
    original = owner.__dict__[attr]
    if getattr(original, _MARK, False):
        return

    @functools.wraps(original)
    def traced(*args, **kwargs):
        tracer = _ACTIVE
        if tracer is None or tracer._job is None:
            return original(*args, **kwargs)
        frame = tracer.enter(name, layer)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.exit(frame, count(args, kwargs) if count is not None else 0)

    setattr(traced, _MARK, True)
    setattr(owner, attr, traced)


def _wrap_solver(solver_cls) -> None:
    """Span ``occupations_at`` and count its points and lattice scores."""
    original = solver_cls.__dict__["occupations_at"]
    if getattr(original, _MARK, False):
        return

    @functools.wraps(original)
    def traced(self, points):
        tracer = _ACTIVE
        if tracer is None or tracer._job is None:
            return original(self, points)
        before = self.stats
        frame = tracer.enter("physics.occupations_at", "physics")
        try:
            return original(self, points)
        finally:
            tracer.exit(frame)
            after = self.stats
            tracer.add("physics.points", after.n_points - before.n_points)
            tracer.add("physics.state_scores", after.n_state_scores - before.n_state_scores)

    setattr(traced, _MARK, True)
    solver_cls.occupations_at = traced


def _one_point(args, kwargs) -> int:
    return 1


def _batch_points(args, kwargs) -> int:
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return int(getattr(rows, "size", len(rows)))


def install() -> None:
    """Wrap every traced boundary in this process (idempotent)."""
    import repro.campaign.worker as campaign_worker
    from repro.analysis.metrics import SuccessCriterion
    from repro.faults.backend import FaultyBackend
    from repro.instrument.measurement import (
        ChargeSensorMeter,
        DatasetBackend,
        DeviceBackend,
    )
    from repro.instrument.session import SessionFactory
    from repro.physics.charge_state import ChargeStateSolver
    from repro.physics.dot_array import DotArrayDevice
    from repro.pipeline import baseline_stages, stages

    for attr in ("get_current", "get_currents", "acquire_full_grid"):
        _wrap(ChargeSensorMeter, attr, f"instrument.{attr}", "instrument")
    for backend in (DatasetBackend, DeviceBackend):
        _wrap(backend, "current", f"backend.{backend.__name__}.current", "backend", _one_point)
        _wrap(backend, "currents", f"backend.{backend.__name__}.currents", "backend", _batch_points)
    _wrap(FaultyBackend, "plan_batch", "faults.plan_batch", "faults")
    _wrap_solver(ChargeStateSolver)
    _wrap(DotArrayDevice, "sensor_currents", "physics.sensor_currents", "physics")
    for stage_cls, stage in (
        (stages.AnchorStage, "anchors"),
        (stages.SweepStage, "sweeps"),
        (stages.FilterStage, "filter"),
        (stages.FitStage, "fit"),
        (stages.ValidateStage, "validate"),
        (baseline_stages.FullScanStage, "full_scan"),
        (baseline_stages.EdgeDetectStage, "edge_detect"),
        (baseline_stages.LineFitStage, "line_fit"),
        (baseline_stages.BaselineValidateStage, "baseline_validate"),
    ):
        _wrap(stage_cls, "run", f"pipeline.{stage}", "pipeline")
    _wrap(SessionFactory, "make", "campaign.session", "campaign")
    _wrap(SuccessCriterion, "evaluate", "campaign.score", "campaign")
    _wrap(campaign_worker, "accuracy_metrics", "campaign.score", "campaign")


def traced_campaign_job(job, *, in_worker: bool, **kwargs):
    """Run one campaign job in a job span and count its kernel-cache use.

    In the parent process (serial campaigns) it records into the active
    tracer.  In a pool worker it installs the wrappers and starts the
    worker's own tracer on first use (a forked worker replaces the copy it
    inherits).
    """
    from repro.campaign.worker import run_campaign_job
    from repro.kernelcache import default_kernel_cache

    if in_worker and (_ACTIVE is None or _ACTIVE.pid != os.getpid()):
        install()
        activate(Tracer(fine_jobs=6))
    tracer = _ACTIVE
    cache = default_kernel_cache()
    before = cache.stats
    with tracer.job(job.job_id):
        record = run_campaign_job(job, **kwargs)
    after = cache.stats
    tracer.add("kernelcache.pixel_hits", after.pixel_hits - before.pixel_hits)
    tracer.add("kernelcache.pixel_solves", after.pixel_solves - before.pixel_solves)
    tracer.add("execution.in_runner_s", record.wall_elapsed_s)
    return record


def chrome_trace(dumps: list[dict], metadata: dict) -> dict:
    """Chrome trace-event JSON (``chrome://tracing``, Perfetto) of the spans."""
    starts = [event[2] for dump in dumps for event in dump["events"]]
    origin = min(starts) if starts else 0.0
    events = []
    for dump in dumps:
        for name, layer, start, end, span_id, parent_id, job_id in dump["events"]:
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": dump["pid"],
                    "tid": dump["pid"],
                    "args": {"id": span_id, "parent": parent_id, "job": job_id},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}
