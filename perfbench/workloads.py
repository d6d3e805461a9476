"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed when constructed
(that is the set-up the benchmark times) and then runs *rounds*: one round
issues every job of the workload once, back to back in a closed loop, and
checks every output.  A run repeats whole rounds over the same inputs, so
counts repeat exactly from round to round and failures are always the same
share of the jobs attempted.

* ``table1`` replays stored diagrams in-process through both registered
  extraction pipelines: the meter, the pipeline stages and image processing.
* ``device-campaign`` runs a serial campaign over simulated devices: the
  charge-state solver and the cross-job kernel cache under the same
  pipelines.
* ``chaos-pool`` runs a campaign on two pool workers under drifting,
  time-dependent lab scenarios and injected probe faults: the fault planner,
  the meter's retry paths and the execution layer, with the kernel cache
  bypassed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from repro import (
    CampaignGrid,
    DeviceSpec,
    ExperimentSession,
    TimingModel,
    TuningCampaign,
    clear_kernel_cache,
    get_pipeline,
)
from repro.analysis.metrics import SuccessCriterion
from repro.campaign.results import CampaignResult
from repro.campaign.worker import run_campaign_job
from repro.datasets import QFLOW_BENCHMARKS, load_suite
from repro.scenarios import get_scenario

from . import calibration, checks, tracing

#: Record failure categories that are typed instrument faults: a method
#: outcome under injected faults, not a failed operation.
INSTRUMENT_FAULTS = frozenset({"instrument-fault", "probe-timeout", "circuit-breaker"})

#: Record categories of jobs that did not run to a result.
BROKEN = frozenset({"crash", "worker_error"})


@dataclass
class JobOutcome:
    """What one extraction job produced, as the metrics and checks see it."""

    key: str
    method: str
    wall_s: float
    n_probes: int
    n_requests: int
    sim_s: float
    alpha_error: float | None
    #: ``ok``, ``truth-miss``, ``instrument-fault``, ``crash`` or ``worker_error``.
    outcome: str
    retries: int = 0
    problems: tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        return bool(self.problems) or self.outcome in BROKEN

    def signature(self) -> tuple:
        """The deterministic part, which must repeat from round to round."""
        return (
            self.key,
            self.n_probes,
            self.n_requests,
            repr(self.sim_s),
            repr(self.alpha_error),
            self.outcome,
            self.retries,
        )


@dataclass
class RoundResult:
    """Jobs and timings of one round."""

    jobs: list[JobOutcome]
    #: Wall time of the round's jobs (checks and calibration excluded).
    wall_s: float
    #: Calibration samples taken between the jobs (see calibration.py).
    calibration: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    n_workers: int = 1
    first_record_s: float = 0.0
    campaign: bool = False


def _truth_for(capacitance, dot_a, dot_b, gate_x, gate_y) -> tuple[float, float]:
    return checks.true_alphas(
        capacitance.dot_dot,
        capacitance.dot_gate,
        dot_a,
        dot_b,
        capacitance.gate_index(gate_x),
        capacitance.gate_index(gate_y),
    )


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

#: Suites replayed per round: the paper's own twelve diagrams, then seeded
#: variants (same devices and noise recipes, fresh noise draws).  Without
#: the variants a run would only ever see twelve fixed inputs and the seed
#: would change nothing; with them, medians average over 192 diagrams.
#: ``alpha_error_p50`` needs that many: the extracted slopes are quantised
#: by the pixel grid, so job errors take a few discrete values, and with 96
#: diagrams the median hopped between them by up to 20% from seed to seed.
TABLE1_SUITES = 16

TABLE1_METHODS = (("fast", "fast-extraction"), ("baseline", "dense-grid-baseline"))


def variant_seed(seed: int, suite: int, diagram: int) -> int:
    """Noise seed of one diagram of a seeded variant suite."""
    return int(np.random.SeedSequence([seed, suite, diagram]).generate_state(1)[0])


class Table1Workload:
    """The twelve Table 1 diagrams replayed through both pipelines."""

    name = "table1"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        started = time.perf_counter()
        suites = [load_suite()]
        for suite in range(1, 1 if smoke else TABLE1_SUITES):
            suites.append(
                [
                    replace(config, seed=variant_seed(seed, suite, index)).build_csd()
                    for index, config in enumerate(QFLOW_BENCHMARKS)
                ]
            )
        self.suite_build_s = time.perf_counter() - started
        self.suites = suites
        self.truths = []
        for config, csd in zip(QFLOW_BENCHMARKS, suites[0]):
            capacitance = config.build_device().capacitance
            self.truths.append(_truth_for(capacitance, 0, 1, csd.gate_x, csd.gate_y))
        self.cost_per_probe_s = TimingModel.paper_default().cost_per_probe_s
        self.criterion = SuccessCriterion()

    def run_round(self, tracer=None) -> RoundResult:
        jobs: list[JobOutcome] = []
        samples: list[float] = []
        wall = 0.0
        paper_rows: list[dict] = []
        job_id = 0
        for suite_index, suite in enumerate(self.suites):
            for index, csd in enumerate(suite):
                row = {"pixels": csd.data.size}
                for method, pipeline_name in TABLE1_METHODS:
                    session = result = error = None
                    with tracer.job(job_id) if tracer is not None else nullcontext():
                        started = time.perf_counter()
                        try:
                            session = ExperimentSession.from_csd(csd)
                            result = get_pipeline(pipeline_name).run(session)
                        except Exception as exc:  # a raising job is a failed operation
                            error = exc
                        elapsed = time.perf_counter() - started
                    wall += elapsed
                    key = f"s{suite_index}/d{index + 1}/{method}"
                    job = self._outcome(key, method, elapsed, csd, index, session, result, error)
                    jobs.append(job)
                    samples.append(calibration.sample())
                    job_id += 1
                    if result is not None:
                        row[f"{method}_success"] = job.outcome == "ok"
                        row[f"{method}_fraction"] = result.probe_stats.probe_fraction
                        row[f"{method}_sim_s"] = result.probe_stats.elapsed_s
                if suite_index == 0 and "fast_sim_s" in row and "baseline_sim_s" in row:
                    row["speedup"] = row["baseline_sim_s"] / row["fast_sim_s"]
                    paper_rows.append(row)
        if len(paper_rows) == len(QFLOW_BENCHMARKS):
            problems = checks.check_table1_pattern(paper_rows)
        else:
            problems = ["the paper suite did not run to completion"]
        return RoundResult(jobs=jobs, wall_s=wall, calibration=samples, problems=problems)

    def _outcome(self, key, method, elapsed, csd, index, session, result, error) -> JobOutcome:
        if error is not None:
            print(f"{key} raised {type(error).__name__}: {error}", file=sys.stderr)
            return JobOutcome(key, method, elapsed, 0, 0, 0.0, None, "crash")
        truth = self.truths[index]
        stats = result.probe_stats
        matrix = result.matrix
        alphas = (matrix.alpha_12, matrix.alpha_21) if matrix is not None else (None, None)
        success = self.criterion.evaluate(result, csd.geometry)
        log = session.meter.log.as_arrays()
        problems = (
            checks.check_truth((csd.geometry.alpha_12, csd.geometry.alpha_21), truth)
            + checks.check_matched(success, alphas, truth, self.criterion)
            + checks.check_replayed_values(log["row"], log["col"], log["current_na"], csd.data)
            + checks.check_dense_scan(result.stage_telemetry, csd.shape)
            + checks.check_sim_time(stats.n_probes, stats.elapsed_s, self.cost_per_probe_s)
        )
        return JobOutcome(
            key=key,
            method=method,
            wall_s=elapsed,
            n_probes=stats.n_probes,
            n_requests=stats.n_requests,
            sim_s=stats.elapsed_s,
            alpha_error=checks.alpha_error(alphas, truth),
            outcome="ok" if success else "truth-miss",
            problems=tuple(problems),
        )

    def final_problems(self, rounds: list[RoundResult]) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


class CampaignWorkload:
    """A campaign grid run as one round; subclasses fix grid and backend."""

    name = ""
    n_workers = 1

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.jobs = self.grid(seed, smoke).expand()
        self.jobs_by_id = {job.job_id: job for job in self.jobs}
        self.criterion = SuccessCriterion()
        capacitances = {}
        self.truths = {}
        for job in self.jobs:
            label = job.device.label
            if label not in capacitances:
                capacitances[label] = job.device.build().capacitance
            self.truths[job.job_id] = _truth_for(
                capacitances[label], job.dot_a, job.dot_b, job.gate_x, job.gate_y
            )
        self.costs = {
            job.job_id: (
                get_scenario(job.scenario).timing
                if job.scenario is not None
                else TimingModel.paper_default()
            ).cost_per_probe_s
            for job in self.jobs
        }
        self.suite_build_s = 0.0

    def grid(self, seed: int, smoke: bool) -> CampaignGrid:
        raise NotImplementedError

    def before_round(self) -> None:
        """Hook run before each round, outside its timing."""

    def run_round(self, tracer=None) -> RoundResult:
        self.before_round()
        stamps: list[tuple[int, float, float]] = []
        samples: list[float] = []

        serial = self.n_workers == 1

        def progress(n_done, n_total, record):
            done = time.perf_counter()
            if serial:
                samples.append(calibration.sample())
            stamps.append((record.job_id, done, time.perf_counter()))

        runner, out_dir = run_campaign_job, None
        if not serial:
            out_dir = tempfile.mkdtemp(prefix="workers-", dir=scratch_dir())
        if tracer is not None or not serial:
            runner = partial(bench_job_runner, traced=tracer is not None, out_dir=out_dir)
        campaign = TuningCampaign(
            self.jobs,
            backend="serial" if serial else f"process:{self.n_workers}",
            progress=progress,
            job_runner=runner,
        )
        with tracer.span("campaign.run", "campaign") if tracer is not None else nullcontext():
            started = time.perf_counter()
            result = campaign.run()
            wall = time.perf_counter() - started
        self.last_records = result.records
        self.worker_dumps = []
        if out_dir is not None:
            samples, sample_wall_s, self.worker_dumps = read_worker_files(out_dir)
            shutil.rmtree(out_dir)
            for dump in self.worker_dumps:
                tracer.merge(dump)
            # Each worker took its samples between its own jobs; with the
            # workers evenly loaded that lengthened the round by their mean.
            wall -= sample_wall_s / self.n_workers
        call_s = {}
        previous = started
        for job_id, done, resumed in stamps:
            call_s[job_id] = done - previous
            previous = resumed
        if serial:
            # Serial calibration ran between the jobs, inside the campaign.
            wall -= sum(resumed - done for _, done, resumed in stamps)
        id_problems = checks.check_job_ids(
            [job.job_id for job in self.jobs], [stamp[0] for stamp in stamps]
        )
        jobs = []
        for record in result.records:
            # Serial jobs are timed around each call; pool jobs from job
            # start to record, as the worker measured them.
            elapsed = call_s.get(record.job_id, 0.0) if serial else record.wall_elapsed_s
            job = self._outcome(record, elapsed)
            if record.job_id in id_problems:
                job.problems += (id_problems.pop(record.job_id),)
            jobs.append(job)
        # Ids that never produced a record are failed operations too.
        for job_id, reason in sorted(id_problems.items()):
            jobs.append(JobOutcome(f"job{job_id}", "?", 0.0, 0, 0, 0.0, None,
                                   "missing", problems=(reason,)))
        return RoundResult(
            jobs=jobs,
            wall_s=wall,
            calibration=samples,
            n_workers=result.n_workers,
            first_record_s=(stamps[0][1] - started) if stamps else wall,
            campaign=True,
        )

    def _outcome(self, record, elapsed: float) -> JobOutcome:
        job = self.jobs_by_id[record.job_id]
        truth = self.truths[record.job_id]
        alphas = (record.alpha_12, record.alpha_21)
        category = record.failure_category
        if category in BROKEN:
            outcome = category
            problems: list[str] = []
        else:
            if category == "ok":
                outcome = "ok"
            elif category in INSTRUMENT_FAULTS:
                outcome = "instrument-fault"
            else:
                outcome = "truth-miss"
            problems = (
                checks.check_truth((record.true_alpha_12, record.true_alpha_21), truth)
                + checks.check_matched(record.success, alphas, truth, self.criterion)
                + checks.check_dense_scan(
                    record.stage_telemetry, (job.resolution, job.resolution)
                )
            )
            if job.fault is None:
                problems += checks.check_sim_time(
                    record.n_probes, record.sim_elapsed_s, self.costs[record.job_id]
                )
        return JobOutcome(
            key=f"job{record.job_id}",
            method=record.method,
            wall_s=elapsed,
            n_probes=record.n_probes,
            n_requests=sum(row.n_requests for row in record.stage_telemetry),
            sim_s=record.sim_elapsed_s,
            alpha_error=checks.alpha_error(alphas, truth),
            outcome=outcome,
            retries=record.n_probe_retries,
            problems=tuple(problems),
        )

    def final_problems(self, rounds: list[RoundResult]) -> list[str]:
        return []


def bench_job_runner(job, *, traced: bool, out_dir: str | None, **kwargs):
    """The benchmark's campaign job runner.

    Runs the campaign's own runner, inside a job span when ``traced``.  In a
    pool worker (``out_dir`` set) it then takes a CPU-time calibration
    sample and appends one line to ``<out_dir>/worker-<pid>.jsonl``: the
    sample, the wall time it took and, when traced, the worker's spans since
    its previous line with its running totals.  The job's own record and its
    ``wall_elapsed_s`` are untouched.
    """
    in_worker = out_dir is not None
    if traced:
        record = tracing.traced_campaign_job(job, in_worker=in_worker, **kwargs)
    else:
        record = run_campaign_job(job, **kwargs)
    if in_worker:
        started = time.perf_counter()
        line = {"calibration": calibration.sample(time.thread_time)}
        line["sample_wall_s"] = time.perf_counter() - started
        if traced:
            line["trace"] = tracing.active().delta()
        with open(Path(out_dir) / f"worker-{os.getpid()}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
    return record


def read_worker_files(out_dir) -> tuple[list[float], float, list[dict]]:
    """What the pool workers left in ``out_dir``: every calibration sample,
    the summed wall time of the samples, and (traced) one trace dump per
    worker with all of its spans and its final totals."""
    samples, sample_wall_s, dumps = [], 0.0, []
    for path in sorted(Path(out_dir).glob("worker-*.jsonl")):
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        samples += [line["calibration"] for line in lines]
        sample_wall_s += sum(line["sample_wall_s"] for line in lines)
        traces = [line["trace"] for line in lines if "trace" in line]
        if traces:
            dumps.append(dict(traces[-1], events=[e for t in traces for e in t["events"]]))
    return samples, sample_wall_s, dumps


class DeviceCampaignWorkload(CampaignWorkload):
    """Serial 100x100 campaign over four devices, kernel cache cleared per round."""

    name = "device-campaign"

    def grid(self, seed: int, smoke: bool) -> CampaignGrid:
        devices = (DeviceSpec.of("double_dot"),)
        if not smoke:
            devices += (
                DeviceSpec.of("linear_array", n_dots=4),
                DeviceSpec.of("linear_array", n_dots=6),
                DeviceSpec.of("grid_array", rows=2, cols=3),
            )
        return CampaignGrid(
            devices=devices,
            resolutions=(100,),
            noise_scales=(0.0, 1.0),
            methods=("fast", "baseline"),
            n_repeats=1 if smoke else 2,
            seed=seed,
        )

    def before_round(self) -> None:
        # Every round is the campaign a user runs in a fresh process: the
        # cache starts empty, or later rounds would hit on every pixel.
        clear_kernel_cache()


#: Every ``CHAOS_SLICE_STEP``-th chaos job is re-run serially in-process and
#: must reproduce the pool's record.  The step is prime so the slice walks
#: across the scenario, fault, method and repeat axes.
CHAOS_SLICE_STEP = 17


class ChaosPoolWorkload(CampaignWorkload):
    """63x63 campaign on two pool workers under drift, noise and faults."""

    name = "chaos-pool"
    n_workers = 2

    def grid(self, seed: int, smoke: bool) -> CampaignGrid:
        # The faulted dense scans of the 4-dot chain that run to their end
        # (~20 of 162 jobs, 1.3-2 s each) set the p90.  A double dot's 54
        # cheap jobs would put the p90 on the edge of that group, where it
        # jumped between ~1.1 and ~1.5 s with the seed; the smoke run keeps
        # the double dot only because it is quick.
        device = DeviceSpec.of("double_dot") if smoke else DeviceSpec.of("linear_array", n_dots=4)
        return CampaignGrid(
            devices=(device,),
            resolutions=(63,),
            scenarios=("drifting_sensor", "telegraph_storm", "mains_hum"),
            faults=(None, "transient-reads", "flaky-lab"),
            methods=("fast", "baseline"),
            n_repeats=1 if smoke else 3,
            seed=seed,
        )

    def final_problems(self, rounds: list[RoundResult]) -> list[str]:
        subset = self.jobs[:: (5 if len(self.jobs) < 40 else CHAOS_SLICE_STEP)]
        wanted = {job.job_id for job in subset}
        serial = TuningCampaign(subset, backend="serial").run()
        pooled = [record for record in self.last_records if record.job_id in wanted]

        def normalized(records):
            return CampaignResult(
                records=tuple(records), n_workers=1, wall_time_s=0.0
            ).normalized().records

        return checks.check_same_records(normalized(serial.records), normalized(pooled))


WORKLOADS = {
    workload.name: workload
    for workload in (Table1Workload, DeviceCampaignWorkload, ChaosPoolWorkload)
}


def scratch_dir() -> Path:
    """Where runs leave traces and worker span files (ignored by git)."""
    path = Path(__file__).resolve().parent.parent / ".perfbench"
    path.mkdir(exist_ok=True)
    return path
