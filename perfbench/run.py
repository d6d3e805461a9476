"""Benchmark command: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced reference round and one traced round, prints the per-layer metrics
and the tracing overhead, and writes a Chrome trace to ``.perfbench/``.
``--smoke`` shrinks every workload to a seconds-long run with the same
checks.  The last line of standard output is the result::

    {"correct": true, "attempted": 384, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no repro sources under {ROOT / 'src'}; run from a full checkout")
if __name__ == "__main__":
    # Run as a script, the first entry is this directory; import the
    # benchmark as the ``perfbench`` package instead, so pool workers
    # unpickle its job runner by the same name.
    sys.path[0] = str(ROOT)
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import calibration, checks, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, scratch_dir  # noqa: E402

#: name -> (unit, better) of the metrics a ``--trace 0`` run prints.
END_TO_END = {
    "jobs_per_s": ("1/s", "higher"),
    "job_ms_p50": ("ms", "lower"),
    "job_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "probes_per_job": ("count", "lower"),
    "sim_s_per_job": ("sim_s", "lower"),
    "alpha_error_p50": ("1", "lower"),
}

#: Fast-method and baseline stages, as ``pipeline.<stage>_ms`` metrics.
STAGES = (
    "anchors", "sweeps", "filter", "fit", "validate",
    "full_scan", "edge_detect", "line_fit",
)

#: name -> (unit, better) of the metrics a ``--trace 1`` run prints.
PER_LAYER = {
    "instrument.calls_per_job": ("count", "lower"),
    "instrument.requests_per_job": ("count", "lower"),
    "instrument.probes_per_request": ("1", "higher"),
    "instrument.us_per_request": ("us", "lower"),
    "instrument.busy_ms_per_job": ("ms", "lower"),
    "backend.calls_per_job": ("count", "lower"),
    "backend.points_per_probe": ("1", "lower"),
    "backend.busy_ms_per_job": ("ms", "lower"),
    "faults.plan_calls_per_job": ("count", "lower"),
    "faults.busy_ms_per_job": ("ms", "lower"),
    "faults.retries_per_job": ("count", "lower"),
    "physics.points_per_job": ("count", "lower"),
    "physics.us_per_point": ("us", "lower"),
    "physics.scores_per_point": ("count", "lower"),
    "physics.busy_ms_per_job": ("ms", "lower"),
    "kernelcache.pixel_hit_ratio": ("1", "higher"),
    "kernelcache.solves_per_job": ("count", "lower"),
    **{f"pipeline.{stage}_ms": ("ms", "lower") for stage in STAGES},
    "campaign.session_ms_per_job": ("ms", "lower"),
    "campaign.score_ms_per_job": ("ms", "lower"),
    "campaign.overhead_ms_per_job": ("ms", "lower"),
    "execution.first_record_s": ("s", "lower"),
    "execution.worker_busy_ratio": ("1", "higher"),
    "datasets.suite_build_s": ("s", "lower"),
}

#: Fresh processes that repeat the set-up, besides the run's own.
SETUP_REPEATS = 2

#: Units of the per-layer metrics that are times, normalised like the
#: end-to-end timings.
TIME_UNITS = frozenset({"s", "ms", "us"})


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long run of a shrunken workload")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up seconds, exit")
    return parser.parse_args(argv)


def run_rounds(workload, seconds: float) -> list:
    """Whole rounds, back to back, while the next one should fit in time."""
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append(workload.run_round())
        elapsed = time.perf_counter() - started
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def tally(workload, rounds) -> tuple[list[str], int, int, Counter]:
    """Run-level problems, operations attempted and failed, outcome counts."""
    problems = [p for r in rounds for p in r.problems]
    problems += workload.final_problems(rounds)
    first = [job.signature() for job in rounds[0].jobs]
    for later in rounds[1:]:
        problems += checks.check_rounds_repeat(first, [job.signature() for job in later.jobs])
    jobs = [job for r in rounds for job in r.jobs]
    for job in jobs:
        problems += [f"{job.key}: {p}" for p in job.problems]
    outcomes = Counter(job.outcome for job in jobs)
    return problems, len(jobs), sum(job.failed for job in jobs), outcomes


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped
    child (a pool worker), in MB."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return usage / 1024.0


def p90(values) -> float:
    """Nearest-rank 90th percentile (of 100 samples, 10 lie above it)."""
    ordered = sorted(values)
    return ordered[(9 * len(ordered) + 9) // 10 - 1]


def slowdown(rounds) -> float:
    return calibration.slowdown([s for r in rounds for s in r.calibration])


def raw_timings(rounds) -> dict:
    """Wall-clock timings as measured on this host, before normalisation."""
    walls_ms = [job.wall_s * 1e3 for r in rounds for job in r.jobs]
    return {
        "jobs_per_s": len(walls_ms) / sum(r.wall_s for r in rounds),
        "job_ms_p50": statistics.median(walls_ms),
        "job_ms_p90": p90(walls_ms),
    }


def end_to_end(rounds, setup_s: float, peak_mb: float) -> dict:
    raw = raw_timings(rounds)
    slow = slowdown(rounds)
    first = rounds[0].jobs
    errors = [job.alpha_error for job in first if job.alpha_error is not None]
    return {
        "jobs_per_s": raw["jobs_per_s"] * slow,
        "job_ms_p50": raw["job_ms_p50"] / slow,
        "job_ms_p90": raw["job_ms_p90"] / slow,
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
        "probes_per_job": statistics.fmean(job.n_probes for job in first),
        "sim_s_per_job": statistics.fmean(job.sim_s for job in first),
        "alpha_error_p50": statistics.median(errors) if errors else float("nan"),
    }


def per_layer(tracer: tracing.Tracer, round_, workload) -> dict:
    totals, counters = tracer.totals, tracer.counters
    n_jobs = len(round_.jobs)
    requests = sum(job.n_requests for job in round_.jobs)
    probes = sum(job.n_probes for job in round_.jobs)

    def layer(prefix: str, column: int) -> float:
        return sum(v[column] for k, v in totals.items() if k.startswith(prefix))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    points = counters.get("physics.points", 0)
    hits = counters.get("kernelcache.pixel_hits", 0)
    solves = counters.get("kernelcache.pixel_solves", 0)
    capacity_s = round_.wall_s * round_.n_workers
    in_runner_s = counters.get("execution.in_runner_s", 0.0)
    metrics = {
        "instrument.calls_per_job": layer("instrument.", 0) / n_jobs,
        "instrument.requests_per_job": requests / n_jobs,
        "instrument.probes_per_request": ratio(probes, requests),
        "instrument.us_per_request": ratio(layer("instrument.", 2) * 1e6, requests),
        "instrument.busy_ms_per_job": layer("instrument.", 2) * 1e3 / n_jobs,
        "backend.calls_per_job": layer("backend.", 0) / n_jobs,
        "backend.points_per_probe": ratio(layer("backend.", 3), probes),
        "backend.busy_ms_per_job": layer("backend.", 2) * 1e3 / n_jobs,
        "faults.plan_calls_per_job": layer("faults.", 0) / n_jobs,
        "faults.busy_ms_per_job": layer("faults.", 2) * 1e3 / n_jobs,
        "faults.retries_per_job": sum(job.retries for job in round_.jobs) / n_jobs,
        "physics.points_per_job": points / n_jobs,
        "physics.us_per_point": ratio(layer("physics.", 2) * 1e6, points),
        "physics.scores_per_point": ratio(counters.get("physics.state_scores", 0), points),
        "physics.busy_ms_per_job": layer("physics.", 2) * 1e3 / n_jobs,
        "kernelcache.pixel_hit_ratio": ratio(hits, hits + solves),
        "kernelcache.solves_per_job": solves / n_jobs,
    }
    for stage in STAGES:
        calls, inclusive_s, _, _ = totals.get(f"pipeline.{stage}", (0, 0.0, 0.0, 0))
        metrics[f"pipeline.{stage}_ms"] = ratio(inclusive_s * 1e3, calls)
    metrics.update({
        "campaign.session_ms_per_job": layer("campaign.session", 1) * 1e3 / n_jobs,
        "campaign.score_ms_per_job": layer("campaign.score", 1) * 1e3 / n_jobs,
        "campaign.overhead_ms_per_job": (
            (capacity_s - in_runner_s) * 1e3 / n_jobs if round_.campaign else 0.0
        ),
        "execution.first_record_s": round_.first_record_s if round_.campaign else 0.0,
        "execution.worker_busy_ratio": ratio(in_runner_s, capacity_s) if round_.campaign else 0.0,
        "datasets.suite_build_s": workload.suite_build_s,
    })
    return metrics


def traced_run(workload, args) -> tuple[list, dict]:
    """An untraced reference round, then a traced one; per-layer metrics."""
    reference = workload.run_round()
    tracing.install()
    tracer = tracing.Tracer()
    tracing.activate(tracer)
    try:
        traced = workload.run_round(tracer)
    finally:
        tracing.activate(None)
    dumps = [tracer.dump()] + getattr(workload, "worker_dumps", [])
    slow = slowdown([traced])
    metrics = {
        name: value / slow if PER_LAYER[name][0] in TIME_UNITS else value
        for name, value in per_layer(tracer, traced, workload).items()
    }
    reference_rate = raw_timings([reference])["jobs_per_s"] * slowdown([reference])
    traced_rate = raw_timings([traced])["jobs_per_s"] * slow
    overhead = {
        "untraced_jobs_per_s": reference_rate,
        "traced_jobs_per_s": traced_rate,
        "traced_over_untraced": traced_rate / reference_rate,
    }
    path = scratch_dir() / f"trace-{workload.name}-seed{args.seed}.json"
    path.write_text(json.dumps(tracing.chrome_trace(
        dumps, {"workload": workload.name, "seed": args.seed, "overhead": overhead}
    )))
    print(
        f"tracing overhead: {traced_rate:.2f} jobs/s traced against "
        f"{reference_rate:.2f} jobs/s untraced "
        f"({overhead['traced_over_untraced']:.3f}x); trace written to {path}"
    )
    return [reference, traced], metrics


def setup_seconds(args, own: tuple[float, float]) -> tuple[float, float]:
    """Median set-up time, raw and normalised, of this run and of fresh
    processes repeating its set-up; each is normalised by a calibration
    taken right after it."""
    samples = [own]
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        command.append("--smoke")
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        samples.append(tuple(json.loads(done.stdout.strip().splitlines()[-1])))
    raw = statistics.median(seconds for seconds, _ in samples)
    normalised = statistics.median(
        seconds * calibration.REFERENCE_S / sample for seconds, sample in samples
    )
    return raw, normalised


def stop_helper_processes() -> None:
    """Stop every process multiprocessing started here and wait for each.

    Pool workers are joined when their pool closes, but the resource
    tracker the process pool starts is left to notice this process's exit
    on its own, and so outlives it for a moment, holding its stdout.
    """
    for child in multiprocessing.active_children():
        child.join()
    # Closes the tracker's pipe, which ends it, and waits for it.
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return measure(parse_args(argv))
    finally:
        stop_helper_processes()


def measure(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    own_setup = (time.perf_counter() - _STARTED, calibration.settle())
    if args.setup_only:
        print(json.dumps(own_setup))
        return 0
    if args.trace:
        rounds, metrics = traced_run(workload, args)
        wanted = PER_LAYER
    else:
        rounds = run_rounds(workload, args.seconds)
        # Read before the checks: chaos-pool's serial re-check runs jobs in
        # this process, which its measured rounds leave to the workers.
        peak_mb = peak_rss_mb()
    problems, attempted, failed, outcomes = tally(workload, rounds)
    summary = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
               "outcomes": dict(sorted(outcomes.items()))}
    if not args.trace:
        raw_setup_s, setup_s = setup_seconds(args, own_setup)
        metrics = end_to_end(rounds, setup_s, peak_mb)
        wanted = END_TO_END
        summary["slowdown"] = slowdown(rounds)
        summary["raw"] = dict(raw_timings(rounds), setup_s=raw_setup_s)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(summary))
    # allow_nan=False: a metric that came out NaN fails the run instead of
    # printing a line strict JSON parsers reject.
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in wanted.items()
        },
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
