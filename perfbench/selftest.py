"""The benchmark's own tests.

Run from the repository root (seconds to a minute; not part of the tier-1
suite, whose collection pattern this file name does not match)::

    python3 -m pytest -q perfbench/selftest.py

They show that every check fails when fed a corrupted value, that the
workloads apply the checks to real outputs, that a ``--smoke`` run of every
workload prints every ``BENCHMARK.json`` metric with its unit in both modes,
and that the command refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.metrics import SuccessCriterion  # noqa: E402
from repro.core.result import StageTelemetry  # noqa: E402

from perfbench import checks, run  # noqa: E402
from perfbench.workloads import DeviceCampaignWorkload, Table1Workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- each check passes on a good value and fails on a corrupted one ----------


def test_true_alphas_follow_the_lever_arm_matrix():
    cdd = np.array([[2.0, -0.4], [-0.4, 2.5]])
    cdg = np.array([[1.0, 0.3], [0.2, 1.1]])
    lever = np.linalg.inv(cdd) @ cdg
    a12, a21 = checks.true_alphas(cdd, cdg, 0, 1, 0, 1)
    assert a12 == pytest.approx(lever[0, 1] / lever[0, 0], rel=1e-12)
    assert a21 == pytest.approx(lever[1, 0] / lever[1, 1], rel=1e-12)
    assert checks.check_truth((a12, a21), (a12, a21)) == []
    assert checks.check_truth((a12 * (1 + 1e-6), a21), (a12, a21))
    assert checks.check_truth((None, a21), (a12, a21))


def test_alpha_error_is_the_worse_coefficient():
    assert checks.alpha_error((0.3, 0.5), (0.25, 0.4)) == pytest.approx(0.1)
    assert checks.alpha_error((None, None), (0.25, 0.4)) is None


def test_matched_jobs_must_lie_within_the_criterion():
    criterion = SuccessCriterion()
    truth = (0.30, 0.25)
    assert checks.check_matched(True, (0.31, 0.26), truth, criterion) == []
    assert checks.check_matched(False, (9.0, 9.0), truth, criterion) == []
    assert checks.check_matched(True, (0.31, 0.26 + 1.0), truth, criterion)
    assert checks.check_matched(True, (None, None), truth, criterion)


def test_replayed_values_must_equal_the_stored_diagram():
    data = np.arange(12.0).reshape(3, 4)
    rows, cols = np.array([0, 2, 1]), np.array([3, 0, 1])
    values = data[rows, cols].copy()
    assert checks.check_replayed_values(rows, cols, values, data) == []
    values[1] += 1e-12
    assert checks.check_replayed_values(rows, cols, values, data)


def test_dense_scans_probe_every_pixel():
    good = [StageTelemetry("full-scan", "ok", n_probes=63 * 63)]
    assert checks.check_dense_scan(good, (63, 63)) == []
    assert checks.check_dense_scan([replace(good[0], n_probes=63 * 63 - 1)], (63, 63))
    # A scan cut short by a typed instrument fault is an outcome, not a break.
    assert checks.check_dense_scan([replace(good[0], outcome="failed", n_probes=7)], (63, 63)) == []


def test_simulated_time_is_probes_times_cost():
    total = 0.0
    for _ in range(869):
        total += 0.05
    assert checks.check_sim_time(869, total, 0.05) == []
    assert checks.check_sim_time(869, total + 0.05, 0.05)
    assert checks.check_sim_time(868, total, 0.05)


def _paper_rows():
    rows = []
    for index in range(1, 13):
        pixels = 200 * 200 if index in (1, 2, 12) else 100 * 100
        rows.append({
            "pixels": pixels,
            "fast_success": index not in (1, 2),
            "baseline_success": index not in (1, 2, 7),
            "fast_fraction": 0.08,
            "speedup": 19.0 if index == 12 else 8.0,
        })
    return rows


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows: rows[0].update(fast_success=True),
        lambda rows: rows[1].update(baseline_success=True),
        lambda rows: rows[6].update(baseline_success=True),
        lambda rows: rows[6].update(fast_success=False),
        lambda rows: [rows[i].update(fast_success=False) for i in (2, 3, 4)],
        lambda rows: rows[5].update(fast_fraction=0.25),
        lambda rows: rows[5].update(fast_fraction=0.02),
        lambda rows: rows[5].update(speedup=25.0),
    ],
)
def test_table1_pattern_breaks_on_each_corruption(corrupt):
    rows = _paper_rows()
    assert checks.check_table1_pattern(rows) == []
    corrupt(rows)
    assert checks.check_table1_pattern(rows)


def test_paper_table1_outcomes_agree_with_the_program():
    # The pattern check holds its own copy of the paper's outcomes; the
    # program's constants must not drift from it unnoticed.
    from repro.datasets import EXPECTED_BASELINE_ONLY_FAILURE, EXPECTED_HARD_FAILURES

    assert tuple(EXPECTED_HARD_FAILURES) == checks.PAPER_HARD_FAILURES
    assert EXPECTED_BASELINE_ONLY_FAILURE == checks.PAPER_BASELINE_ONLY_FAILURE


def test_job_ids_missing_repeated_or_unexpected():
    assert checks.check_job_ids([0, 1, 2], [2, 0, 1]) == {}
    assert set(checks.check_job_ids([0, 1, 2], [0, 1])) == {2}
    assert set(checks.check_job_ids([0, 1, 2], [0, 1, 1, 2])) == {1}
    assert set(checks.check_job_ids([0, 1], [0, 1, 5])) == {5}


def test_records_and_rounds_must_repeat():
    assert checks.check_same_records([1, 2], [1, 2]) == []
    assert checks.check_rounds_repeat([("a", 1)], [("a", 1)]) == []
    assert checks.check_rounds_repeat([("a", 1)], [("a", 2)])
    assert checks.check_rounds_repeat([("a", 1)], [])


# -- the workloads apply the checks to real outputs --------------------------


def test_table1_round_flags_a_corrupted_truth():
    workload = Table1Workload(seed=0, smoke=True)
    clean = workload.run_round()
    assert clean.problems == [] and not any(job.failed for job in clean.jobs)
    a12, a21 = workload.truths[2]
    workload.truths[2] = (a12 + 0.5, a21)
    corrupted = workload.run_round()
    failed = {job.key for job in corrupted.jobs if job.failed}
    assert failed == {"s0/d3/fast", "s0/d3/baseline"}


def test_table1_round_flags_a_corrupted_replay(monkeypatch):
    from repro.instrument.measurement import DatasetBackend

    original = DatasetBackend.current
    monkeypatch.setattr(
        DatasetBackend,
        "current",
        lambda self, row, col, time_s=None: original(self, row, col, time_s) + 1e-9,
    )
    workload = Table1Workload(seed=0, smoke=True)
    jobs = workload.run_round().jobs
    # Only the fast method probes pixel by pixel; the full scan is batched.
    assert {job.key for job in jobs if job.failed} == {
        job.key for job in jobs if job.method == "fast"
    }


def test_campaign_round_flags_a_corrupted_probe_cost():
    workload = DeviceCampaignWorkload(seed=0, smoke=True)
    workload.costs = {job_id: cost * 1.001 for job_id, cost in workload.costs.items()}
    result = workload.run_round()
    assert result.jobs and all(job.failed for job in result.jobs)


# -- the command prints every BENCHMARK.json metric ---------------------------


def test_benchmark_json_matches_the_command():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["table1", "device-campaign", "chaos-pool"]
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[section]}
        assert declared == table
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _process_group(pgid: int) -> list[int]:
    """Pids of the live processes in process group ``pgid``."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while the group was listed
            continue
        if int(fields[2]) == pgid:
            pids.append(int(stat.parent.name))
    return pids


def _smoke(workload: str, trace: int) -> dict:
    # A group of its own, so that any process the run left behind shows.
    child = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = child.communicate(timeout=300)
    assert child.returncode == 0, stderr
    assert _process_group(child.pid) == [], "the run left processes running"
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {
        name: value["unit"] for name, value in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in section}
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
