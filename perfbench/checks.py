"""Correctness checks the benchmark applies before any reported time counts.

Every check compares the program's output with a truth computed here, from
the inputs, or with a property the method must have; none compares with a
stored copy of earlier output.  Each returns a list of problems (empty when
the check passes), so one job that breaks a check is counted as a failed
operation without stopping the run.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

#: Relative tolerance between the program's ground-truth α and the one
#: recomputed here: the two differ only by the order of floating-point
#: operations (``inv(Cdd) @ Cdg`` against ``solve(Cdd, Cdg)``).
TRUTH_RTOL = 1e-9

#: Relative tolerance on ``sim_s == probes * cost``: the clock adds the probe
#: cost once per probe, so rounding grows with the probe count.
SIM_TIME_RTOL = 1e-9


def true_alphas(
    dot_dot: np.ndarray,
    dot_gate: np.ndarray,
    dot_a: int,
    dot_b: int,
    gate_x: int,
    gate_y: int,
) -> tuple[float, float]:
    """Ground-truth ``(alpha_12, alpha_21)`` from the capacitance matrices.

    The lever-arm matrix is ``A = Cdd^-1 Cdg``, taken with a linear solve;
    ``alpha_12`` is dot A's coupling to the y gate over its coupling to the
    x gate, ``alpha_21`` dot B's coupling to the x gate over the y gate.
    """
    lever = np.linalg.solve(np.asarray(dot_dot, float), np.asarray(dot_gate, float))
    alpha_12 = lever[dot_a, gate_y] / lever[dot_a, gate_x]
    alpha_21 = lever[dot_b, gate_x] / lever[dot_b, gate_y]
    return float(alpha_12), float(alpha_21)


def alpha_error(
    alphas: tuple[float | None, float | None], truth: tuple[float, float]
) -> float | None:
    """``max |alpha - alpha_true|``, or ``None`` when no matrix was returned."""
    if alphas[0] is None or alphas[1] is None:
        return None
    return max(abs(alphas[0] - truth[0]), abs(alphas[1] - truth[1]))


def check_truth(
    recorded: tuple[float | None, float | None], truth: tuple[float, float]
) -> list[str]:
    """The program's ground-truth α must equal the recomputed one."""
    problems = []
    for name, mine, theirs in zip(("alpha_12", "alpha_21"), recorded, truth):
        if mine is None or not math.isclose(mine, theirs, rel_tol=TRUTH_RTOL, abs_tol=1e-12):
            problems.append(f"true {name} {mine!r} != recomputed {theirs!r}")
    return problems


def check_matched(
    success: bool,
    alphas: tuple[float | None, float | None],
    truth: tuple[float, float],
    criterion,
) -> list[str]:
    """A job reported as matched must lie within the success criterion."""
    if not success:
        return []
    if alphas[0] is None or alphas[1] is None:
        return ["reported success without a matrix"]
    problems = []
    for name, value, true_value in zip(("alpha_12", "alpha_21"), alphas, truth):
        if not criterion.alpha_matches(value, true_value):
            problems.append(
                f"reported success but {name}={value!r} is outside the "
                f"criterion around {true_value!r}"
            )
    return problems


def check_replayed_values(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, data: np.ndarray
) -> list[str]:
    """Every replayed probe value must equal the stored diagram pixel."""
    expected = np.asarray(data)[np.asarray(rows), np.asarray(cols)]
    mismatched = np.flatnonzero(np.asarray(values) != expected)
    if mismatched.size == 0:
        return []
    i = int(mismatched[0])
    return [
        f"{mismatched.size} replayed values differ from the stored diagram, "
        f"first at pixel ({int(rows[i])}, {int(cols[i])})"
    ]


def check_dense_scan(stage_rows: Iterable, shape: tuple[int, int]) -> list[str]:
    """A completed full scan probes exactly rows x cols pixels."""
    expected = int(shape[0]) * int(shape[1])
    return [
        f"full scan probed {row.n_probes} pixels, expected {expected}"
        for row in stage_rows
        if row.stage == "full-scan" and row.outcome == "ok" and row.n_probes != expected
    ]


def check_sim_time(n_probes: int, sim_s: float, cost_per_probe_s: float) -> list[str]:
    """Without faults, simulated time is exactly probes times probe cost."""
    expected = n_probes * cost_per_probe_s
    if math.isclose(sim_s, expected, rel_tol=SIM_TIME_RTOL, abs_tol=1e-12):
        return []
    return [f"simulated {sim_s!r} s for {n_probes} probes, expected {expected!r} s"]


#: Table 1 of the paper: diagrams 1 and 2 defeat both methods, diagram 7
#: defeats only the dense-grid baseline.
PAPER_HARD_FAILURES = (1, 2)
PAPER_BASELINE_ONLY_FAILURE = 7


def check_table1_pattern(
    rows: Sequence[dict],
    hard_failures: Sequence[int] = PAPER_HARD_FAILURES,
    baseline_only_failure: int = PAPER_BASELINE_ONLY_FAILURE,
) -> list[str]:
    """The paper's Table 1 structure on its own twelve diagrams.

    ``rows`` holds one dict per diagram, in Table 1 order, with the keys
    ``pixels``, ``fast_success``, ``baseline_success``, ``fast_fraction``
    and ``speedup`` (baseline over fast simulated time).
    """
    problems = []
    for index in hard_failures:
        row = rows[index - 1]
        if row["fast_success"] or row["baseline_success"]:
            problems.append(f"diagram {index} should defeat both methods")
    split = rows[baseline_only_failure - 1]
    if not split["fast_success"] or split["baseline_success"]:
        problems.append(
            f"diagram {baseline_only_failure} should defeat only the baseline"
        )
    successful = [row for row in rows if row["fast_success"]]
    if len(successful) < 9:
        problems.append(f"only {len(successful)} fast successes, expected >= 9")
    for row in successful:
        if not 0.03 <= row["fast_fraction"] <= 0.20:
            problems.append(
                f"fast method probed {row['fast_fraction']:.3f} of a diagram, "
                "outside 3-20%"
            )
    if successful:
        largest = max(row["pixels"] for row in successful)
        best = max(row["speedup"] for row in successful)
        on_largest = max(row["speedup"] for row in successful if row["pixels"] == largest)
        if on_largest != best:
            problems.append(
                f"largest speed-up {best:.2f}x is not on the largest scan "
                f"({on_largest:.2f}x)"
            )
    return problems


def check_job_ids(expected: Sequence[int], received: Sequence[int]) -> dict[int, str]:
    """Job ids missing from or repeated in the records, mapped to a reason."""
    problems: dict[int, str] = {}
    seen: set[int] = set()
    for job_id in received:
        if job_id in seen:
            problems[job_id] = "job id repeated in the records"
        seen.add(job_id)
    for job_id in expected:
        if job_id not in seen:
            problems[job_id] = "job id missing from the records"
    for job_id in seen.difference(expected):
        problems[job_id] = "unexpected job id in the records"
    return problems


def check_same_records(reference: Sequence, candidate: Sequence) -> list[str]:
    """Two normalised record lists (same job ids, same order) must be equal."""
    if len(reference) != len(candidate):
        return [f"{len(candidate)} records against {len(reference)} expected"]
    return [
        f"job {ref.job_id}: serial and pool records differ"
        for ref, got in zip(reference, candidate)
        if ref != got
    ]


def check_rounds_repeat(first: Sequence[tuple], later: Sequence[tuple]) -> list[str]:
    """A later round over the same inputs must repeat the first's results."""
    if list(first) == list(later):
        return []
    differing = sum(a != b for a, b in zip(first, later)) + abs(len(first) - len(later))
    return [f"{differing} jobs gave other results than in the first round"]
