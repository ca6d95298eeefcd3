"""The benchmark's four workloads: seeded job lists and the check on each output.

A workload is a fixed mix of jobs.  The workload seed only chooses Monte Carlo
seeds, probe angles, directions and the order of the jobs, so the amount of
work in a pass does not depend on it.  CLI jobs go in-process through
``relangle.cli.main`` with stdout captured; library jobs call the public API.
Each check returns None when the output is correct, else a one-line reason.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import relangle
import relangle.cli
from relangle import SpinQuantumNumber

WORKLOADS = ("mc", "estimate", "curve", "dense")
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Outputs of `report`, `probs` and `curve` must match the reference table to
# this relative tolerance.  Numbers smaller than SMALL in magnitude are sums
# of order-one terms that carry only absolute accuracy, so they are compared
# to REL_TOL * SMALL absolutely.
REL_TOL = 1e-8
SMALL = 1e-4
PROBS_SUM_TOL = 1e-9
MC_SIGMAS = 5.0

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@dataclass(frozen=True)
class Job:
    """One unit of work in a pass: ``run`` is timed, ``check`` is not."""

    key: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    trials: int = 0


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Call ``relangle.cli.main`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = relangle.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def split_numbers(text: str) -> tuple[str, list[float]]:
    """Every number printed in ``text``, and a digest of the text around them."""
    numbers = [float(token) for token in _NUMBER.findall(text)]
    skeleton = _NUMBER.sub("#", text)
    return hashlib.sha256(skeleton.encode()).hexdigest(), numbers


# ---------------------------------------------------------------- checks


def check_mc(result) -> str | None:
    """The rule of tests/test_sim.py: every frequency within 5 sigma + 1e-12 of
    its analytic probability, and the mean gain within 5 sigma of I_av."""
    code, out, err = result
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    summary = json.loads(out)
    for entry in summary["outcomes"]:
        gap = abs(entry["frequency"] - entry["analytic_p"])
        if gap > MC_SIGMAS * entry["frequency_se"] + 1e-12:
            return f"{entry['label']}: frequency off by {gap:.3g}"
    gap = abs(summary["mean_gain_bits"] - summary["analytic_I_av_bits"])
    if gap > MC_SIGMAS * summary["gain_se_bits"]:
        return f"mean gain off by {gap:.3g}"
    return None


def _probs_columns_sum_to_one(out: str) -> str | None:
    totals: dict[str, float] = {}
    for line in out.splitlines()[1:]:
        alpha, _, p = line.split(",")
        totals[alpha] = totals.get(alpha, 0.0) + float(p)
    for alpha, total in totals.items():
        if abs(total - 1.0) > PROBS_SUM_TOL:
            return f"probabilities at alpha={alpha} sum to {total!r}"
    return None


def make_reference_check(key: str, reference: dict):
    """Check a CLI output against the recorded reference for ``key``."""
    expected = reference.get(key)

    def check(result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        if expected is None:
            return "no reference recorded for this job"
        skeleton, numbers = split_numbers(out)
        if skeleton != expected["skeleton"]:
            return "output layout differs from the reference"
        if len(numbers) != len(expected["numbers"]):
            return f"{len(numbers)} numbers printed, reference has {len(expected['numbers'])}"
        for index, (got, want) in enumerate(zip(numbers, expected["numbers"])):
            if abs(got - want) > REL_TOL * max(abs(got), abs(want), SMALL):
                return f"number {index} is {got!r}, reference {want!r}"
        if key.startswith("probs"):
            return _probs_columns_sum_to_one(out)
        return None

    return check


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)["jobs"]


# ---------------------------------------------------------------- job lists

# (j1, j2, prior, povm, trials); (2, 3) runs the general dense path per trial.
MC_MIX = (
    ("1/2", "1/2", "pap", "optimal", 2000),
    ("1/2", "3/2", "uniform", "local", 2000),
    ("2", "3", "uniform", "optimal", 1000),
)

# General pairs repeat under both priors and in a probability grid, so their
# coupling decomposition is cached after the first job of a pass.
ESTIMATE_PAIRS = (("1", "1"), ("3/2", "7/2"), ("2", "3"), ("3", "4"), ("5", "5"))
SPIN_HALF_PAIR = ("1/2", "5/2")
PROBS_PAIRS = (("1", "1"), ("2", "3"), ("3/2", "7/2"), ("5", "5"), SPIN_HALF_PAIR)

CURVE_ARGV = ("curve", "--j-min", "1/2", "--j-max", "500", "--j-step", "1/2",
              "--curves", "a,b,c,d")

# Every eighth pair with 1 <= j1 <= j2 and product dimension at most 300:
# 41 distinct pairs, so every decomposition in a pass is a cold build.
DENSE_PAIRS = [
    (tj1, tj2)
    for tj1 in range(2, 25)
    for tj2 in range(tj1, 41)
    if (tj1 + 1) * (tj2 + 1) <= 300
][::8]
PPT_TWICE_J = range(1, 11)  # j = 1/2 ... 5, the range `relangle ppt` accepts
LOCC_HALF_ANGLES = 8  # spin-1/2 protocol, exact to 1e-11
LOCC_LARGER_TWICE_J = (2, 3, 4)  # tight-frame protocol, deviation below 0.1


def estimate_argvs() -> list[list[str]]:
    """The fixed `report` and `probs` command lines of the estimate workload."""
    argvs = []
    for j1, j2 in ESTIMATE_PAIRS + (SPIN_HALF_PAIR,):
        for prior in ("pap", "uniform"):
            argvs.append(["report", "--j1", j1, "--j2", j2, "--prior", prior, "--povm", "optimal"])
    for prior in ("pap", "uniform"):
        argvs.append(["report", "--j1", SPIN_HALF_PAIR[0], "--j2", SPIN_HALF_PAIR[1],
                      "--prior", prior, "--povm", "local"])
    for j1, j2 in PROBS_PAIRS:
        argvs.append(["probs", "--j1", j1, "--j2", j2])
    return argvs


def reference_argvs() -> list[list[str]]:
    """Every command line whose output is checked against the reference table."""
    return estimate_argvs() + [list(CURVE_ARGV)]


def _cli_job(argv: list[str], check, trials: int = 0) -> Job:
    return Job(" ".join(argv), lambda: run_cli(argv), check, trials)


def _random_direction(rng: random.Random) -> relangle.Direction:
    return relangle.Direction(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))


def _mc_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for j1, j2, prior, povm, trials in MC_MIX:
        argv = ["simulate", "--j1", j1, "--j2", j2, "--prior", prior, "--povm", povm,
                "--n", str(trials), "--seed", str(rng.randrange(2**63))]
        jobs.append(_cli_job(argv, check_mc, trials))
    return jobs


def _dense_pair_job(twice_j1: int, twice_j2: int, rng: random.Random) -> Job:
    j1, j2 = SpinQuantumNumber(twice_j1), SpinQuantumNumber(twice_j2)
    n1, n2 = _random_direction(rng), _random_direction(rng)

    def run():
        averaged = relangle.invariant_average(relangle.product_coherent_pair(j1, j2, n1, n2))
        direct = relangle.outcome_probabilities(j1, j2, relangle.angle_between(n1, n2))
        return averaged.weight_array(), [direct[J] for J in sorted(direct)]

    def check(result):
        averaged, direct = result
        gap = max(abs(a - b) for a, b in zip(averaged, direct))
        if len(averaged) != len(direct) or gap > 1e-10:
            return f"group average differs from outcome_probabilities by {gap:.3g}"
        return None

    return Job(f"pair {j1},{j2}", run, check)


def _ppt_job(twice_j: int) -> Job:
    j = SpinQuantumNumber(twice_j)

    def check(x):
        expected = 1.0 / (twice_j + 2.0)
        return None if abs(x - expected) <= 1e-8 else f"threshold {x!r}, expected {expected!r}"

    return Job(f"ppt {j}", lambda: relangle.ppt_threshold(j), check)


def _locc_job(twice_j: int, rng: random.Random) -> Job:
    config = relangle.LoccProtocolConfig(SpinQuantumNumber(twice_j), rng.uniform(0.0, 2.0 * math.pi))
    alpha = rng.uniform(0.0, math.pi)
    limit = 1e-11 if twice_j == 1 else 0.1  # the bounds tests/test_locc.py uses

    def check(stats):
        deviation = stats.max_deviation
        return None if 0.0 <= deviation < limit else f"max_deviation {deviation:.3g}"

    return Job(f"locc {config.j} alpha={alpha!r}",
               lambda: relangle.locc_protocol_statistics(config, alpha), check)


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass, in the order the seed gives."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mc":
        jobs = _mc_jobs(rng)
    elif workload in ("estimate", "curve"):
        reference = load_reference()
        argvs = estimate_argvs() if workload == "estimate" else [list(CURVE_ARGV)]
        jobs = [_cli_job(argv, make_reference_check(" ".join(argv), reference)) for argv in argvs]
    else:
        jobs = [_dense_pair_job(a, b, rng) for a, b in DENSE_PAIRS]
        jobs += [_ppt_job(tj) for tj in PPT_TWICE_J]
        jobs += [_locc_job(1, rng) for _ in range(LOCC_HALF_ANGLES)]
        jobs += [_locc_job(tj, rng) for tj in LOCC_LARGER_TWICE_J]
    rng.shuffle(jobs)
    return jobs

