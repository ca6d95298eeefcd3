"""Command-line front end.

Subcommands: ``probs`` (outcome probability tables), ``report`` (full
estimation report), ``curve`` (average information gain versus j),
``ppt`` (separability threshold), and ``simulate`` (Monte Carlo experiment).
Data goes to stdout (or ``--out``); diagnostics go to stderr.  Exit codes:
0 success, 2 usage or configuration error, 1 internal-consistency error.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .angular import SpinQuantumNumber
from .coupling import total_j_values
from .errors import CapacityError, ConsistencyError
from .estimation import (
    DiscreteAngleDistribution,
    RotInvariantPovm,
    _block_probability_matrix,
    average_information_gain,
    infogain_curve,
    parallel_antiparallel_prior,
    uniform_direction_prior,
)
from .locc import optimal_local_povm, ppt_threshold
from .sim import run_experiment

__all__ = ["ScenarioConfig", "main"]

SCHEMA_VERSION = 1
DEFAULT_ALPHA_GRID_POINTS = 181

# Fig-style curve letters: (prior kind, POVM kind)
CURVE_SCENARIOS = {
    "a": ("parallel-antiparallel", "optimal"),
    "b": ("parallel-antiparallel", "optimal-local"),
    "c": ("uniform-directions", "optimal"),
    "d": ("uniform-directions", "optimal-local"),
}

class UsageError(ValueError):
    """Bad command-line configuration (exit code 2)."""


def _spin_type(text: str) -> SpinQuantumNumber:
    try:
        return SpinQuantumNumber.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _alpha_type(text: str) -> float:
    """Angle in radians; accepts plain floats, 'pi', 'pi/k', and 'xpi'."""
    cleaned = text.strip().lower()
    try:
        if cleaned == "pi":
            return math.pi
        if cleaned.startswith("pi/"):
            return math.pi / float(cleaned[3:])
        if cleaned.endswith("pi"):
            return float(cleaned[:-2]) * math.pi
        return float(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from exc


def _seed_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from exc
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _trials_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"n must be an integer, got {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("n must be at least 1")
    return value


def _curves_type(text: str) -> tuple[str, ...]:
    letters = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [letter for letter in letters if letter not in CURVE_SCENARIOS]
    if unknown or not letters:
        raise argparse.ArgumentTypeError(
            f"curves must be a comma-separated subset of a,b,c,d, got {text!r}"
        )
    return tuple(letter for letter in "abcd" if letter in letters)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default: csv for tables, json for reports)")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--seed", type=_seed_type, default=None, help="RNG seed (u64)")

    parser = argparse.ArgumentParser(
        prog="relangle",
        description="Estimation of the relative angle between two spin systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probs", parents=[common],
                       help="outcome probabilities of the total-spin measurement")
    p.add_argument("--j1", type=_spin_type, required=True)
    p.add_argument("--j2", type=_spin_type, required=True)
    p.add_argument("--alpha", type=_alpha_type, default=None,
                   help="single relative angle instead of the default 181-point grid")

    p = sub.add_parser("report", parents=[common],
                       help="posteriors and information gains for one scenario")
    p.add_argument("--j1", type=_spin_type, required=True)
    p.add_argument("--j2", type=_spin_type, required=True)
    p.add_argument("--prior", choices=("pap", "uniform"), required=True)
    p.add_argument("--povm", choices=("optimal", "local"), required=True)

    p = sub.add_parser("curve", parents=[common],
                       help="average information gain versus j for a spin-1/2 probe")
    p.add_argument("--j-min", type=_spin_type, default=SpinQuantumNumber(1))
    p.add_argument("--j-max", type=_spin_type, default=SpinQuantumNumber(20))
    p.add_argument("--j-step", type=_spin_type, default=SpinQuantumNumber(1))
    p.add_argument("--curves", type=_curves_type, default=("a", "b", "c", "d"),
                   help="comma-separated subset of a,b,c,d "
                        "(a: pap/optimal, b: pap/local, c: uniform/optimal, d: uniform/local)")

    p = sub.add_parser("ppt", parents=[common],
                       help="separability threshold of the two-outcome invariant POVM")
    p.add_argument("--j", type=_spin_type, required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo repetition of the single-shot experiment")
    p.add_argument("--j1", type=_spin_type, required=True)
    p.add_argument("--j2", type=_spin_type, required=True)
    p.add_argument("--prior", choices=("pap", "uniform"), required=True)
    p.add_argument("--povm", choices=("optimal", "local"), default="optimal")
    p.add_argument("--n", type=_trials_type, default=100_000, help="number of trials")

    return parser


@dataclass(frozen=True)
class ScenarioConfig:
    """Canonical form of a parsed command line."""

    command: str
    j1: SpinQuantumNumber | None = None
    j2: SpinQuantumNumber | None = None
    j: SpinQuantumNumber | None = None
    prior: str | None = None
    povm: str | None = None
    alpha: float | None = None
    j_min: SpinQuantumNumber | None = None
    j_max: SpinQuantumNumber | None = None
    j_step: SpinQuantumNumber | None = None
    curves: tuple[str, ...] | None = None
    n_trials: int | None = None
    seed: int | None = None
    fmt: str | None = None
    out: str | None = None

    @classmethod
    def from_namespace(cls, ns: argparse.Namespace) -> "ScenarioConfig":
        get = lambda name: getattr(ns, name, None)
        return cls(
            command=ns.command,
            j1=get("j1"),
            j2=get("j2"),
            j=get("j"),
            prior=get("prior"),
            povm=get("povm"),
            alpha=get("alpha"),
            j_min=get("j_min"),
            j_max=get("j_max"),
            j_step=get("j_step"),
            curves=get("curves"),
            n_trials=get("n"),
            seed=get("seed"),
            fmt=get("format"),
            out=get("out"),
        )

    @classmethod
    def from_args(cls, argv) -> "ScenarioConfig":
        return cls.from_namespace(_build_parser().parse_args(argv))

    def to_args(self) -> list[str]:
        """Canonical argument list; parsing it reproduces this config."""
        args = [self.command]
        if self.j1 is not None:
            args += ["--j1", str(self.j1)]
        if self.j2 is not None:
            args += ["--j2", str(self.j2)]
        if self.j is not None:
            args += ["--j", str(self.j)]
        if self.prior is not None:
            args += ["--prior", self.prior]
        if self.povm is not None:
            args += ["--povm", self.povm]
        if self.alpha is not None:
            args += ["--alpha", repr(self.alpha)]
        if self.j_min is not None:
            args += ["--j-min", str(self.j_min)]
        if self.j_max is not None:
            args += ["--j-max", str(self.j_max)]
        if self.j_step is not None:
            args += ["--j-step", str(self.j_step)]
        if self.curves is not None:
            args += ["--curves", ",".join(self.curves)]
        if self.n_trials is not None:
            args += ["--n", str(self.n_trials)]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        if self.fmt is not None:
            args += ["--format", self.fmt]
        if self.out is not None:
            args += ["--out", self.out]
        return args


def _sig10(x: float) -> float:
    """Round to 10 significant digits for stable printed output."""
    return float(f"{float(x):.10g}")


def _csv(x: float) -> str:
    return f"{float(x):.12g}"


def _json_text(payload: dict) -> str:
    return json.dumps(payload) + "\n"


def _resolve_format(cfg: ScenarioConfig, default: str, allowed: tuple[str, ...]) -> str:
    fmt = cfg.fmt or default
    if fmt not in allowed:
        raise UsageError(f"command {cfg.command!r} supports only --format {'/'.join(allowed)}")
    return fmt


def _make_prior(name: str):
    return parallel_antiparallel_prior() if name == "pap" else uniform_direction_prior()


def _make_povm(cfg: ScenarioConfig) -> RotInvariantPovm:
    if cfg.povm == "optimal":
        return RotInvariantPovm.projective(cfg.j1, cfg.j2)
    if cfg.j1 != SpinQuantumNumber(1):
        raise UsageError("--povm local requires --j1 1/2")
    return optimal_local_povm(cfg.j2)


def _cmd_probs(cfg: ScenarioConfig) -> str:
    fmt = _resolve_format(cfg, "csv", ("csv", "json"))
    if cfg.alpha is not None:
        grid = [cfg.alpha]
    else:
        grid = np.linspace(0.0, math.pi, DEFAULT_ALPHA_GRID_POINTS).tolist()
    probabilities = _block_probability_matrix(cfg.j1, cfg.j2, np.array(grid)).T.tolist()
    labels = [str(J) for J in total_j_values(cfg.j1, cfg.j2)]
    rows = [
        (alpha, J, p)
        for alpha, column in zip(grid, probabilities)
        for J, p in zip(labels, column)
    ]
    if fmt == "csv":
        lines = ["alpha,J,probability"]
        lines += [f"{_csv(alpha)},{J},{_csv(p)}" for alpha, J, p in rows]
        return "\n".join(lines) + "\n"
    return _json_text(
        {
            "schema": SCHEMA_VERSION,
            "command": "probs",
            "j1": str(cfg.j1),
            "j2": str(cfg.j2),
            "rows": [
                {"alpha": _sig10(alpha), "J": J, "probability": _sig10(p)}
                for alpha, J, p in rows
            ],
        }
    )


def _serialize_posterior(posterior) -> dict | None:
    if posterior is None:
        return None
    if isinstance(posterior, DiscreteAngleDistribution):
        return {
            "type": "discrete",
            "support": [
                {"alpha": _sig10(a), "weight": _sig10(w)}
                for a, w in zip(posterior.alphas, posterior.weights)
            ],
        }
    grid = np.linspace(0.0, math.pi, DEFAULT_ALPHA_GRID_POINTS)
    values = posterior.pdf(grid)
    return {
        "type": "density",
        "alpha": [_sig10(a) for a in grid],
        "density": [_sig10(v) for v in values],
    }


def _cmd_report(cfg: ScenarioConfig) -> str:
    _resolve_format(cfg, "json", ("json",))
    report = average_information_gain(cfg.j1, cfg.j2, _make_prior(cfg.prior), _make_povm(cfg))
    return _json_text(
        {
            "schema": SCHEMA_VERSION,
            "command": "report",
            "j1": str(cfg.j1),
            "j2": str(cfg.j2),
            "prior": cfg.prior,
            "povm": cfg.povm,
            "outcomes": [
                {
                    "label": entry.label,
                    "p": _sig10(entry.probability),
                    "I_bits": _sig10(entry.information_gain_bits),
                    "posterior": _serialize_posterior(entry.posterior),
                }
                for entry in report.outcomes
            ],
            "I_av_bits": _sig10(report.average_gain_bits),
        }
    )


def _cmd_curve(cfg: ScenarioConfig) -> str:
    fmt = _resolve_format(cfg, "csv", ("csv", "json"))
    if cfg.j_step.twice_j == 0:
        raise UsageError("--j-step must be positive")
    twice_values = range(cfg.j_min.twice_j, cfg.j_max.twice_j + 1, cfg.j_step.twice_j)
    j_list = [SpinQuantumNumber(tj) for tj in twice_values]
    if not j_list:
        raise UsageError("empty j range")
    rows = []
    for letter in cfg.curves:
        prior_kind, povm_kind = CURVE_SCENARIOS[letter]
        for j, gain in infogain_curve(j_list, prior_kind, povm_kind):
            rows.append((str(j), gain, letter))
    if fmt == "csv":
        lines = ["j,I_av_bits,scenario"]
        lines += [f"{j},{_csv(gain)},{letter}" for j, gain, letter in rows]
        return "\n".join(lines) + "\n"
    return _json_text(
        {
            "schema": SCHEMA_VERSION,
            "command": "curve",
            "rows": [
                {"j": j, "I_av_bits": _sig10(gain), "scenario": letter}
                for j, gain, letter in rows
            ],
        }
    )


def _cmd_ppt(cfg: ScenarioConfig) -> str:
    _resolve_format(cfg, "json", ("json",))
    if cfg.j.twice_j > 10:
        raise CapacityError("ppt supports j up to 5 on the dense path")
    x_star = ppt_threshold(cfg.j)
    predicted = 1.0 / (cfg.j.twice_j + 2.0)
    return _json_text(
        {
            "schema": SCHEMA_VERSION,
            "command": "ppt",
            "j": str(cfg.j),
            "x_star": _sig10(x_star),
            "predicted": _sig10(predicted),
            "abs_diff": _sig10(abs(x_star - predicted)),
        }
    )


def _cmd_simulate(cfg: ScenarioConfig) -> str:
    _resolve_format(cfg, "json", ("json",))
    seed = cfg.seed if cfg.seed is not None else 0
    summary = run_experiment(
        cfg.j1, cfg.j2, _make_prior(cfg.prior), _make_povm(cfg), cfg.n_trials, seed
    )
    return _json_text(
        {
            "schema": SCHEMA_VERSION,
            "command": "simulate",
            "j1": str(cfg.j1),
            "j2": str(cfg.j2),
            "prior": cfg.prior,
            "povm": cfg.povm,
            "n_trials": summary.n_trials,
            "seed": seed,
            "outcomes": [
                {
                    "label": label,
                    "frequency": _sig10(freq),
                    "frequency_se": _sig10(se),
                    "analytic_p": _sig10(p),
                }
                for label, freq, se, p in zip(
                    summary.labels,
                    summary.frequencies,
                    summary.frequency_standard_errors,
                    summary.analytic_probabilities,
                )
            ],
            "mean_gain_bits": _sig10(summary.mean_gain_bits),
            "gain_se_bits": _sig10(summary.gain_standard_error_bits),
            "analytic_I_av_bits": _sig10(summary.analytic_average_gain_bits),
        }
    )


_DISPATCH = {
    "probs": _cmd_probs,
    "report": _cmd_report,
    "curve": _cmd_curve,
    "ppt": _cmd_ppt,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    config = ScenarioConfig.from_namespace(namespace)
    try:
        text = _DISPATCH[config.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # domain and capacity errors are configuration errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.out:
        with open(config.out, "w", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
