"""Command-line front end.

Subcommands: ``probs`` (outcome probability tables), ``report`` (full
estimation report), ``curve`` (average information gain versus j),
``ppt`` (separability threshold), and ``simulate`` (Monte Carlo experiment).
Data goes to stdout (or ``--out``); diagnostics go to stderr.  Exit codes:
0 success, 2 usage or configuration error, 1 internal-consistency error.  One table,
``_FLAGS``, declares each command's flags, each flag once.  A line made only of a command and
exact ``--flag value`` pairs is read from that table; the full argparse parser, built from the
same table, serves help, errors and every other form, such as ``--flag=value``, an
abbreviation or a value starting with "-".  ``_json_text`` writes every JSON header.

Long float arrays are written whole, not number by number: ``probs`` CSV is one
%-format per grid, ``curve`` CSV one %-format for all its scenarios, and each
JSON row of floats (``curve`` JSON, the grid labels, each density posterior of
``report``) one %-format of the row by ``_json_rows``.  That writer classifies
the values in numpy and writes only the odd ones (zeros, near-integers,
non-finite, huge or tiny values) number by number, not their whole row.  ``report`` is
one ``_gains`` fold over its pair, as ``curve`` and ``simulate`` are: the
posteriors are checked once, as a stack, and no posterior object is built.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from .angular import SpinQuantumNumber, _brief, _shown, _spin_label, _spin_value, spin
from .coupling import _total_spin_labels
from .errors import CapacityError, ConsistencyError
from .estimation import (
    DiscreteAngleDistribution,
    _block_probability_matrix,
    _check_coefficients,
    _checked_weights,
    _curve_averages,
    _density_values,
    _gains,
    _make_povm,
    _make_prior,
    _stacked,
)
from .locc import ppt_threshold
from .sim import MAX_TRIALS, run_experiment

__all__ = ["main"]

SCHEMA_VERSION = 1
DEFAULT_ALPHA_GRID_POINTS = 181

# Most values of j that one ``curve`` run evaluates: all four scenarios at this limit
# take about 1 s and 80 MB peak RSS as CSV (two-core x86-64), about 0.4 KB per value.
CURVE_MAX_POINTS = 100_000

# Fig-style curve letters: (prior kind, POVM kind)
CURVE_SCENARIOS = {
    "a": ("parallel-antiparallel", "optimal"),
    "b": ("parallel-antiparallel", "optimal-local"),
    "c": ("uniform-directions", "optimal"),
    "d": ("uniform-directions", "optimal-local"),
}

# --prior and --povm names for the kinds in PRIOR_KINDS and POVM_KINDS
_KINDS = {
    "pap": "parallel-antiparallel",
    "uniform": "uniform-directions",
    "optimal": "optimal",
    "local": "optimal-local",
}


def _spin_type(text: str) -> SpinQuantumNumber:
    """A spin of at least 1/2: the text is read by ``angular._spin_value``, a zero or negative
    spin is refused in terms of the spin, and the rest is left to ``spin``."""
    try:
        value = _spin_value(text)
        if value <= 0:
            raise ValueError(f"spin must be at least 1/2, got {_brief(value)}")
        return spin(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _alpha_type(text: str) -> float:
    """Angle in radians; accepts plain floats, 'pi', 'pi/k', and 'xpi'."""
    cleaned = text.strip().lower()
    try:
        if cleaned.startswith("pi/"):
            value = math.pi / float(cleaned[3:])
        elif cleaned.endswith("pi"):
            value = float(cleaned[:-2] or 1.0) * math.pi  # 'pi' alone is 1 pi
        else:
            value = float(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse angle {_shown(text)}") from exc
    return value + 0.0  # -0.0 + 0.0 is 0.0, so no output labels the angle "-0"


def _seed_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {_shown(text)}") from exc
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _trials_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"n must be an integer, got {_shown(text)}") from exc
    if not 1 <= value <= MAX_TRIALS:
        raise argparse.ArgumentTypeError(f"n must lie in [1, 2**53], got {_brief(value)}")
    return value


def _curves_type(text: str) -> tuple[str, ...]:
    letters = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [letter for letter in letters if letter not in CURVE_SCENARIOS]
    if unknown or not letters:
        raise argparse.ArgumentTypeError(
            f"curves must be a comma-separated subset of a,b,c,d, got {_shown(text)}"
        )
    return tuple(letter for letter in "abcd" if letter in letters)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose own errors quote the arguments through ``_shown``: an invalid
    choice, an ambiguous option, and the unrecognized arguments, as one text."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {_shown(value)} "
                                                 f"(choose from {choices})")

    def _get_option_tuples(self, option_string):  # more than one match is ambiguous
        matches = super()._get_option_tuples(option_string)
        if len(matches) > 1:
            options = ", ".join(match[1] for match in matches)
            raise argparse.ArgumentError(None, f"ambiguous option: {_shown(option_string)} "
                                               f"could match {options}")
        return matches

    def parse_args(self, args=None, namespace=None):
        parsed, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {_shown(' '.join(extras))}")
        return parsed


# Each command's line in the top-level help, in the order that help lists them
_COMMAND_HELP = {
    "probs": "outcome probabilities of the total-spin measurement",
    "report": "posteriors and information gains for one scenario",
    "curve": "average information gain versus j for a spin-1/2 probe",
    "ppt": "separability threshold of the two-outcome invariant POVM",
    "simulate": "Monte Carlo repetition of the single-shot experiment",
}

# The flags that more than one command reads
_OUT = ("--out", dict(default=None, help="output path (default: stdout)"))
_FORMAT = ("--format", dict(choices=("csv", "json"), default="csv",
                            help="output format (default: csv)"))
_J1 = ("--j1", dict(type=_spin_type, required=True))
_J2 = ("--j2", dict(type=_spin_type, required=True))
_PRIOR = ("--prior", dict(choices=("pap", "uniform"), required=True))

# Each command's flags, in its usage order, as (flag, add_argument keywords): the one place a
# flag is declared.  Shared flags come first: --out, --format, --j1/--j2, --prior.
_FLAGS = {
    "probs": dict([
        _OUT, _FORMAT, _J1, _J2,
        ("--alpha", dict(type=_alpha_type, default=None,
                         help="single relative angle instead of the default 181-point grid")),
    ]),
    "report": dict([
        _OUT, _J1, _J2, _PRIOR,
        ("--povm", dict(choices=("optimal", "local"), required=True)),
    ]),
    "curve": dict([
        _OUT, _FORMAT,
        ("--j-min", dict(type=_spin_type, default=SpinQuantumNumber(1))),
        ("--j-max", dict(type=_spin_type, default=SpinQuantumNumber(20))),
        ("--j-step", dict(type=_spin_type, default=SpinQuantumNumber(1),
                          help="must land on --j-max, unless it is longer than the whole range, "
                               "which gives --j-min alone")),
        ("--curves", dict(type=_curves_type, default=("a", "b", "c", "d"),
                          help="comma-separated subset of a,b,c,d (a: pap/optimal, "
                               "b: pap/local, c: uniform/optimal, d: uniform/local)")),
    ]),
    "ppt": dict([
        _OUT,
        ("--j", dict(type=_spin_type, required=True)),
    ]),
    "simulate": dict([
        _OUT, _J1, _J2, _PRIOR,
        ("--povm", dict(choices=("optimal", "local"), default="optimal")),
        ("--n", dict(type=_trials_type, default=100_000, help="number of trials")),
        ("--seed", dict(type=_seed_type, default=0, help="RNG seed (u64, default: 0)")),
    ]),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The full argparse tree, built from ``_FLAGS`` on first use and reused: for help, errors
    and every line that ``_parse`` does not read itself."""
    parser = _Parser(prog="relangle",
                     description="Estimation of the relative angle between two spin systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _FLAGS.items():
        command = sub.add_parser(name, help=_COMMAND_HELP[name])
        for flag, keywords in flags.items():
            command.add_argument(flag, **keywords)
    return parser


def _read(argv: list) -> argparse.Namespace | None:
    """The Namespace that the full parser gives for a command followed only by exact
    ``--flag value`` pairs of its own, none of whose values starts with "-", read from
    ``_FLAGS``: each value through its flag's type and choices, as argparse reads it, then the
    defaults.  None for any other line, and for a value or a missing flag that argparse
    refuses."""
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None or len(argv) % 2 == 0:
        return None
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):  # a repeated flag keeps its last value
        keywords = flags.get(flag)
        if keywords is None or text.startswith("-"):
            return None
        try:
            value = keywords["type"](text) if "type" in keywords else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value
    if any(keywords.get("required") and flag not in given for flag, keywords in flags.items()):
        return None
    return argparse.Namespace(command=argv[0], **{
        flag[2:].replace("-", "_"): given.get(flag, keywords.get("default"))
        for flag, keywords in flags.items()})


def _parse(argv: list) -> argparse.Namespace:
    """A line that ``_read`` reads from the flag table is parsed there; the full parser
    parses every other, and writes its usage, help and errors."""
    args = _read(argv)
    return _build_parser().parse_args(argv) if args is None else args


def _sig10(x: float) -> float:
    """Round to 10 significant digits for stable printed output."""
    return float(f"{float(x):.10g}")


def _csv(x: float) -> str:
    return f"{float(x):.12g}"


def _json_rows(values: np.ndarray) -> list[str]:
    """json.dumps([_sig10(v) for v in row]) for each row of a 2-D float array, from one
    %-format of the row.  Its field for a value v is "%.10g", the JSON text of _sig10(v),
    unless v is odd: 0, non-finite, |v| >= 1e9 (its text may take "e+"), |v| < 1e-300 (the
    shortest repr of a subnormal can have fewer digits) or within 1e-9 of a nonzero integer,
    relative (its text may be an integer token, which lacks ".0").  An odd value whose text
    is an integer token takes the field "%.10g.0", any other "%s" and its per-number text."""
    magnitude, nearest = np.abs(values), np.rint(values)
    with np.errstate(invalid="ignore"):  # inf - inf
        odd = ~((magnitude >= 1e-300) & (magnitude < 1e9)) | (
            (nearest != 0.0) & (np.abs(values - nearest) <= 1e-9 * np.abs(nearest)))
    rows = values.tolist()
    fields = [["%.10g"] * values.shape[1] for _ in rows]
    for r, c in zip(*(index.tolist() for index in np.nonzero(odd))):
        value = rows[r][c]
        if ("%.10g" % value).lstrip("-").isdigit():
            fields[r][c] = "%.10g.0"
        else:
            fields[r][c], rows[r][c] = "%s", json.dumps(_sig10(value))
    return [("[" + ", ".join(row_fields) + "]") % tuple(row) for row_fields, row in zip(fields, rows)]


# A field value whose JSON text is given to _json_text ready-made; json.dumps writes it
# as _RAW_TEXT, which no other text of a command's output contains.
_RAW = "\0"
_RAW_TEXT = json.dumps(_RAW)


def _json_text(args: argparse.Namespace, raw_texts=(), **fields) -> str:
    """The command's JSON line: schema, command, each of the spins and scenario flags that
    the command takes, as text, then its own fields, where each _RAW stands for the next
    of the ready-made JSON texts ``raw_texts``."""
    given = vars(args)
    header = {"schema": SCHEMA_VERSION, "command": args.command}
    header.update((name, str(given[name])) for name in ("j1", "j2", "j", "prior", "povm")
                  if name in given)
    pieces = json.dumps({**header, **fields}).split(_RAW_TEXT)
    return "".join([text for pair in zip(pieces, [*raw_texts, "\n"]) for text in pair])


@functools.cache
def _density_grid() -> tuple:
    """The default angle grid, read-only, its printed labels as one JSON text, and its
    angles as CSV fields."""
    grid = np.linspace(0.0, math.pi, DEFAULT_ALPHA_GRID_POINTS)
    grid.setflags(write=False)
    angles = ",".join(["%.12g"] * grid.size) % tuple(grid.tolist())  # _csv of each angle
    return grid, _json_rows(grid[None])[0], tuple(angles.split(","))


def _scenario(args: argparse.Namespace) -> tuple:
    """The prior and the POVM named by --prior and --povm."""
    return _make_prior(_KINDS[args.prior]), _make_povm(_KINDS[args.povm], args.j1, args.j2)


def _cmd_probs(args: argparse.Namespace) -> str:
    labels = _total_spin_labels(args.j1.twice_j, args.j2.twice_j)
    grid = _density_grid()[0] if args.alpha is None else np.array([args.alpha])
    probabilities = _block_probability_matrix(args.j1, args.j2, grid).T
    if args.format == "csv":
        alphas = _density_grid()[2] if args.alpha is None else [_csv(args.alpha)]
        fields = [f",{J},%.12g\n" for J in labels]
        # each angle's lines: the angle before each of the fields
        template = "".join(alpha + alpha.join(fields) for alpha in alphas)
        return "alpha,J,probability\n" + template % tuple(probabilities.ravel().tolist())
    probabilities = probabilities.tolist()
    return _json_text(args, rows=[
        {"alpha": _sig10(alpha), "J": J, "probability": _sig10(p)}
        for alpha, column in zip(grid.tolist(), probabilities)
        for J, p in zip(labels, column)
    ])


def _cmd_report(args: argparse.Namespace) -> str:
    """One ``_gains`` fold over the pair.  The posteriors of the outcomes that can occur are
    checked as a stack, as their objects' constructors would check them (ConsistencyError);
    a density's grid labels and values are _RAW, all its densities evaluated at once."""
    prior, povm = _scenario(args)
    probabilities, posteriors, gains, average = _gains(prior, *_stacked(povm))
    possible = probabilities[0] > 0.0
    rows = posteriors[0][possible]
    texts = []
    if isinstance(prior, DiscreteAngleDistribution):
        alphas = [_sig10(a) for a in prior.alphas.tolist()]
        shown = [{"type": "discrete", "support": [{"alpha": a, "weight": _sig10(w)}
                                                  for a, w in zip(alphas, weights)]}
                 for weights in _checked_weights(rows, ConsistencyError).tolist()]
    else:
        _check_coefficients(rows, ConsistencyError)
        grid, labels, _ = _density_grid()
        shown = [{"type": "density", "alpha": _RAW, "density": _RAW}] * len(rows)
        for density in _json_rows(_density_values(rows, grid)):
            texts += [labels, density]
    posterior = iter(shown)
    outcomes = [{"label": label, "p": _sig10(p), "I_bits": _sig10(gain),
                 "posterior": next(posterior) if p > 0.0 else None}
                for label, p, gain in zip(povm.labels, probabilities[0].tolist(),
                                          gains[0].tolist())]
    return _json_text(args, texts, outcomes=outcomes, I_av_bits=_sig10(average[0]))


def _cmd_curve(args: argparse.Namespace) -> str:
    start, stop, step = args.j_min.twice_j, args.j_max.twice_j, args.j_step.twice_j
    if stop < start:
        raise ValueError("empty j range")
    steps, rest = divmod(stop - start, step)  # counted, not len(range): 2j may pass 2**63
    if steps and rest:
        raise ValueError(
            f"--j-step {_brief(args.j_step)} from --j-min {_brief(args.j_min)} skips past "
            f"--j-max {_brief(args.j_max)} (the last j would be "
            f"{_brief(SpinQuantumNumber(stop - rest))})"
        )
    if steps >= CURVE_MAX_POINTS:
        raise CapacityError(f"the j range has {_brief(steps + 1)} values, past the limit "
                            f"of {CURVE_MAX_POINTS}")
    twice_values = range(start, stop + 1, step)
    averages = _curve_averages(twice_values, [CURVE_SCENARIOS[letter] for letter in args.curves])
    labels = list(map(_spin_label, twice_values))
    if args.format == "csv":
        # each scenario's lines: its field after each of the labels
        template = "".join(sep.join(labels) + sep for sep in
                           (f",%.12g,{letter}\n" for letter in args.curves))
        return "j,I_av_bits,scenario\n" + template % tuple(averages.ravel().tolist())
    # each scenario's rows: its fields after each of the labels, filled by one _json_rows row
    rows = ", ".join('{"j": "' + (fields + ', {"j": "').join(labels) + fields for fields in
                     (f'", "I_av_bits": %s, "scenario": "{letter}"}}' for letter in args.curves))
    values = tuple(_json_rows(averages.reshape(1, -1))[0][1:-1].split(", "))
    return _json_text(args, [f"[{rows}]" % values], rows=_RAW)


def _cmd_ppt(args: argparse.Namespace) -> str:
    x_star = ppt_threshold(args.j)
    predicted = 1.0 / (args.j.twice_j + 2.0)
    return _json_text(args, x_star=_sig10(x_star), predicted=_sig10(predicted),
                      abs_diff=_sig10(abs(x_star - predicted)))


def _cmd_simulate(args: argparse.Namespace) -> str:
    summary = run_experiment(*_scenario(args), args.n, args.seed)
    outcomes = [
        {"label": label, "frequency": _sig10(freq), "frequency_se": _sig10(se),
         "analytic_p": _sig10(p)}
        for label, freq, se, p in zip(summary.labels, summary.frequencies,
                                      summary.frequency_standard_errors,
                                      summary.analytic_probabilities)
    ]
    return _json_text(args, n_trials=summary.n_trials, seed=args.seed, outcomes=outcomes,
                      mean_gain_bits=_sig10(summary.mean_gain_bits),
                      gain_se_bits=_sig10(summary.gain_standard_error_bits),
                      analytic_I_av_bits=_sig10(summary.analytic_average_gain_bits))


_DISPATCH = {
    "probs": _cmd_probs,
    "report": _cmd_report,
    "curve": _cmd_curve,
    "ppt": _cmd_ppt,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        text = _DISPATCH[args.command](args)
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # domain and capacity errors are configuration errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
