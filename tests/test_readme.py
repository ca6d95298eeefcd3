"""README's numbers, recomputed: the quick-start block's printed values, the table of joint
and local average gains, and the singlet gain of acceptance criterion 2; and each of its
command-line examples exits 0."""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

from relangle import (
    RotInvariantPovm,
    average_information_gain,
    spin,
    uniform_direction_prior,
)
from relangle.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# "| 1/2, 2   | 0.1788800384     | 0.1123650777   |": the pair, then the optimal and local gains
GAIN_ROWS = re.findall(r"^\| ([\d/]+), ([\d/]+) +\| ([\d.]+) +\| ([\d.]+) +\|$", README, re.M)

# each line of README's shell examples that runs relangle, split as a shell would split it
# (no argument is quoted)
CLI_EXAMPLES = [line.split()[1:] for block in re.findall(r"```sh\n(.*?)```", README, re.S)
                for line in block.splitlines() if line.startswith("relangle ")]


def run(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_gain_entry_and_example_is_found():
    assert 2 * len(GAIN_ROWS) == 14 and len(CLI_EXAMPLES) == 8


def test_quick_start_prints_its_commented_values():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    # each print's comment starts with the value it prints, "..." where the digits go on
    expected = re.findall(r"^print\(.*\) +# ([\d.]+?)(\.\.\.)?(?: |$)", block, re.M)
    assert [value for value, _ in expected] == ["0.311278", "0.25"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for line, (value, more) in zip(printed, expected):
        assert line.startswith(value) if more else float(line) == float(value)


@pytest.mark.parametrize("povm", ["optimal", "local"])
@pytest.mark.parametrize(("j1", "j2", "optimal", "local"), GAIN_ROWS,
                         ids=[f"{j1},{j2}" for j1, j2, *_ in GAIN_ROWS])
def test_gain_table_entry_is_the_report_average(j1, j2, optimal, local, povm):
    code, out, _ = run(["report", "--j1", j1, "--j2", j2, "--prior", "uniform", "--povm", povm])
    assert code == 0
    assert json.loads(out)["I_av_bits"] == float(optimal if povm == "optimal" else local)


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=" ".join)
def test_cli_example_exits_0(argv):
    code, out, err = run(argv)
    assert (code, err) == (0, "") and out


def test_criterion_2_singlet_gain():
    (printed,) = re.findall(r"`1 - 1/\(2 ln 2\) = ([\d.]+?)\.\.\.`", README)
    assert printed == "0.27865247955"
    half = spin("1/2")
    report = average_information_gain(uniform_direction_prior(),
                                      RotInvariantPovm.projective(half, half))
    for value in (report.outcome("J=0").information_gain_bits, 1.0 - 1.0 / (2.0 * math.log(2.0))):
        assert f"{value:.16f}".startswith(printed)
