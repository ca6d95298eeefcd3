import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import relangle.estimation as estimation_module
import relangle.sim as sim_module
import relangle.cli as cli_module
from relangle import (
    DiscreteAngleDistribution,
    SpinQuantumNumber,
    average_information_gain,
    infogain_curve,
    parallel_antiparallel_prior,
    total_j_values,
    uniform_direction_prior,
)
from relangle.cli import (
    CURVE_MAX_POINTS,
    CURVE_SCENARIOS,
    _build_parser,
    _csv,
    _density_grid,
    _json_rows,
    _sig10,
    _trials_type,
    main,
)
from relangle.estimation import (
    AngleDensity,
    RotInvariantPovm,
    _block_probability_matrix,
    _density_values,
    _make_povm,
)
from relangle.locc import PPT_TWICE_J_LIMIT
from relangle.sim import MAX_TRIALS


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestProbs:
    def test_antiparallel_singlet_probability(self, capsys):
        code, out, err = run_cli(capsys, "probs", "--j1", "1/2", "--j2", "1/2", "--alpha", "pi")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["alpha", "J", "probability"]
        singlet = [row for row in rows if row[1] == "0"]
        assert len(singlet) == 1
        assert abs(float(singlet[0][2]) - 0.5) < 1e-12

    def test_aligned_top_block(self, capsys):
        code, out, _ = run_cli(capsys, "probs", "--j1", "1/2", "--j2", "1/2", "--alpha", "0")
        assert code == 0
        _, rows = parse_csv(out)
        values = {row[1]: float(row[2]) for row in rows}
        assert values["1"] == 1.0
        assert values["0"] == 0.0

    def test_general_pair_rows_sum_to_one(self, capsys):
        code, out, _ = run_cli(capsys, "probs", "--j1", "1", "--j2", "3/2", "--alpha", "1.0")
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(sum(float(row[2]) for row in rows) - 1.0) < 1e-12

    def test_default_grid_size(self, capsys):
        code, out, _ = run_cli(capsys, "probs", "--j1", "1/2", "--j2", "1/2")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 181 * 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "probs", "--j1", "1/2", "--j2", "1", "--alpha", "pi/2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["j2"] == "1"
        assert abs(sum(row["probability"] for row in payload["rows"]) - 1.0) < 1e-9

    def test_pair_above_dense_cap(self, capsys):
        code, out, _ = run_cli(capsys, "probs", "--j1", "50", "--j2", "400", "--alpha", "pi/3")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 101
        assert abs(sum(float(row[2]) for row in rows) - 1.0) < 1e-10

    @pytest.mark.parametrize(
        "args",
        [
            ("probs", "--alpha", "pi/3"),
            ("report", "--prior", "pap", "--povm", "optimal"),
        ],
    )
    def test_past_kernel_limit_exits_2_before_building(self, capsys, args):
        # one step past 2 min(j1, j2) <= 200: refused before the exact table is built
        cached = estimation_module._table_stack.cache_info().currsize
        started = time.perf_counter()
        code, out, err = run_cli(capsys, args[0], "--j1", "201/2", "--j2", "800", *args[1:])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert "2*min(j1, j2) <= 200" in err
        assert estimation_module._table_stack.cache_info().currsize == cached

    def test_nan_angle_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "probs", "--j1", "1", "--j2", "1", "--alpha", "nan")
        assert code == 2
        assert out == ""
        assert "relative angles must lie in [0, pi]" in err

    @pytest.mark.parametrize("alpha", ["0", "pi", "3.1415926540", "-1e-10"])
    def test_angles_at_the_ends_exit_0(self, capsys, alpha):
        # 3.1415926540 and -1e-10 lie inside the kernel's 1e-9 slack around [0, pi];
        # a negative angle must be joined to its flag with "="
        code, out, _ = run_cli(capsys, "probs", "--j1", "1", "--j2", "3/2", f"--alpha={alpha}")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        assert abs(sum(float(row[2]) for row in rows) - 1.0) < 1e-11  # 12 printed digits

    @pytest.mark.parametrize("alpha", ["-0", "-0.0", "-0pi", "-1e-400"])
    def test_negative_zero_prints_as_zero(self, capsys, alpha):
        expected_csv = run_cli(capsys, "probs", "--j1", "1", "--j2", "3/2", "--alpha=0")[1]
        expected_json = run_cli(capsys, "probs", "--j1", "1", "--j2", "3/2", "--alpha=0",
                                "--format", "json")[1]
        code, out, _ = run_cli(capsys, "probs", "--j1", "1", "--j2", "3/2", f"--alpha={alpha}")
        assert (code, out) == (0, expected_csv)
        assert [row[0] for row in parse_csv(out)[1]] == ["0", "0", "0"]
        code, out, _ = run_cli(capsys, "probs", "--j1", "1", "--j2", "3/2", f"--alpha={alpha}",
                               "--format", "json")
        assert (code, out) == (0, expected_json)
        assert [row["alpha"] for row in json.loads(out)["rows"]] == [0.0, 0.0, 0.0]
        assert '"alpha": -0' not in out

    @pytest.mark.parametrize("alpha", ["3.14159266", "-2e-9", "inf"])
    def test_angles_past_the_slack_exit_2(self, capsys, alpha):
        code, out, err = run_cli(capsys, "probs", "--j1", "1", "--j2", "3/2", f"--alpha={alpha}")
        assert code == 2
        assert out == ""
        assert "relative angles must lie in [0, pi]" in err

    def test_negative_angle_as_separate_argument_is_read_as_a_flag(self, capsys):
        code, out, err = run_cli(capsys, "probs", "--j1", "1", "--j2", "3/2", "--alpha", "-1e-10")
        assert code == 2
        assert out == ""
        assert "--alpha: expected one argument" in err

    def test_invalid_spin_exits_2_and_names_field(self, capsys):
        code, out, err = run_cli(capsys, "probs", "--j1", "abc", "--j2", "1/2")
        assert code == 2
        assert out == ""
        assert "--j1" in err


class TestReport:
    def test_pap_optimal(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--j1", "1/2", "--j2", "1/2", "--prior", "pap", "--povm", "optimal"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["I_av_bits"] - 0.3112781245) < 1e-9
        by_label = {entry["label"]: entry for entry in payload["outcomes"]}
        assert abs(by_label["J=0"]["p"] - 0.25) < 1e-9
        assert abs(by_label["J=0"]["I_bits"] - 1.0) < 1e-9
        support = by_label["J=1"]["posterior"]["support"]
        assert abs(support[0]["weight"] - 2.0 / 3.0) < 1e-9

    def test_pap_local(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--j1", "1/2", "--j2", "1/2", "--prior", "pap", "--povm", "local"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["I_av_bits"] - 0.0817041659) < 1e-8

    def test_uniform_local(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--j1", "1/2", "--j2", "1/2", "--prior", "uniform", "--povm", "local"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["I_av_bits"] - 0.02702331217) < 1e-8
        density = {entry["label"]: entry for entry in payload["outcomes"]}
        assert density["aligned"]["posterior"]["type"] == "density"

    def test_local_on_a_spin_one_probe(self, capsys):
        # the pair once refused for want of a spin-1/2 probe
        code, out, _ = run_cli(
            capsys, "report", "--j1", "1", "--j2", "1", "--prior", "pap", "--povm", "local"
        )
        assert code == 0
        expected = average_information_gain(1, 1, parallel_antiparallel_prior(),
                                            _make_povm("optimal-local", 1, 1))
        payload = json.loads(out)
        assert [entry["label"] for entry in payload["outcomes"]] == ["aligned", "m=0", "antialigned"]
        assert payload["I_av_bits"] == _sig10(expected.average_gain_bits)

    # joint-versus-local gains under the uniform prior, to six digits: the local column
    @pytest.mark.parametrize(("j1", "j2", "gain"), [
        ("1", "1", 0.094726), ("1", "4", 0.266390), ("2", "2", 0.244836), ("2", "4", 0.383201),
        ("3", "3", 0.378457), ("7/2", "7/2", 0.438039), ("4", "4", 0.493368),
    ])
    def test_local_gain_on_general_pairs(self, capsys, j1, j2, gain):
        code, out, _ = run_cli(
            capsys, "report", "--j1", j1, "--j2", j2, "--prior", "uniform", "--povm", "local"
        )
        assert code == 0
        assert round(json.loads(out)["I_av_bits"], 6) == gain

    @pytest.mark.parametrize(("j1", "j2"), [("3/2", "1"), ("1", "3/2")])
    def test_local_report_in_either_spin_order(self, capsys, j1, j2):
        code, out, _ = run_cli(
            capsys, "report", "--j1", j1, "--j2", j2, "--prior", "uniform", "--povm", "local"
        )
        assert code == 0
        prior = uniform_direction_prior()
        expected = average_information_gain(j1, j2, prior, _make_povm("optimal-local", j1, j2))
        outcomes = json.loads(out)["outcomes"]
        assert [entry["label"] for entry in outcomes] == list(expected.povm.labels)
        assert [entry["p"] for entry in outcomes] == [
            _sig10(entry.probability) for entry in expected.outcomes]
        assert json.loads(out)["I_av_bits"] == _sig10(expected.average_gain_bits)

    def test_local_past_the_float_range(self, capsys):
        # 2j + 1 past the float range once overflowed in the local weights.  The report
        # equals the one at j = 1e30, where (2j + 1) / (2j + 2) already rounds to 1, but for
        # the j2 field and posterior densities of order 1/j, at the ends of the grid
        reports = []
        for j2 in ("1e400", "1e30"):
            code, out, err = run_cli(capsys, "report", "--j1", "1/2", "--j2", j2,
                                     "--prior", "uniform", "--povm", "local")
            assert (code, err) == (0, "")
            payload = json.loads(out)
            assert payload.pop("j2") == str(10**int(j2[2:]))
            densities = [entry["posterior"].pop("density") for entry in payload["outcomes"]]
            reports.append((payload, np.array(densities)))
        (far, far_densities), (near, near_densities) = reports
        assert far == near
        assert np.max(np.abs(far_densities - near_densities)) < 1e-40

    @pytest.mark.parametrize("prior", ["pap", "uniform"])
    def test_report_is_one_fold_with_no_posterior_object(self, capsys, monkeypatch, prior):
        def not_allowed(*args, **kwargs):
            raise AssertionError("report built an object path")

        built = []
        discrete_init = DiscreteAngleDistribution.__post_init__
        density_init = AngleDensity.__init__
        monkeypatch.setattr(estimation_module, "average_information_gain", not_allowed)
        monkeypatch.setattr(estimation_module, "_posterior", not_allowed)
        monkeypatch.setattr(DiscreteAngleDistribution, "__post_init__",
                            lambda self: built.append(self) or discrete_init(self))
        monkeypatch.setattr(AngleDensity, "__init__",
                            lambda self, *args: built.append(self) or density_init(self, *args))
        code, out, err = run_cli(capsys, "report", "--j1", "2", "--j2", "3",
                                 "--prior", prior, "--povm", "optimal")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["outcomes"]) == 5
        assert len(built) == 1  # the prior

    def test_csv_format_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "report",
            "--j1", "1/2", "--j2", "1/2", "--prior", "pap", "--povm", "optimal",
            "--format", "csv",
        )
        assert code == 2


CURVE_ORACLE_ARGVS = [
    ["--j-min", "1/2", "--j-max", "50", "--j-step", "1/2"],
    ["--curves", "a,b,c,d"],
    ["--curves", "d,a"],
    ["--j-min", "1/2", "--j-max", "5", "--j-step", "1/2", "--curves", "d,a"],
    ["--j-min", "1", "--j-max", "2", "--j-step", "5"],
    ["--j-min", "1e400", "--j-max", "1e400"],
]


def per_row_curve_text(argv):
    """Stdout of a curve command line, one row at a time: one infogain_curve per scenario,
    each j through str(SpinQuantumNumber), each gain through _csv or _sig10."""
    args = _build_parser().parse_args(argv)
    js = [SpinQuantumNumber(twice_j) for twice_j in
          range(args.j_min.twice_j, args.j_max.twice_j + 1, args.j_step.twice_j)]
    rows = [(str(j), gain, letter) for letter in args.curves
            for j, gain in infogain_curve(js, *CURVE_SCENARIOS[letter])]
    if args.format == "csv":
        lines = ["j,I_av_bits,scenario"] + [f"{j},{_csv(gain)},{letter}" for j, gain, letter in rows]
        return "\n".join(lines) + "\n"
    return cli_module._json_text(args, rows=[
        {"j": j, "I_av_bits": _sig10(gain), "scenario": letter} for j, gain, letter in rows])


class TestCurve:
    def test_first_point_matches_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curve",
            "--j-min", "1/2", "--j-max", "1/2", "--j-step", "1/2", "--curves", "a",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][0] == "1/2"
        assert rows[0][2] == "a"
        code, rep_out, _ = run_cli(
            capsys, "report", "--j1", "1/2", "--j2", "1/2", "--prior", "pap", "--povm", "optimal"
        )
        report_value = json.loads(rep_out)["I_av_bits"]
        assert abs(float(rows[0][1]) - report_value) < 1e-9

    def test_large_j_limit_curve_c(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curve",
            "--j-min", "500", "--j-max", "500", "--j-step", "1", "--curves", "c",
        )
        assert code == 0
        _, rows = parse_csv(out)
        limit = 1.0 - 1.0 / (2.0 * math.log(2.0))
        assert abs(float(rows[0][1]) - limit) < 5e-3

    def test_all_curves_in_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--j-min", "1", "--j-max", "2", "--j-step", "1"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[2] for row in rows] == ["a", "a", "b", "b", "c", "c", "d", "d"]
        assert [row[0] for row in rows[:2]] == ["1", "2"]

    def test_spin_past_the_float_range(self, capsys):
        # every scenario at j = 1e400 gives the rows at j = 1e30 but for the j column
        rows = []
        for j in ("1e400", "1e30"):
            code, out, err = run_cli(capsys, "curve", "--j-min", j, "--j-max", j)
            assert (code, err) == (0, "")
            _, table = parse_csv(out)
            assert [row[0] for row in table] == [str(10**int(j[2:]))] * 4
            rows.append([row[1:] for row in table])
        assert rows[0] == rows[1]

    def test_empty_range_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "curve", "--j-min", "2", "--j-max", "1", "--j-step", "1/2"
        )
        assert code == 2
        assert "range" in err

    def test_unknown_curve_letter_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "curve", "--curves", "z")
        assert code == 2

    def test_step_longer_than_range_gives_j_min_alone(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--j-min", "1", "--j-max", "2", "--j-step", "5")
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == ["1"] * 4

    def test_step_skipping_past_j_max_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "curve", "--j-min", "1", "--j-max", "7", "--j-step", "5")
        assert code == 2
        assert out == ""
        assert "skips past --j-max 7" in err
        assert "the last j would be 6" in err

    def test_range_past_the_limit_exits_2_before_building(self, capsys):
        # one value past the limit: refused before any j or table is built
        cached = estimation_module._table_stack.cache_info()
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "curve", "--j-min", "1/2", "--j-step", "1/2",
                                 "--j-max", f"{CURVE_MAX_POINTS + 1}/2")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert f"has {CURVE_MAX_POINTS + 1} values, past the limit of {CURVE_MAX_POINTS}" in err
        assert estimation_module._table_stack.cache_info() == cached

    def test_range_at_the_limit_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "CURVE_MAX_POINTS", 3)
        code, out, _ = run_cli(capsys, "curve", "--j-min", "1", "--j-max", "3", "--j-step", "1")
        assert code == 0
        assert [row[0] for row in parse_csv(out)[1]] == ["1", "2", "3"] * 4
        code, out, _ = run_cli(capsys, "curve", "--j-min", "1", "--j-max", "4", "--j-step", "1")
        assert (code, out) == (2, "")

    def test_leaky_table_exits_1(self, capsys, monkeypatch):
        tables = estimation_module._table_stack
        monkeypatch.setattr(estimation_module, "_table_stack",
                            lambda twice_b, twice_as: 0.999 * tables(twice_b, twice_as))
        code, out, err = run_cli(capsys, "curve", "--j-max", "3", "--curves", "c")
        assert code == 1
        assert out == ""
        assert "internal error: outcome probabilities sum to" in err

    def test_builds_one_table_stack_and_no_povm(self, capsys, monkeypatch):
        calls = {"tables": 0, "povms": 0}
        tables, povm_init = estimation_module._table_stack, RotInvariantPovm.__post_init__

        def counted_tables(*args):
            calls["tables"] += 1
            return tables(*args)

        def counted_povm(self):
            calls["povms"] += 1
            povm_init(self)

        monkeypatch.setattr(estimation_module, "_table_stack", counted_tables)
        monkeypatch.setattr(RotInvariantPovm, "__post_init__", counted_povm)
        code, out, _ = run_cli(capsys, "curve", "--j-min", "1/2", "--j-max", "500", "--j-step", "1/2")
        assert code == 0
        assert len(parse_csv(out)[1]) == 4 * 1000
        assert calls == {"tables": 1, "povms": 0}

    def test_scenarios_share_one_table_build(self, capsys):
        estimation_module._table_stack.cache_clear()
        code, out, _ = run_cli(capsys, "curve", "--j-min", "1/2", "--j-max", "50", "--j-step", "1/2")
        assert code == 0
        assert len(parse_csv(out)[1]) == 4 * 100
        info = estimation_module._table_stack.cache_info()
        assert (info.misses, info.hits) == (1, 0)

    def test_local_weights_built_once_for_b_and_d(self, capsys, monkeypatch):
        kinds = []
        weights = estimation_module._povm_weights

        def counted(kind, *args):
            kinds.append(kind)
            return weights(kind, *args)

        monkeypatch.setattr(estimation_module, "_povm_weights", counted)
        code, out, _ = run_cli(capsys, "curve", "--curves", "b,d")
        assert code == 0
        assert [row[2] for row in parse_csv(out)[1]] == ["b"] * 20 + ["d"] * 20
        assert kinds == ["optimal-local"]

    @pytest.mark.parametrize("argv", CURVE_ORACLE_ARGVS, ids=" ".join)
    @pytest.mark.parametrize("format_", ["csv", "json"])
    def test_stdout_equals_per_row_serialisation(self, capsys, argv, format_):
        argv = ["curve", *argv, "--format", format_]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == per_row_curve_text(argv)


class TestPpt:
    def test_two_qubits(self, capsys):
        code, out, _ = run_cli(capsys, "ppt", "--j", "1/2")
        assert code == 0
        payload = json.loads(out)
        # numbers are serialized with 10 significant digits
        assert abs(payload["x_star"] - 1.0 / 3.0) < 1e-9
        assert abs(payload["predicted"] - 1.0 / 3.0) < 1e-9
        assert payload["abs_diff"] < 1e-8

    def test_spin_one(self, capsys):
        code, out, _ = run_cli(capsys, "ppt", "--j", "1")
        payload = json.loads(out)
        assert abs(payload["x_star"] - 0.25) < 1e-8

    @pytest.mark.parametrize("j_text", ["1/2", "1", "3/2", "2", "5/2", "3"])
    def test_matches_prediction(self, capsys, j_text):
        code, out, _ = run_cli(capsys, "ppt", "--j", j_text)
        payload = json.loads(out)
        assert payload["abs_diff"] < 1e-8

    def test_capacity_limit(self, capsys, monkeypatch):
        # one step past PPT_TWICE_J_LIMIT: refused before any Racah sum
        def sixj_not_allowed(*args):
            raise AssertionError("6j table built before the capacity check")

        monkeypatch.setattr("relangle.locc._sixj", sixj_not_allowed)
        code, out, err = run_cli(capsys, "ppt", "--j", f"{PPT_TWICE_J_LIMIT + 1}/2")
        assert code == 2
        assert out == ""
        assert "limit" in err

    def test_past_the_old_dense_range(self, capsys):
        code, out, _ = run_cli(capsys, "ppt", "--j", "50")
        assert code == 0
        payload = json.loads(out)
        assert payload["j"] == "50"
        assert payload["abs_diff"] < 1e-12


class TestSimulate:
    def test_within_five_sigma(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--j1", "1/2", "--j2", "1/2", "--prior", "pap",
            "--n", "5000", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        gap = abs(payload["mean_gain_bits"] - payload["analytic_I_av_bits"])
        assert gap <= 5.0 * payload["gain_se_bits"]

    def test_single_trial(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--j1", "1/2", "--j2", "1/2", "--prior", "pap", "--n", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_trials"] == 1

    def test_pair_past_the_kernel_limit_exits_2(self, capsys, monkeypatch):
        # 2*min(j1, j2) = 202: the POVM's likelihood table refuses the pair before the
        # analytic gains are computed or any trial is sampled
        def not_allowed(*args):
            raise AssertionError("simulation ran past the kernel limit")

        monkeypatch.setattr(sim_module, "_gains", not_allowed)
        monkeypatch.setattr(sim_module, "_sample_chunk", not_allowed)
        cached = estimation_module._table_stack.cache_info().currsize
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--j1", "101", "--j2", "101", "--prior", "pap", "--n", "1",
        )
        assert estimation_module._table_stack.cache_info().currsize == cached  # no table kept
        assert code == 2
        assert out == ""
        assert "2*min(j1, j2) <= 200" in err

    def test_trials_past_exact_counts_exit_2_before_sampling(self, capsys, monkeypatch):
        # past 2**53 the counts are no longer exact floats; no trial may run
        def no_trials(*args):
            raise AssertionError("trials sampled")

        monkeypatch.setattr(sim_module, "_sample_chunk", no_trials)
        assert _trials_type(str(MAX_TRIALS)) == MAX_TRIALS == 2**53
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--j1", "1/2", "--j2", "1/2", "--prior", "pap", "--n", str(MAX_TRIALS + 1),
        )
        assert code == 2
        assert out == ""
        assert "n must lie in [1, 2**53]" in err

    def test_same_seed_byte_identical(self, capsys):
        args = [
            "simulate",
            "--j1", "1/2", "--j2", "1/2", "--prior", "uniform",
            "--n", "300", "--seed", "123",
        ]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2


class TestOutputAndConfig:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys,
            "probs",
            "--j1", "1/2", "--j2", "1/2", "--alpha", "pi", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("alpha,J,probability\n")
        assert "\r" not in text

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where):
        target = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(
            capsys, "probs", "--j1", "1", "--j2", "1", "--alpha", "0.3", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err
        assert target.is_dir() if where == "directory" else not target.parent.exists()

    def test_missing_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2


SIMULATE = ["simulate", "--j1", "1/2", "--j2", "1", "--prior", "uniform", "--n", "50"]


class TestJsonHeader:
    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["probs", "--j1", "1/2", "--j2", "1", "--alpha", "pi/2", "--format", "json"],
             ["schema", "command", "j1", "j2", "rows"]),
            (["curve", "--j-max", "2", "--format", "json"], ["schema", "command", "rows"]),
            (["report", "--j1", "1/2", "--j2", "3/2", "--prior", "uniform", "--povm", "local"],
             ["schema", "command", "j1", "j2", "prior", "povm", "outcomes", "I_av_bits"]),
            (["ppt", "--j", "3/2"], ["schema", "command", "j", "x_star", "predicted", "abs_diff"]),
            (SIMULATE,
             ["schema", "command", "j1", "j2", "prior", "povm", "n_trials", "seed", "outcomes",
              "mean_gain_bits", "gain_se_bits", "analytic_I_av_bits"]),
        ],
    )
    def test_key_order(self, capsys, argv, keys):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == keys
        assert (payload["schema"], payload["command"]) == (1, argv[0])

    def test_header_spells_the_flags(self, capsys):
        # spins as text and the flags' short scenario names, not the library's kind names
        code, out, _ = run_cli(capsys, *SIMULATE)
        assert code == 0
        payload = json.loads(out)
        header = [payload[key] for key in ("j1", "j2", "prior", "povm")]
        assert header == ["1/2", "1", "uniform", "optimal"]


class TestParserReuse:
    @pytest.mark.parametrize(
        "sequence, codes, built",
        [
            ([["probs", "--j1", "1", "--j2", "3/2", "--format", "json"],
              ["probs", "--j1", "1", "--j2", "3/2"]], [0, 0], 0),
            ([SIMULATE + ["--seed", "5"], SIMULATE], [0, 0], 0),
            ([["report", "--j1", "1", "--j2", "1", "--prior", "pap"],  # --povm is required
              ["report", "--j1", "1", "--j2", "1", "--prior", "pap", "--povm", "optimal"]],
             [2, 0], 1),
        ],
        ids=["format-then-default", "seed-then-default", "rejected-then-valid"],
    )
    def test_each_call_gives_what_it_gives_alone(self, capsys, sequence, codes, built):
        alone = []
        for argv in sequence:
            _build_parser.cache_clear()
            alone.append(run_cli(capsys, *argv)[:2])
        _build_parser.cache_clear()
        together = [run_cli(capsys, *argv)[:2] for argv in sequence]
        assert together == alone
        # the flag table read every valid line; a refused one built the full tree, once
        assert _build_parser.cache_info().misses == built
        assert [code for code, _ in alone] == codes

    def test_defaults_survive_reuse(self, capsys):
        run_cli(capsys, *SIMULATE, "--seed", "5")
        run_cli(capsys, "probs", "--j1", "1", "--j2", "1", "--format", "json")
        assert json.loads(run_cli(capsys, *SIMULATE)[1])["seed"] == 0
        assert run_cli(capsys, "probs", "--j1", "1", "--j2", "1")[1].startswith("alpha,J,")

    def test_density_grid_is_read_only(self):
        grid, labels_text, alphas = _density_grid()
        labels = json.loads(labels_text)
        assert len(labels) == len(alphas) == len(grid) == 181
        assert labels[0] == 0.0 and labels[-1] == 3.141592654
        assert not grid.flags.writeable

    def test_parser_is_not_built_at_import(self):
        script = ("import relangle.cli as cli\n"
                  "print(cli._build_parser.cache_info().currsize)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "0"


def fold_with(change):
    """A stand-in for ``_gains`` that applies ``change`` to its pair's probabilities,
    posteriors and gains, in place, and then recomputes the average gain."""
    gains_of = estimation_module._gains

    def changed(prior, weights, tables):
        probabilities, posteriors, gains, average = gains_of(prior, weights, tables)
        change(probabilities[0], posteriors[0], gains[0])
        return probabilities, posteriors, gains, (probabilities * gains).sum(axis=-1)

    return changed


def negative_weight(probabilities, posteriors, gains):
    posteriors[0, :2] = [-1e-9, 1.0 + 1e-9]


def mean_past_one(probabilities, posteriors, gains):
    posteriors[0] *= 1.0 + 1e-9


def zero_evidence(probabilities, posteriors, gains):
    # the first outcome's probability moves to the last, which keeps the table consistent
    probabilities[-1] += probabilities[0]
    probabilities[0] = gains[0] = 0.0


class TestReportFold:
    """``report`` checks its posteriors as a stack, as the posterior objects would."""

    @pytest.mark.parametrize(("prior", "change", "message"), [
        ("pap", negative_weight, "weights must be non-negative"),
        ("uniform", mean_past_one, "density integrates to 1.000000001"),
    ])
    def test_bad_posterior_exits_1(self, capsys, monkeypatch, prior, change, message):
        monkeypatch.setattr(cli_module, "_gains", fold_with(change))
        code, out, err = run_cli(capsys, "report", "--j1", "1", "--j2", "2",
                                 "--prior", prior, "--povm", "optimal")
        assert (code, out) == (1, "")
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(("change", "message"), [
        (lambda probabilities, gains, average: (probabilities, -gains, average),
         "negative information gain in report"),
        (lambda probabilities, gains, average: (probabilities, gains, average + 1e-9),
         "average gain is inconsistent with the outcome table"),
    ])
    def test_bad_gains_exit_1(self, capsys, monkeypatch, change, message):
        # the fold's own check, given a table as a fault in the gains would leave it
        check = estimation_module._check_gains
        monkeypatch.setattr(estimation_module, "_check_gains", lambda *table: check(*change(*table)))
        code, out, err = run_cli(capsys, "report", "--j1", "1", "--j2", "2",
                                 "--prior", "pap", "--povm", "optimal")
        assert (code, out, err) == (1, "", f"internal error: {message}\n")

    @pytest.mark.parametrize("prior", ["pap", "uniform"])
    @pytest.mark.parametrize("povm", ["optimal", "local"])
    def test_zero_evidence_prints_null_as_the_object_path(self, capsys, monkeypatch, prior, povm):
        changed = fold_with(zero_evidence)
        monkeypatch.setattr(cli_module, "_gains", changed)
        monkeypatch.setattr(estimation_module, "_gains", changed)
        argv = ["report", "--j1", "1", "--j2", "2", "--prior", prior, "--povm", povm]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["outcomes"][0]["posterior"] is None
        assert out == per_number_text(argv)


# each command: a valid line, then lines on which argparse exits: help, a missing required
# flag (curve: a missing value), an invalid choice (ppt: a flag it lacks), a trailing
# unrecognized argument, a bad spin, --out with no value
PARITY_LINES = {
    "probs": [["--j1", "1", "--j2", "3/2", "--alpha", "pi/3", "--format", "json"],
              ["-h"], ["--j1", "1"], ["--j1", "1", "--j2", "1", "--format", "xml"],
              ["--j1", "1", "--j2", "1", "extra"], ["--j1", "0", "--j2", "1"],
              ["--j1", "1", "--j2", "1", "--out"]],
    "report": [["--j1", "1", "--j2", "1/2", "--prior", "uniform", "--povm", "local", "--out", "r"],
               ["--help"], ["--j1", "1", "--j2", "1", "--prior", "pap"],
               ["--j1", "1", "--j2", "1", "--prior", "flat", "--povm", "optimal"],
               ["--j1", "1", "--j2", "1", "--prior", "pap", "--povm", "optimal", "extra"],
               ["--j1", "1", "--j2", "-1/2", "--prior", "pap", "--povm", "optimal"],
               ["--j1", "1", "--j2", "1", "--prior", "pap", "--povm", "optimal", "--out"]],
    "curve": [["--j-min", "1/2", "--j-max", "5", "--j-step", "1/2", "--curves", "d,a"],
              ["-h"], ["--format"], ["--format", "xml"], ["--j-max", "5", "extra"],
              ["--j-max", "x"], ["--out"]],
    "ppt": [["--j", "3/2", "--out", "p.json"],
            ["-h"], [], ["--j", "1", "--format", "json"], ["--j", "1", "extra"], ["--j", "0"],
            ["--j", "1", "--out"]],
    "simulate": [SIMULATE[1:] + ["--povm", "local", "--seed", "5"],
                 ["-h"], ["--j1", "1", "--j2", "1"], [*SIMULATE[1:], "--povm", "joint"],
                 [*SIMULATE[1:], "extra"], ["--j1", "1/3", "--j2", "1", "--prior", "pap"],
                 [*SIMULATE[1:], "--out"]],
}


def full_tree_result(capsys, argv):
    """(exit code, stdout, stderr) of the full parser on a line on which it exits."""
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code or 0, captured.out, captured.err


class TestCommandParser:
    """A command line is read from the flag table, with what the full parser gives."""

    @pytest.mark.parametrize("command", list(PARITY_LINES))
    def test_valid_line_parses_as_in_the_full_parser(self, command):
        argv = [command, *PARITY_LINES[command][0]]
        assert vars(cli_module._parse(argv)) == vars(_build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv", [[command, *line] for command, lines in PARITY_LINES.items() for line in lines[1:]])
    def test_exiting_line_exits_as_in_the_full_parser(self, capsys, argv):
        assert run_cli(capsys, *argv) == full_tree_result(capsys, argv)

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"]])
    def test_top_level_lines_print_the_top_level_usage(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == full_tree_result(capsys, argv)
        assert (out + err).startswith("usage: relangle [-h] {probs,report,curve,ppt,simulate}")
        assert code == (0 if argv == ["-h"] else 2)

    @pytest.mark.parametrize("argv, built", [(["ppt", "--j", "3/2"], 0), (["ppt", "--j", "0"], 1),
                                             (SIMULATE, 0)])
    def test_console_script_reads_sys_argv(self, capsys, monkeypatch, argv, built):
        expected = run_cli(capsys, *argv)
        _build_parser.cache_clear()
        monkeypatch.setattr(sys, "argv", ["relangle", *argv])
        code = main()
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected
        # a valid line is read from the flag table; a refused spin builds the full tree
        assert _build_parser.cache_info().misses == built


def per_number_text(argv):
    """Stdout of a report or probs command line, serialised one number at a time: each
    density value through _sig10 and json.dumps, each CSV field through _csv."""
    args = _build_parser().parse_args(argv)
    grid = _density_grid()[0]
    labels = [_sig10(a) for a in grid.tolist()]
    if args.command == "probs":
        alphas = grid if args.alpha is None else np.array([args.alpha])
        probabilities = _block_probability_matrix(args.j1, args.j2, alphas).T.tolist()
        js = [str(J) for J in total_j_values(args.j1, args.j2)]
        lines = ["alpha,J,probability"]
        for alpha, column in zip(alphas.tolist(), probabilities):
            lines += [f"{_csv(alpha)},{J},{_csv(p)}" for J, p in zip(js, column)]
        return "\n".join(lines) + "\n"

    def posterior(q):
        if q is None:
            return None
        if isinstance(q, DiscreteAngleDistribution):
            return {"type": "discrete", "support": [
                {"alpha": _sig10(a), "weight": _sig10(w)} for a, w in zip(q.alphas, q.weights)]}
        return {"type": "density", "alpha": labels,
                "density": [_sig10(v) for v in q.pdf(grid).tolist()]}

    report = average_information_gain(args.j1, args.j2, *cli_module._scenario(args))
    outcomes = [{"label": entry.label, "p": _sig10(entry.probability),
                 "I_bits": _sig10(entry.information_gain_bits),
                 "posterior": posterior(entry.posterior)} for entry in report.outcomes]
    return cli_module._json_text(args, outcomes=outcomes,
                                 I_av_bits=_sig10(report.average_gain_bits))


def assert_same_text(out: str, expected: str) -> None:
    """out == expected, compared by length and SHA-256 digest: pytest's diff of two texts of
    megabytes runs for minutes, so a mismatch names only the first differing line and column
    and quotes a few characters of each text around them."""
    digests = [(len(text), hashlib.sha256(text.encode()).hexdigest()) for text in (out, expected)]
    if digests[0] == digests[1]:
        return
    first = next((i for i, (a, b) in enumerate(zip(out, expected)) if a != b),
                 min(len(out), len(expected)))
    line = out.count("\n", 0, first) + 1
    column = first - out.rfind("\n", 0, first)
    start = max(first - 20, 0)
    pytest.fail(f"texts differ ({len(out)} and {len(expected)} characters) first at line {line}, "
                f"column {column}: {out[start:first + 20]!r} != {expected[start:first + 20]!r}",
                pytrace=False)


# the command lines of the benchmark's estimate workload (bench/workloads.py)
ESTIMATE_PAIRS = [("1", "1"), ("3/2", "7/2"), ("2", "3"), ("3", "4"), ("5", "5"), ("1/2", "5/2")]
ESTIMATE_ARGVS = (
    [["report", "--j1", j1, "--j2", j2, "--prior", prior, "--povm", "optimal"]
     for j1, j2 in ESTIMATE_PAIRS for prior in ("pap", "uniform")]
    + [["report", "--j1", "1/2", "--j2", "5/2", "--prior", prior, "--povm", "local"]
       for prior in ("pap", "uniform")]
    + [["probs", "--j1", j1, "--j2", j2]
       for j1, j2 in [("1", "1"), ("2", "3"), ("3/2", "7/2"), ("5", "5"), ("1/2", "5/2")]]
)
# (50, 60) prints a subnormal density value, 1.01366535e-316, whose repr is shorter
# than its ten significant digits
LARGE_REPORT_ARGVS = [
    ["report", "--j1", "50", "--j2", j2, "--prior", "uniform", "--povm", "optimal"]
    for j2 in ("60", "100")
]
# every scenario on pairs from the smallest to the kernel limit and past the float range
REPORT_PAIR_ARGVS = [
    ["report", "--j1", j1, "--j2", j2, "--prior", prior, "--povm", povm]
    for j1, j2 in [("1/2", "1/2"), ("1", "1"), ("1/2", "1"), ("3", "10"), ("50", "60"),
                   ("100", "100"), ("1/2", "1e6"), ("7/2", "9/2"), ("20", "100")]
    for prior in ("pap", "uniform") for povm in ("optimal", "local")
]

SIG10_VALUES = [0.0, -0.0, 1.0, 2.0, -3.0, 1e-5, 1.5e-05, 1.0136653451e-316, 5e-324,
                2.2250738585e-308, 9999999999.5, 1e10, 1e15, 1e16, 0.99999999999, 123456.0,
                math.nan, math.inf, -math.inf]
# either side of the writer's bounds: 1e9, 1e-300, and 1e-9 relative of an integer
BOUNDARY_VALUES = [999999999.4, 999999999.6, 1e9, 0.99999999995, 0.9999999999499999,
                   -2.00000000004, 123456.000000049, 1e-300, 9.99e-301]


def random_rows():
    rng = np.random.default_rng(2003)
    signs = rng.choice([-1.0, 1.0], size=(20, 181))
    return [signs * 10.0 ** rng.uniform(-320.0, 20.0, size=(20, 181)),  # every format
            3.0 * rng.random((20, 181)),  # density-like: the shared field
            np.round(rng.normal(size=(20, 181)), 3)]


def near_integer_rows():
    """Integers k, |k| < 1000, each off by 10**U(-14, -5) either way."""
    rng = np.random.default_rng(2004)
    offsets = rng.choice([-1.0, 1.0], size=(20, 181)) * 10.0 ** rng.uniform(-14.0, -5.0, (20, 181))
    return rng.integers(-999, 1000, size=(20, 181)) + offsets


def row_text(values) -> str:
    return _json_rows(np.array([values], dtype=float))[0]


def per_number_rows(stack) -> list:
    return [json.dumps([_sig10(v) for v in row]) for row in stack.tolist()]


class TestArrayWriter:
    @pytest.mark.parametrize("value", SIG10_VALUES + BOUNDARY_VALUES)
    def test_single_value_equals_per_number_json(self, value):
        assert row_text([value]) == json.dumps([_sig10(value)])

    def test_listed_values_together_equal_per_number_json(self):
        finite = [v for v in SIG10_VALUES if math.isfinite(v)]
        for values in (SIG10_VALUES, finite, finite[:6], BOUNDARY_VALUES, []):
            assert row_text(values) == json.dumps([_sig10(v) for v in values])

    def test_random_rows_equal_per_number_json(self):
        for stack in random_rows():
            assert _json_rows(stack) == per_number_rows(stack)

    def test_near_integer_rows_equal_per_number_json(self):
        stack = near_integer_rows()
        assert _json_rows(stack) == per_number_rows(stack)
        assert _json_rows(-stack) == per_number_rows(-stack)

    def test_density_shaped_stack_equals_per_number_json(self):
        # 34 densities on the default grid, as many as an estimate pass writes
        rng = np.random.default_rng(2005)
        coefficients = rng.random((34, 12))
        coefficients /= coefficients.mean(axis=1, keepdims=True)
        stack = _density_values(coefficients, _density_grid()[0])
        assert stack.shape == (34, 181) and (stack[:, 0] == 0.0).all()
        assert _json_rows(stack) == per_number_rows(stack)

    def test_subnormal_takes_the_per_number_path(self):
        assert "%.10g" % 1.0136653451e-316 == "1.013665345e-316"
        assert row_text([0.5, 1.0136653451e-316]) == "[0.5, 1.01366535e-316]"

    @pytest.mark.parametrize("argv", ESTIMATE_ARGVS + LARGE_REPORT_ARGVS + REPORT_PAIR_ARGVS
                             + [["probs", "--j1", "1", "--j2", "3/2", "--alpha", "pi/2"]],
                             ids=" ".join)
    def test_stdout_equals_per_number_serialisation(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert_same_text(out, per_number_text(argv))

    def test_grid_texts_are_the_labels_and_csv_fields(self):
        grid, labels_text, alphas = _density_grid()
        assert labels_text == json.dumps([_sig10(a) for a in grid.tolist()])
        assert alphas == tuple(_csv(a) for a in grid.tolist())


class TestFlagsAndSpins:
    @pytest.mark.parametrize(
        "argv",
        [
            ["probs", "--j1", "0", "--j2", "1"],
            ["report", "--j1", "0", "--j2", "1", "--prior", "uniform", "--povm", "optimal"],
            ["simulate", "--j1", "1/2", "--j2", "0", "--prior", "pap", "--n", "10"],
            ["curve", "--j-step", "0"],
        ],
    )
    def test_spin_zero_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "spin must be at least 1/2" in err

    @pytest.mark.parametrize(
        "argv,value",
        [
            (["ppt", "--j=-1"], "-1"),
            (["ppt", "--j=-1/2"], "-1/2"),
            (["probs", "--j1", "1", "--j2=-1"], "-1"),
            (["report", "--j1=-1/2", "--j2", "1", "--prior", "pap", "--povm", "optimal"], "-1/2"),
            (["curve", "--j-min=-1/2"], "-1/2"),
        ],
    )
    def test_negative_spin_is_refused_in_terms_of_the_spin(self, capsys, argv, value):
        # it once said "twice_j must be non-negative, got -2" for --j=-1
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"spin must be at least 1/2, got {value}\n" in err
        assert "twice_j" not in err

    @pytest.mark.parametrize(
        "argv,limit",
        [
            (["ppt", "--j", "1e400"], "2j <= 4000"),
            (["report", "--j1", "1e400", "--j2", "1e400", "--prior", "uniform",
              "--povm", "optimal"], "2*min(j1, j2) <= 200"),
            (["simulate", "--j1", "1e400", "--j2", "1e400", "--prior", "uniform", "--n", "10"],
             "2*min(j1, j2) <= 200"),
            (["curve", "--j-min", "1", "--j-max", "1e400", "--j-step", "3"],
             f"limit of {CURVE_MAX_POINTS}"),
        ],
    )
    def test_huge_spin_is_refused_in_one_short_line(self, capsys, argv, limit):
        # each message once wrote the spin, the dimension or the count in full: 485 to 872
        # bytes at j = 1e400, and curve failed with an OverflowError traceback
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert len(err.encode()) < 200
        assert limit in err and "e+" in err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="no limit on the digits of integer text")
    @pytest.mark.parametrize("flag", ["--j1", "--j2"])
    def test_spin_past_the_integer_text_limit_is_refused(self, capsys, flag):
        # it once failed every command with Python's "Exceeds the limit (4300 digits)" text
        argv = ["simulate", "--j1", "1/2", "--j2", "1/2", "--prior", "uniform", "--n", "10"]
        argv[argv.index(flag) + 1] = "1e5000"
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        message = err.splitlines()[-1]
        digits = sys.get_int_max_str_digits()
        assert message == (f"relangle simulate: error: argument {flag}: spin 1e+5000 has more "
                           f"than {digits} digits, past Python's limit for integer text")
        assert len(message.encode()) < 200
        assert "Exceeds" not in err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="no limit on the digits of integer text")
    def test_spin_label_at_the_integer_text_limit_is_accepted(self, capsys):
        # 2j = 2e4300 - 2 has 4301 digits, but the label j = 1e4300 - 1 has 4300
        digits = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "ppt", "--j", str(10**digits - 1))
        assert code == 2
        assert err == f"error: spin j = 1e+{digits} (2j = 2e+{digits}) exceeds the PPT " \
                      f"threshold's limit 2j <= {PPT_TWICE_J_LIMIT}\n"
        code, _, err = run_cli(capsys, "ppt", "--j", f"1e{digits}")
        assert code == 2 and f"more than {digits} digits" in err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="no limit on the digits of integer text")
    @pytest.mark.parametrize("argv", [
        ["probs", "--j1", "1", "--j2"],
        ["report", "--j1", "1/2", "--prior", "pap", "--povm", "optimal", "--j2"],
        ["simulate", "--j1", "1/2", "--prior", "pap", "--n", "10", "--j2"],
    ], ids=["probs", "report", "simulate"])
    def test_total_spin_past_the_integer_text_limit_is_refused(self, capsys, argv):
        # J = j1 + j2 has 4301 digits: each line once exited 2 with Python's own
        # "Exceeds the limit (4300 digits) for integer string conversion" text
        digits = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, *argv, "9" * digits)
        assert (code, out) == (2, "")
        assert err == (f"error: total spin j1 + j2 = 1e+{digits} has more than {digits} "
                       "digits, past Python's limit for integer text\n")
        assert len(err.encode()) < 200

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="no limit on the digits of integer text")
    @pytest.mark.parametrize("argv", [
        ["report", "--j1", "1/2", "--j2", "N", "--prior", "uniform", "--povm", "local"],
        ["simulate", "--j1", "1/2", "--j2", "N", "--prior", "pap", "--povm", "local", "--n", "10"],
        ["curve", "--j-min", "N", "--j-max", "N"],
    ], ids=["report", "simulate", "curve"])
    def test_pair_whose_total_spins_are_not_written_is_served(self, capsys, argv):
        # the local POVM's outcomes and curve's rows name no total spin; N is the largest
        # spin label Python writes
        largest = "9" * sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, *(largest if word == "N" else word for word in argv))
        assert (code, err) == (0, "")
        assert json.loads(out) if argv[0] != "curve" else out.startswith("j,I_av_bits,scenario\n")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="no limit on the digits of integer text")
    @pytest.mark.parametrize("text", ["1e10000000", "1E+10000000", "1e-10000000", "2.5e1_000_000"])
    def test_huge_exponent_is_refused_before_the_number_is_built(self, capsys, text):
        # Fraction("1e10000000") builds 10**10000000: about 9 s before the command exited 2
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "ppt", "--j", text)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        digits = sys.get_int_max_str_digits()
        assert err.splitlines()[-1] == (f"relangle ppt: error: argument --j: spin {text!r} has "
                                        f"more than {digits} digits, past Python's limit for "
                                        "integer text")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="no limit on the digits of integer text")
    def test_exponent_up_to_twice_the_limit_is_read_as_before(self, capsys):
        # a long fraction part can cancel such an exponent, so the value decides
        digits = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "ppt", "--j", f"0.{'0' * (digits - 1)}1e{2 * digits}")
        assert code == 2 and f"spin 1e+{digits} has more than {digits} digits" in err
        code, out, err = run_cli(capsys, "ppt", "--j", f"0.{'0' * (digits - 1)}2e{digits + 1}")
        assert (code, err) == (0, "")
        assert json.loads(out)["j"] == "20"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["simulate", "--j1", "1/2", "--j2", "1/2", "--prior", "pap", "--n", "9" * 5000],
             "argument --n: n must be an integer, got '99999999999999999999'... "
             "(5000 characters)"),
            (["simulate", "--j1", "1/2", "--j2", "1/2", "--prior", "pap", "--n", "9" * 4000],
             "argument --n: n must lie in [1, 2**53], got 1e+4000"),
            (["simulate", "--j1", "1/2", "--j2", "1/2", "--prior", "pap", "--seed", "9" * 5000],
             "argument --seed: seed must be an integer, got '99999999999999999999'... "
             "(5000 characters)"),
            (["ppt", "--j", "9" * 5000],
             "argument --j: cannot parse spin value '99999999999999999999'... (5000 characters)"),
            (["probs", "--j1", "1", "--j2", "x" * 3000],
             "argument --j2: cannot parse spin value 'xxxxxxxxxxxxxxxxxxxx'... (3000 characters)"),
            (["probs", "--j1", "1", "--j2", "1", "--alpha", "p" * 3000],
             "argument --alpha: cannot parse angle 'pppppppppppppppppppp'... (3000 characters)"),
            (["curve", "--curves", "z," * 3000],
             "argument --curves: curves must be a comma-separated subset of a,b,c,d, got "
             "'z,z,z,z,z,z,z,z,z,z,'... (6000 characters)"),
        ],
    )
    def test_long_argument_is_refused_in_one_short_line(self, capsys, argv, message):
        # each message once echoed the whole argument: 3,180 to 5,252 bytes of stderr
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ") and err.count(": error: ") == 1
        line = err.splitlines()[-1]
        assert line == f"relangle {argv[0]}: error: {message}"
        assert len(line.encode()) < 200

    @pytest.mark.parametrize(
        ("argv", "line"),
        [
            (["report", "--j1", "1", "--j2", "1", "--prior", "x" * 3000, "--povm", "optimal"],
             "relangle report: error: argument --prior: invalid choice: "
             "'xxxxxxxxxxxxxxxxxxxx'... (3000 characters) (choose from 'pap', 'uniform')"),
            (["ppt", "--j", "1", "x" * 3000],
             "relangle: error: unrecognized arguments: 'xxxxxxxxxxxxxxxxxxxx'... (3000 characters)"),
            (["ppt", "--j", "1", *["x"] * 3000],
             "relangle: error: unrecognized arguments: 'x x x x x x x x x x '... (5999 characters)"),
            (["x" * 3000],
             "relangle: error: argument command: invalid choice: 'xxxxxxxxxxxxxxxxxxxx'... "
             "(3000 characters) (choose from 'probs', 'report', 'curve', 'ppt', 'simulate')"),
            (["report", "--j1", "1", "--j2", "1", "--prior", "pap", "--povm", "optimal",
              "--j=" + "x" * 3000],
             "relangle report: error: ambiguous option: '--j=xxxxxxxxxxxxxxxx'... "
             "(3004 characters) could match --j1, --j2"),
        ],
    )
    def test_argparse_errors_quote_a_long_argument_in_one_short_line(self, capsys, argv, line):
        # argparse's own messages once echoed the whole argument: 3,101 to 3,216 bytes of stderr
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ") and err.count(": error: ") == 1
        assert err.splitlines()[-1] == line
        assert len(err.encode()) < 400

    def test_argparse_errors_quote_a_short_argument_whole(self, capsys):
        code, _, err = run_cli(capsys, "report", "--j1", "1", "--j2", "1", "--prior", "pap",
                               "--povm", "joint")
        assert code == 2
        assert err.splitlines()[-1] == ("relangle report: error: argument --povm: invalid choice: "
                                        "'joint' (choose from 'optimal', 'local')")

    @pytest.mark.parametrize(
        ("argv", "line"),
        [
            (["report", "--j1", "1", "--j2", "1", "--prior", "pap", "--povm", "optimal", "--j=1"],
             "relangle report: error: ambiguous option: '--j=1' could match --j1, --j2"),
            (["curve", "--j-m", "3"],
             "relangle curve: error: ambiguous option: '--j-m' could match --j-min, --j-max"),
        ],
    )
    def test_ambiguous_option_quotes_a_short_argument_whole(self, capsys, argv, line):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count(": error: ") == 1
        assert err.splitlines()[-1] == line

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--j1", "1/2", "--j2", "1/2", "--prior", "pap", "--povm", "optimal",
             "--format", "json"],
            ["ppt", "--j", "1", "--format", "json"],
            ["probs", "--j1", "1", "--j2", "1", "--seed", "3"],
            ["curve", "--seed", "1"],
        ],
    )
    def test_flag_on_command_that_ignores_it_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_seed_past_64_bits_is_refused(self, capsys):
        argv = ["simulate", "--j1", "1/2", "--j2", "1/2", "--prior", "pap", "--n", "10"]
        code, out, err = run_cli(capsys, *argv, "--seed", str(2**64))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == ("relangle simulate: error: argument --seed: "
                                        "seed must fit in an unsigned 64-bit integer")
        code, out, err = run_cli(capsys, *argv, "--seed", str(2**64 - 1))
        assert (code, err) == (0, "") and json.loads(out)["seed"] == 2**64 - 1

    def test_simulate_seed_defaults_to_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--j1", "1/2", "--j2", "1/2", "--prior", "pap", "--n", "10"
        )
        assert code == 0
        assert json.loads(out)["seed"] == 0


# the benchmark's command lines (bench/workloads.py): estimate, curve, and the mc mix
BENCHMARK_ARGVS = ESTIMATE_ARGVS + [
    ["curve", "--j-min", "1/2", "--j-max", "500", "--j-step", "1/2", "--curves", "a,b,c,d"],
] + [["simulate", "--j1", j1, "--j2", j2, "--prior", prior, "--povm", povm, "--n", str(n),
      "--seed", "4611686018427387904"]
     for j1, j2, prior, povm, n in [("1/2", "1/2", "pap", "optimal", 2000),
                                    ("1/2", "3/2", "uniform", "local", 2000),
                                    ("2", "3", "uniform", "optimal", 1000)]]

# values that each flag reads, then values that its type or its choices refuse
SPIN_TEXTS = (["1/2", "1", "3/2", "2.5", "7", "1e3", " 2 ", "4/2"],
              ["0", "1/3", "x", "nan", "inf", "1e10000000", "", "2**3"])
FLAG_VALUES = {
    "--out": (["o.txt", "out/r.json", "", "x y"], []),
    "--format": (["csv", "json"], ["xml", "CSV", ""]),
    "--j1": SPIN_TEXTS, "--j2": SPIN_TEXTS, "--j": SPIN_TEXTS,
    "--j-min": SPIN_TEXTS, "--j-max": SPIN_TEXTS, "--j-step": SPIN_TEXTS,
    "--prior": (["pap", "uniform"], ["flat", "pa", ""]),
    "--povm": (["optimal", "local"], ["joint", "Optimal", ""]),
    "--alpha": (["0", "pi", "pi/3", "2pi", "0.5", "1e-10", " PI/4 "], ["p", "pi/0", "", "1/2"]),
    "--curves": (["a", "d,a", "a,b,c,d", " b , c "], ["z", ",", "a,e", ""]),
    "--n": (["1", "50", "9007199254740992"], ["0", "9007199254740993", "1.5", "x", ""]),
    "--seed": (["0", "5", "18446744073709551615"], ["18446744073709551616", "x", "1e3", ""]),
}
# forms that argparse reads on its own, each at least once
FORM_LINES = [
    ["report", "--j1", "1", "--j2", "1", "--pri", "pap", "--povm", "optimal"],
    ["probs", "--j1=1", "--j2", "1"],
    *(["probs", "--j1", "1", "--j2", "1", *alpha]
      for alpha in (["--alpha=-1e-10"], ["--alpha", "-0.5"], ["--alpha", "-1e-10"])),
    ["probs", "--j1", "1", "--j2", "1", "--"], ["probs", "--", "--j1", "1", "--j2", "1"],
    ["probs", "-h"], ["ppt", "--j", "1", "--j", "2"], ["ppt"], ["ppt", "--j", ""],
    ["report", "--j1", "1/3", "--j2", "1", "--prior", "pap", "--povm", "optimal"],
    ["curve", "--j-min", "1/2", "--j-max", "5", "--format", "xml"],
    ["simulate", "--j1", "1", "--j2", "1", "--prior", "pap", "--n", "0"],
    ["simulate", "--j1", "1", "--j2", "1", "--prior", "pap", "--seed", "x"],
    ["ppt", "--j", "1", "extra"],
]
DASHED_VALUES = ["-1", "-0.5", "-1e-10", "-1/2", "--", "-h", "-x", "--j1"]
STRAY_TOKENS = ["--", "-h", "--help", "extra", "--bogus", "--seed", "--format", "--j", "-"]


def random_line(rng: random.Random) -> list:
    """A command line: a command's exact --flag value pairs in a random order, then, in about
    half of the lines, one to three changes of a form that argparse reads on its own (an
    abbreviation, --flag=value, a value starting with "-", a stray or trailing token, a
    missing required flag), or a value its type or choices refuse, or a repeated flag."""
    if rng.random() < 0.02:
        return rng.choice([[], ["bogus"], ["-h"], ["--help"], ["--", "ppt", "--j", "1"]])
    command = rng.choice(list(cli_module._FLAGS))
    flags = cli_module._FLAGS[command]
    chosen = [flag for flag, keywords in flags.items()
              if keywords.get("required") or rng.random() < 0.4]
    rng.shuffle(chosen)
    pairs = [[flag, rng.choice(FLAG_VALUES[flag][0])] for flag in chosen]
    for _ in range(rng.choice([0, 0, 0, 0, 0, 1, 1, 2, 3])):
        flag = rng.choice(list(flags))
        whole = [pair for pair in pairs if len(pair) == 2]  # the --flag value pairs
        pair = rng.choice(whole) if whole else [flag, rng.choice(FLAG_VALUES[flag][0])]
        change = rng.randrange(8)
        if change == 0:  # a refused value (or, after an abbreviation, any value)
            read, refused = FLAG_VALUES.get(pair[0], FLAG_VALUES[flag])
            pair[1] = rng.choice(refused or read)
        elif change == 1:  # a value starting with "-"
            pair[1] = rng.choice(DASHED_VALUES)
        elif change == 2:  # --flag=value
            pair[:] = [f"{pair[0]}={pair[1]}"]
        elif change == 3:  # an abbreviation, unique or ambiguous
            pair[0] = pair[0][:rng.randrange(3, len(pair[0]))] if len(pair[0]) > 3 else pair[0]
        elif change == 4:  # a repeated flag, its value read or refused
            pairs.append([flag, rng.choice(rng.choice(FLAG_VALUES[flag]) or ["1"])])
        elif change == 5:  # a missing flag
            pair.clear()
        elif change == 6:  # a stray token
            pairs.insert(rng.randrange(len(pairs) + 1), [rng.choice(STRAY_TOKENS)])
        else:  # a flag of another command, or a trailing flag without its value
            other = rng.choice(list(FLAG_VALUES))
            pairs.append([other, rng.choice(FLAG_VALUES[other][0])][:rng.randrange(1, 3)])
    return [command] + [token for pair in pairs for token in pair]


def parse_result(parse, argv):
    """vars() of the Namespace that ``parse`` gives for ``argv``, or its exit code, with what
    it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestFlagTable:
    """``_parse`` reads the lines it can from ``_FLAGS`` and gives the full parser the rest;
    either way the line parses, or exits, as the full parser alone has it."""

    def test_random_lines_parse_as_in_the_full_parser(self, monkeypatch):
        full_parser = _build_parser
        passed_on = []
        monkeypatch.setattr(cli_module, "_build_parser",
                            lambda: passed_on.append(True) or full_parser())
        rng = random.Random(29)
        read = 0
        for argv in [*FORM_LINES, *(random_line(rng) for _ in range(5000))]:
            before = len(passed_on)
            result = parse_result(cli_module._parse, argv)
            assert result == parse_result(full_parser().parse_args, argv), argv
            read += len(passed_on) == before
        assert 0.3 * 5000 <= read < 5000 - len(FORM_LINES)  # both paths are taken

    @pytest.mark.parametrize("argv", [
        ["report", "--j1=1", "--j2", "1", "--pri", "pap", "--povm", "optimal"],
        ["probs", "--j1", "1", "--j2", "2", "--j2", "1"],
    ])
    def test_other_forms_print_what_the_exact_form_prints(self, capsys, argv):
        exact = {"report": ["report", "--j1", "1", "--j2", "1", "--prior", "pap",
                            "--povm", "optimal"],
                 "probs": ["probs", "--j1", "1", "--j2", "1"]}[argv[0]]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(capsys, *exact)

    @pytest.mark.parametrize("argv", BENCHMARK_ARGVS, ids=" ".join)
    def test_benchmark_line_builds_no_parser(self, monkeypatch, argv):
        built = []
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda *args, **kwargs: built.append(args))
        _build_parser.cache_clear()
        args = cli_module._parse(argv)
        assert (args.command, built) == (argv[0], [])
        assert _build_parser.cache_info().misses == 0

    def test_only_the_full_parser_builds_argparse(self, monkeypatch):
        # a line that is passed on builds the full tree once, and it is reused
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *args, **kwargs: built.append(kwargs.get("prog"))
                            or init(self, *args, **kwargs))
        _build_parser.cache_clear()
        results = [parse_result(cli_module._parse, argv)[0]
                   for argv in (["probs", "--j1=1", "--j2", "1"], ["ppt", "--j", "0"])]
        assert results[0]["j1"] == SpinQuantumNumber(2) and results[1] == 2
        assert built[0] == "relangle" and len(built) == 1 + len(cli_module._FLAGS)
        assert _build_parser.cache_info().misses == 1


class TestNumpyOnly:
    def test_import_loads_neither_scipy_nor_sympy(self):
        # a fresh interpreter, so that modules the test suite imports do not count
        script = (
            "import sys, relangle, relangle.cli\n"
            "loaded = sorted({'scipy', 'sympy'} & {name.split('.')[0] for name in sys.modules})\n"
            "print(','.join(loaded))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == ""

    def test_report_loads_no_numpy_polynomial(self):
        # numpy's leggauss is a test oracle only: the library builds its own rules
        script = (
            "import sys, relangle.cli\n"
            "relangle.cli.main(['report', '--j1', '5', '--j2', '5', '--prior', 'uniform',"
            " '--povm', 'optimal'])\n"
            "print('numpy.polynomial' in sys.modules, file=sys.stderr)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr.strip() == "False"
