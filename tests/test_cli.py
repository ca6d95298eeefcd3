import json
import math
import time

import pytest

from relangle.cli import ScenarioConfig, main
from relangle.estimation import _likelihood_table


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
        cached = _likelihood_table.cache_info().currsize
        started = time.perf_counter()
        code, out, err = run_cli(capsys, args[0], "--j1", "201/2", "--j2", "800", *args[1:])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert "2*min(j1, j2) <= 200" in err
        assert _likelihood_table.cache_info().currsize == cached

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

    def test_local_requires_spin_half_probe(self, capsys):
        code, _, err = run_cli(
            capsys, "report", "--j1", "1", "--j2", "1", "--prior", "pap", "--povm", "local"
        )
        assert code == 2
        assert "local" in err

    def test_csv_format_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "report",
            "--j1", "1/2", "--j2", "1/2", "--prior", "pap", "--povm", "optimal",
            "--format", "csv",
        )
        assert code == 2


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

    def test_empty_range_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "curve", "--j-min", "2", "--j-max", "1", "--j-step", "1/2"
        )
        assert code == 2
        assert "range" in err

    def test_unknown_curve_letter_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "curve", "--curves", "z")
        assert code == 2


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

    def test_capacity_limit(self, capsys):
        code, _, err = run_cli(capsys, "ppt", "--j", "6")
        assert code == 2


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

    def test_pair_above_dense_cap_exits_2(self, capsys, monkeypatch):
        # product dimension 65 * 65 = 4225, just above the cap: refused before
        # the report or the first dense trial state is built
        def report_not_allowed(*args):
            raise AssertionError("analytic report built before the dense-cap check")

        monkeypatch.setattr("relangle.sim.average_information_gain", report_not_allowed)
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--j1", "32", "--j2", "32", "--prior", "pap", "--n", "1",
        )
        assert code == 2
        assert out == ""
        assert "exceeds the dense cap 4096" in err

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

    def test_config_roundtrip(self):
        samples = [
            ["report", "--j1", "1/2", "--j2", "3", "--prior", "uniform", "--povm", "local"],
            ["probs", "--j1", "1", "--j2", "3/2", "--alpha", "0.25", "--format", "json"],
            ["curve", "--j-min", "1/2", "--j-max", "5", "--j-step", "1/2", "--curves", "a,c"],
            ["ppt", "--j", "2"],
            ["simulate", "--j1", "1/2", "--j2", "1/2", "--prior", "pap", "--n", "10", "--seed", "3"],
        ]
        for argv in samples:
            config = ScenarioConfig.from_args(argv)
            canonical = config.to_args()
            assert ScenarioConfig.from_args(canonical) == config
            assert ScenarioConfig.from_args(canonical).to_args() == canonical

    def test_missing_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2
