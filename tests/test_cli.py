import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfirange
from mfirange import (
    C_PAPER,
    EstimatorConfig,
    FrequencyPlan,
    NoiseModel,
    design_random,
    ls_estimate,
    synth_phases,
    towers_ideal_frequencies,
)
from mfirange.cli import DESIGN_METHODS, CliError, main, read_plan_file, write_plan_file
from mfirange.records import Experiment, read_record, write_record


SNR_REFUSED = "snr_db must be finite and give a finite, positive sigma_theta"
_POSITIVE = "{} must be finite and positive, got {!r}"
# (method, flag, value, message): one refused design input per case.
BAD_DESIGN_INPUTS = (
    [(m, "--res", v, _POSITIVE.format("resolution", float(v)))
     for m in DESIGN_METHODS for v in ("0", "-65", "nan", "inf")]
    + [(m, "--B", v, _POSITIVE.format("bandwidth", float(v)))
       for m in DESIGN_METHODS for v in ("0", "-2e7", "nan", "inf", "-inf")]
    + [(m, "--N", v, f"N must be at least 2, got {v}") for m in DESIGN_METHODS for v in ("1", "0", "-3")]
    # 20e6 / 1e-301 overflows to inf, which ended in an OverflowError or a hang.
    + [(m, "--res", "1e-301", "bandwidth / resolution must be finite, got 20000000.0 / 1e-301")
       for m in DESIGN_METHODS]
    + [(m, "--snr", "-4000", f"{SNR_REFUSED}, got -4000.0") for m in DESIGN_METHODS]
    + [("towers", "--fN", v, _POSITIVE.format("f_max", float(v))) for v in ("inf", "nan", "0")]
    + [(m, "--umr-requirement", v, _POSITIVE.format("umr_requirement", float(v)))
       for m in ("prime-min-error", "prime-max-error") for v in ("inf", "nan", "0")]
)


def run_cli(*args):
    return main([str(a) for a in args])


class TestDesignAnalyze:
    def test_design_writes_plan_and_report(self, tmp_path, capsys):
        rc = run_cli(
            "design", "--method", "prime-min-error", "--B", "40.378e6", "--N", "31",
            "--res", "65", "--i", "12", "--f1", "410e6", "--c-mode", "paper-repro",
            "--out", tmp_path, "--label", "vplan", "--skip-sidelobe",
        )
        assert rc == 0
        report = (tmp_path / "vplan_report.csv").read_text().splitlines()
        as_dict = dict(line.split(",", 1) for line in report[1:])
        assert float(as_dict["practical_umr_m"]) == pytest.approx(23077.0, rel=0.001)
        assert as_dict["design_tuple_common_factor_k"] == "200"
        plan = read_plan_file(tmp_path / "vplan.plan")
        assert plan.n == 31 and plan.c == C_PAPER

    def test_rips_design_reports_umr(self, tmp_path):
        rc = run_cli(
            "design", "--method", "rips", "--B", "40e6", "--N", "41", "--f1", "400e6",
            "--c-mode", "paper-repro", "--out", tmp_path, "--skip-sidelobe",
        )
        assert rc == 0
        report = dict(
            line.split(",", 1)
            for line in (tmp_path / "rips_report.csv").read_text().splitlines()[1:]
        )
        assert float(report["umr_m"]) == pytest.approx(300.0)

    def test_grid_divisibility_error_path(self, tmp_path, capsys):
        rc = run_cli(
            "design", "--method", "rips", "--B", "40e6", "--N", "3", "--res", "65",
            "--f1", "400e6", "--out", tmp_path,
        )
        captured = capsys.readouterr()
        assert rc != 0
        err_lines = [ln for ln in captured.err.splitlines() if ln]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: design-infeasible:")

    @pytest.mark.parametrize("method, flag, value, message", BAD_DESIGN_INPUTS)
    def test_bad_design_input_is_one_error_line(self, tmp_path, capsys, method, flag, value, message):
        # Every method divides by the grid; towers' 1 Hz default applies
        # only when --res is absent.  Each case fails before a file is written.
        flags = {"--B": "20e6", "--N": "5", "--f1": "400e6", "--fN": "420e6", "--res": "1e3", "--seed": "1"}
        flags[flag] = value
        rc = run_cli(
            "design", "--method", method, *itertools.chain(*flags.items()), "--out", tmp_path,
            "--skip-sidelobe",
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: invalid-value: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_towers_reports_snap_error(self, tmp_path):
        rc = run_cli(
            "design", "--method", "towers", "--fN", "420e6", "--B", "20e6", "--N", "5",
            "--res", "1e3", "--out", tmp_path, "--skip-sidelobe",
        )
        assert rc == 0
        report = dict(
            line.split(",", 1) for line in (tmp_path / "towers_report.csv").read_text().splitlines()[1:]
        )
        plan = read_plan_file(tmp_path / "towers.plan")
        snap = np.max(np.abs(plan.frequencies - towers_ideal_frequencies(420e6, 20e6, 5)))
        assert float(report["max_snap_error_hz"]) == snap
        assert 0 < snap <= 500.0

    def test_random_reports_seed_and_needs_one(self, tmp_path, capsys):
        argv = ["design", "--method", "random", "--f1", "400e6", "--B", "20e6", "--N", "5", "--res", "1e3",
                "--skip-sidelobe"]
        assert run_cli(*argv, "--out", tmp_path / "none") == 2
        assert capsys.readouterr().err == "error: usage: --seed is required for the random method\n"
        assert not (tmp_path / "none").exists()
        assert run_cli(*argv, "--seed", "7", "--out", tmp_path) == 0
        report = (tmp_path / "random_report.csv").read_text().splitlines()
        assert report[-1] == "seed,7"
        rng = np.random.Generator(np.random.Philox(key=7))
        assert read_plan_file(tmp_path / "random.plan") == design_random(400e6, 20e6, 5, 1e3, rng)

    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys):
        rc = run_cli("design", "--method", "rips", "--B", "20e6", "--out", tmp_path)
        assert rc == 2
        assert capsys.readouterr().err == "error: usage: method 'rips' requires --f1, --N\n"
        assert not tmp_path.joinpath("rips.plan").exists()

    def test_analyze_prints_the_report_rows(self, tmp_path, capsys):
        write_plan_file(tmp_path / "p.plan", FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1, 2)))
        assert run_cli("analyze", "--plan", tmp_path / "p.plan", "--snr", "10") == 0
        printed = capsys.readouterr().out.splitlines()
        assert run_cli("analyze", "--plan", tmp_path / "p.plan", "--snr", "10", "--out", tmp_path) == 0
        written = (tmp_path / "p_report.csv").read_text().splitlines()[1:]
        assert printed == [line.replace(",", " = ", 1) for line in written]
        assert printed[0].startswith("umr_m = ")

    @pytest.mark.parametrize("flag, value", [("--snr", "nan"), ("--snr", "inf"), ("--snr", "-inf"),
                                             ("--snr", "-4000"), ("--snr", "4000"),
                                             ("--sigma", "nan"), ("--sigma", "inf"), ("--sigma", "0")])
    def test_analyze_refuses_non_finite_noise(self, tmp_path, capsys, flag, value):
        write_plan_file(tmp_path / "p.plan", FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1, 2)))
        rc = run_cli("analyze", "--plan", tmp_path / "p.plan", flag, value, "--skip-sidelobe")
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: invalid-value:") and captured.err.count("\n") == 1

    def test_analyze_round_trip_bit_identical(self, tmp_path):
        run_cli(
            "design", "--method", "prime-min-error", "--B", "20e6", "--N", "21",
            "--res", "65", "--f1", "400e6", "--c-mode", "paper-repro",
            "--out", tmp_path, "--label", "p21", "--snr", "10", "--skip-sidelobe",
        )
        rc = run_cli(
            "analyze", "--plan", tmp_path / "p21.plan", "--snr", "10",
            "--skip-sidelobe", "--out", tmp_path / "again",
        )
        assert rc == 0
        designed = (tmp_path / "p21_report.csv").read_text().splitlines()
        analyzed = (tmp_path / "again" / "p21_report.csv").read_text().splitlines()
        shared = [ln for ln in designed if not ln.startswith(("design_tuple", "primes"))]
        assert shared == analyzed

    def test_unknown_method_usage_error(self, tmp_path, capsys):
        rc = run_cli("design", "--method", "bogus", "--out", tmp_path)
        assert rc != 0
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_plan_file_round_trip(self, tmp_path):
        plan = FrequencyPlan(f1=400.1e6, resolution=65.0, spacings=(3, 1, 4), c=C_PAPER)
        write_plan_file(tmp_path / "x.plan", plan)
        assert read_plan_file(tmp_path / "x.plan") == plan

    def test_plan_file_with_byte_order_mark(self, tmp_path):
        plan = FrequencyPlan(f1=400.1e6, resolution=65.0, spacings=(3, 1, 4), c=C_PAPER)
        write_plan_file(tmp_path / "x.plan", plan)
        (tmp_path / "bom.plan").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "x.plan").read_bytes())
        assert read_plan_file(tmp_path / "bom.plan") == plan

    @pytest.mark.parametrize("ending", [b"\r", b"\r\n", b"\xef\xbb\xbf"])
    def test_plan_file_line_endings(self, tmp_path, ending):
        plan = FrequencyPlan(f1=400.1e6, resolution=65.0, spacings=(3, 1, 4), c=C_PAPER)
        write_plan_file(tmp_path / "x.plan", plan)
        text = (tmp_path / "x.plan").read_bytes()
        if ending.startswith(b"\r"):
            text = text.replace(b"\n", ending)
        else:
            text = ending + text
        (tmp_path / "y.plan").write_bytes(text)
        assert read_plan_file(tmp_path / "y.plan") == plan

    @pytest.mark.parametrize("char", ["\x1c", "\x0b", "\x85", "\u2028"])
    def test_plan_file_line_break_character_in_value(self, tmp_path, char):
        # str.splitlines would break the third line in two and blame line 4.
        path = tmp_path / "x.plan"
        value = f"1,2{char}3"
        path.write_text(
            f"# plan\nf1_hz = 400100000.0\nspacings_grid = {value}\nresolution_hz = 65.0\n",
            encoding="utf-8",
        )
        with pytest.raises(CliError) as err:
            read_plan_file(path)
        assert err.value.code == "config"
        line = f"spacings_grid = {value}"
        assert str(err.value) == f"{path}:3: line break character in {line!r}"


class TestSimulate:
    def write_campaign(self, tmp_path, **overrides):
        run_cli(
            "design", "--method", "rips", "--B", "20e6", "--N", "21", "--f1", "400e6",
            "--c-mode", "paper-repro", "--out", tmp_path, "--label", "rips",
            "--skip-sidelobe",
        )
        fields = {
            "kind": "pf",
            "plan.rips": "rips.plan",
            "q0_m": "0.0",
            "snr_db": "10,20",
            "trials": "40",
            "seed": "4242",
            "search_lo_m": "-150.0",
            "search_hi_m": "150.0",
            "step_m": "0.05",
            "refine": "false",
        }
        fields.update(overrides)
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
        return cfg

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.write_campaign(tmp_path)
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "r1") == 0
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "r2") == 0
        for name in ("mse.csv", "pf.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_header_and_metric_rows(self, tmp_path):
        cfg = self.write_campaign(tmp_path, kind="mse", snr_db="20")
        run_cli("simulate", "--config", cfg, "--out", tmp_path / "m")
        lines = (tmp_path / "m" / "mse.csv").read_text().splitlines()
        assert lines[0] == "label,snr_db,metric,value,stderr,mmse,hmse,crb,trials,seed"
        metrics = {ln.split(",")[2] for ln in lines[1:]}
        assert metrics == {"mse", "mse_excl_outlier"}

    def test_validation_failures_listed_together(self, tmp_path, capsys):
        cfg = self.write_campaign(tmp_path, trials="0", snr_db="")
        rc = run_cli("simulate", "--config", cfg, "--out", tmp_path / "bad")
        captured = capsys.readouterr()
        assert rc != 0
        line = [ln for ln in captured.err.splitlines() if ln][0]
        assert line.startswith("error: validation:")
        assert "trials" in line and "snr" in line

    def test_config_with_byte_order_mark(self, tmp_path):
        from mfirange.cli import parse_kv_file

        cfg = self.write_campaign(tmp_path)
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        assert parse_kv_file(bom) == parse_kv_file(cfg)

    def test_unknown_keys_are_refused(self, tmp_path, capsys):
        # Misspelt optional keys would otherwise run with their defaults.
        cfg = self.write_campaign(tmp_path, refien="true", stepm="0.5")
        rc = run_cli("simulate", "--config", cfg, "--out", tmp_path / "bad")
        lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
        assert rc == 2 and len(lines) == 1
        assert lines[0].startswith("error: validation:")
        assert "unknown key 'refien'" in lines[0] and "unknown key 'stepm'" in lines[0]
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("seed", ["-5", "18446744073709551621"])
    def test_seed_outside_64_bits_refused(self, tmp_path, capsys, seed):
        # The Philox key word is 64 bits; a wider seed would run another
        # seed's draws under its own name in the seed column.
        cfg = self.write_campaign(tmp_path, seed=seed)
        rc = run_cli("simulate", "--config", cfg, "--out", tmp_path / "bad")
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: validation: seed must be in [0, 2**64), got {seed}\n"
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize(
        "key, value, problem",
        [("snr_db", "10,nan", f"{SNR_REFUSED}, got nan"),
         ("snr_db", "-inf", f"{SNR_REFUSED}, got -inf"),
         ("snr_db", "inf,20", f"{SNR_REFUSED}, got inf"),
         ("snr_db", "4000,20", f"{SNR_REFUSED}, got 4000.0"),
         ("snr_db", "-4000", f"{SNR_REFUSED}, got -4000.0"),
         ("q0_m", "nan", "q0 must be finite, got nan"),
         ("q0_m", "inf", "q0 must be finite, got inf")],
    )
    def test_bad_snr_and_q0_are_validation_errors(self, tmp_path, capsys, key, value, problem):
        # Listed with every other problem before any block is drawn; at
        # +inf dB (or above about 3231 dB, where sigma_theta underflows to
        # 0) every block would be drawn noise-free.
        cfg = self.write_campaign(tmp_path, trials="0", **{key: value})
        rc = run_cli("simulate", "--config", cfg, "--out", tmp_path / "bad")
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1
        assert err.startswith("error: validation:")
        assert problem in err and "trials must be >= 1" in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize(
        "value, refine",
        [("true", True), ("TRUE", True), ("Yes", True), ("1", True),
         ("false", False), ("No", False), ("0", False),
         ("on", None), ("ture", None), ("", None), ("2", None)],
    )
    def test_refine_takes_only_booleans(self, tmp_path, capsys, value, refine):
        from mfirange.cli import _campaign_from_config, parse_kv_file

        cfg = self.write_campaign(tmp_path, refine=value)
        if refine is not None:
            spec, _ = _campaign_from_config(parse_kv_file(cfg), cfg)
            assert spec.estimator.refine is refine
            return
        rc = run_cli("simulate", "--config", cfg, "--out", tmp_path / "bad")
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith(f"error: validation: bad value for 'refine': {value!r}")

    def test_ambiguity_takes_one_snr(self, tmp_path, capsys):
        # The ambiguity tables have no SNR column; a second SNR is refused
        # in the same one-line report as every other campaign problem.
        cfg = self.write_campaign(tmp_path, kind="ambiguity", snr_db="0,10,20", trials="0")
        rc = run_cli("simulate", "--config", cfg, "--out", tmp_path / "bad")
        lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
        assert rc != 0 and len(lines) == 1
        assert lines[0].startswith("error: validation:")
        assert "snr_db" in lines[0] and "trials" in lines[0]
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("kind", ["mse", "pf", "ambiguity", "pumr"])
    def test_one_synthesis_and_estimate_per_block(self, tmp_path, monkeypatch, kind):
        from mfirange import design_rips, montecarlo

        write_plan_file(tmp_path / "rips11.plan", design_rips(400.3e6, 20e6, 11, c=C_PAPER))
        snr_db = "0" if kind == "ambiguity" else "0,10"
        cfg = self.write_campaign(
            tmp_path, kind=kind, snr_db=snr_db, trials="5", refine="true",
            **{"plan.rips11": "rips11.plan"},
        )
        synthesized, configs, specs = [], [], []
        synth, batch, errors = (
            montecarlo.synth_trial_matrix, montecarlo.ls_estimate_batch, montecarlo.campaign_errors
        )

        def spy_synth(plan, q0, noise, seed, label, snr_index, trials):
            synthesized.append((label, snr_index))
            return synth(plan, q0, noise, seed, label, snr_index, trials)

        def spy_batch(phases, plan, cfg, *args, **kwargs):
            configs.append(cfg)
            return batch(phases, plan, cfg, *args, **kwargs)

        def spy_errors(spec):
            specs.append(spec)
            return errors(spec)

        monkeypatch.setattr(montecarlo, "synth_trial_matrix", spy_synth)
        monkeypatch.setattr(montecarlo, "ls_estimate_batch", spy_batch)
        monkeypatch.setattr(montecarlo, "campaign_errors", spy_errors)
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "o") == 0
        # Each (plan, SNR index) block is drawn from its own stream once and
        # estimated once, with the config's estimator.
        snrs = range(len(snr_db.split(",")))
        assert synthesized == [(label, si) for label in ("rips", "rips11") for si in snrs]
        assert len(configs) == len(synthesized)
        assert all(c == EstimatorConfig(-150.0, 150.0, 0.05, refine=True) for c in configs)
        if kind == "ambiguity":
            (spec,) = specs
            assert spec.estimator.refine

    def test_json_output(self, tmp_path):
        cfg = self.write_campaign(tmp_path, kind="mse", snr_db="20", trials="10")
        run_cli("simulate", "--config", cfg, "--out", tmp_path / "j", "--format", "json")
        rows = json.loads((tmp_path / "j" / "mse.json").read_text())
        assert rows[0]["label"] == "rips" and rows[0]["metric"] == "mse"


class TestEstimateReplay:
    def make_record(self, tmp_path, with_q0=True, drop_row=False):
        from mfirange import design_rips

        # The estimate can only be held to the right carrier cycle when the
        # moderate-SNR error leaves lambda_min/2 far out.  Uniform plan,
        # N = 21 over 20 MHz: quadform = (1 MHz)^2 N (N^2 - 1)/12 = 7.7e14 Hz^2,
        # and 25 dB gives sigma_theta = sqrt(10**-2.5 / 2) = 0.0398 rad, so
        # sqrt(mmse) = c sigma_theta / (2 pi sqrt(quadform)) = 0.068 m
        # against lambda_min/2 = c / (2 * 430 MHz) = 0.349 m: 5.1 sigma.
        plan = design_rips(410e6, 20e6, 21, c=C_PAPER)
        rng = np.random.Generator(np.random.Philox(key=6))
        exps = [
            Experiment(
                f"e{i}",
                synth_phases(plan, 19.19, NoiseModel.phase_gaussian(snr_db=25.0), rng).as_array(),
                19.19 if with_q0 else None,
            )
            for i in range(4)
        ]
        path = tmp_path / "rec.csv"
        write_record(path, plan, exps)
        if drop_row:
            lines = path.read_text().splitlines()
            victim = next(i for i, ln in enumerate(lines) if ln.startswith("e2,"))
            del lines[victim]
            path.write_text("\n".join(lines) + "\n")
        return path

    def test_replay_estimates_ground_truth(self, tmp_path):
        rec = self.make_record(tmp_path)
        rc = run_cli(
            "replay", "--record", rec, "--lo", 10, "--hi", 30, "--step", 0.002,
            "--out", tmp_path / "rep",
        )
        assert rc == 0
        lines = (tmp_path / "rep" / "rec_estimates.csv").read_text().splitlines()
        assert len(lines) == 5
        for ln in lines[1:]:
            fields = ln.split(",")
            assert abs(float(fields[1]) - 19.19) < 0.05
            assert fields[4] == "1"  # unwrap_ok
        summary = dict(
            ln.split(",", 1) for ln in (tmp_path / "rep" / "rec_summary.csv").read_text().splitlines()[1:]
        )
        assert float(summary["mse_m2"]) < 0.01

    def test_replay_missing_row_names_experiment(self, tmp_path, capsys):
        rec = self.make_record(tmp_path, drop_row=True)
        rc = run_cli(
            "replay", "--record", rec, "--lo", 10, "--hi", 30, "--step", 0.01,
            "--out", tmp_path / "rep",
        )
        captured = capsys.readouterr()
        assert rc != 0
        line = [ln for ln in captured.err.splitlines() if ln][0]
        assert line.startswith("error: record-format:") and "e2" in line

    def test_replay_long_field_is_record_format_error(self, tmp_path, capsys):
        rec = self.make_record(tmp_path)
        text = rec.read_text()
        rec.write_text(text.replace("e2,", "e" * 200_000 + ",", 1))
        rc = run_cli(
            "replay", "--record", rec, "--lo", 10, "--hi", 30, "--step", 0.01,
            "--out", tmp_path / "rep",
        )
        err = capsys.readouterr().err
        # N = 21: e2's first row is data row 43.
        assert rc == 2 and err.startswith("error: record-format: data row 43: field larger than")

    def test_estimate_inline_phases(self, tmp_path, capsys):
        plan = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1, 1), c=C_PAPER)
        write_plan_file(tmp_path / "p.plan", plan)
        pv = synth_phases(plan, 5.0, NoiseModel.none())
        rc = run_cli(
            "estimate", "--plan", tmp_path / "p.plan",
            "--phases", ",".join(repr(float(x)) for x in pv.as_array()),
            "--lo", 0, "--hi", 10, "--step", 0.001,
        )
        out = capsys.readouterr().out
        assert rc == 0
        q_hat = float(out.splitlines()[0].split("=")[1])
        assert q_hat == pytest.approx(5.0, abs=1e-9)

    @pytest.mark.parametrize("lo", ["-1e0", "-2.5E+0", "-1.", "-.5e1", "-2"])
    def test_negative_values_in_any_float_syntax(self, tmp_path, capsys, lo):
        # argparse alone reads only -2 as a number and -1e0 as a new flag.
        rec = self.make_record(tmp_path)
        plan = tmp_path / "p.plan"
        write_plan_file(plan, FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1, 1), c=C_PAPER))
        for argv in (["estimate", "--plan", plan, "--phases", "-1.5e-1,2e-1,-0.3"],
                     ["replay", "--record", rec, "--out", tmp_path / "rep"]):
            outputs = []
            for lo_args in (["--lo", lo], [f"--lo={lo}"]):
                assert run_cli(*argv, *lo_args, "--hi", 30, "--step", 0.01) == 0
                outputs.append(capsys.readouterr().out)
                if argv[0] == "replay":
                    outputs.append((tmp_path / "rep" / "rec_estimates.csv").read_bytes())
            assert outputs[: len(outputs) // 2] == outputs[len(outputs) // 2 :]

    @pytest.mark.parametrize(
        "args, message",
        [(["--record", "missing.csv"], "--experiment is required with --record"),
         (["--phases", "0.1,0.2"], "--plan is required with --phases"),
         (["--phases", "0.1,0.2", "--record", "missing.csv"], "give exactly one of --phases / --record"),
         ([], "give exactly one of --phases / --record")],
    )
    def test_estimate_usage_checked_before_files(self, tmp_path, capsys, args, message):
        # No file is read, so the missing record is not what is reported.
        rc = run_cli("estimate", *args, "--lo", 0, "--hi", 10, "--step", 0.01)
        assert rc == 2
        assert capsys.readouterr().err == f"error: usage: {message}\n"

    def test_estimate_from_record(self, tmp_path, capsys):
        rec = self.make_record(tmp_path)
        argv = ["estimate", "--record", rec, "--lo", 10, "--hi", 30, "--step", 0.002]
        assert run_cli(*argv, "--experiment", "e2") == 0
        out = capsys.readouterr().out
        record = read_record(rec)
        exp = next(e for e in record.experiments if e.experiment_id == "e2")
        est = ls_estimate(exp.phases, record.plan, EstimatorConfig(10.0, 30.0, 0.002))
        assert out == f"q_hat_m = {est.q_hat!r}\ncost_at_min = {est.cost_at_min!r}\n"
        assert run_cli(*argv, "--experiment", "e9") == 2
        assert capsys.readouterr().err == "error: record: experiment 'e9' not found\n"

    def test_estimate_nan_phase_is_invalid_value(self, tmp_path, capsys):
        write_plan_file(tmp_path / "p.plan", FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1, 1)))
        rc = run_cli(
            "estimate", "--plan", tmp_path / "p.plan", "--phases", "0.1,nan,0.3",
            "--lo", 0, "--hi", 10, "--step", 0.01,
        )
        assert rc != 0
        assert capsys.readouterr().err.startswith("error: invalid-value:")

    def test_estimate_phases_without_value_is_usage_error(self, tmp_path, capsys):
        write_plan_file(tmp_path / "p.plan", FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1,)))
        for tail in (["--phases", "--lo", "0"], ["--lo", "0", "--phases"]):
            rc = run_cli("estimate", "--plan", tmp_path / "p.plan", "--hi", 10, "--step", 0.1, *tail)
            assert rc != 0
            assert capsys.readouterr().err.startswith("error: usage: argument --phases")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--plan", "{plan}", "--seed", "1"],
        ["analyze", "--plan", "{plan}", "--c-mode", "exact"],
        ["estimate", "--plan", "{plan}", "--phases", "0.1,0.2", "--lo", "0", "--hi", "1",
         "--step", "0.01", "--out", "x"],
        ["estimate", "--plan", "{plan}", "--phases", "0.1,0.2", "--lo", "0", "--hi", "1",
         "--step", "0.01", "--format", "json"],
    ],
)
def test_subcommands_refuse_flags_they_do_not_read(tmp_path, capsys, argv):
    # --seed and --c-mode belong to design alone; estimate prints to stdout.
    plan = tmp_path / "p.plan"
    write_plan_file(plan, FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1,), c=C_PAPER))
    rc = run_cli(*[a.format(plan=plan) for a in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: usage:")
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["plan", "config"])
def test_line_without_equals_sign_is_config_error(tmp_path, capsys, kind):
    path = tmp_path / f"x.{kind}"
    path.write_text("# comment\nf1_hz = 400e6\nspacings_grid 1,2\n")
    argv = ["analyze", "--plan", path] if kind == "plan" else ["simulate", "--config", path, "--out", tmp_path / "o"]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: config: {path}:3: expected 'key = value'\n"


def test_python_dash_m_entry_point(tmp_path):
    env = {"PYTHONPATH": str(Path(mfirange.__file__).parents[1]), "PATH": os.environ.get("PATH", "")}
    run = [sys.executable, "-m", "mfirange"]
    ok = subprocess.run([*run, "--help"], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert ok.returncode == 0 and ok.stdout.startswith("usage: mfirange")
    bad = subprocess.run([*run, "design"], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.count("\n") == 1 and bad.stderr.startswith("error: usage:")


@pytest.mark.parametrize("method, res", [("prime-min-error", "1e-20"), ("prime-max-error", "1e-299")])
def test_prime_design_of_a_huge_quotient_ends(tmp_path, method, res):
    # B / resolution = 2e27 and 2e306: the common factor was counted up one
    # step at a time from the float quotient, about K * 2^-52 steps, and ran
    # for hours.  In a subprocess with a timeout, so a regression fails
    # instead of hanging the suite.
    env = {"PYTHONPATH": str(Path(mfirange.__file__).parents[1]), "PATH": os.environ.get("PATH", "")}
    argv = [sys.executable, "-m", "mfirange", "design", "--method", method, "--B", "20e6",
            "--N", "5", "--f1", "400e6", "--res", res, "--skip-sidelobe", "--out", str(tmp_path)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert done.returncode == 0, done.stderr
    report = dict(line.split(",", 1) for line in (tmp_path / f"{method}_report.csv").read_text().splitlines())
    k, r = int(report["design_tuple_common_factor_k"]), float(res)
    assert report["primes"] == "2 3 5 7"
    assert k * r * 17 <= 20e6 < (k + 1) * r * 17 and k > 2**60
