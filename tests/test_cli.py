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


# The environment of a ``python -m mfirange`` subprocess: this one's, so
# settings such as PYTHONDONTWRITEBYTECODE carry over, with the package on
# the path.
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(mfirange.__file__).parents[1])}


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

    def test_failing_report_writes_no_plan(self, tmp_path, capsys):
        # B = 1e-300 designs a plan whose mainlobe width is inf, which the
        # report refuses; the plan was written before the report was built.
        argv = ["design", "--method", "rips", "--f1", "400e6", "--B", "1e-300", "--N", "21",
                "--label", "tiny"]
        assert run_cli(*argv, "--out", tmp_path / "new") == 2
        message = "error: invalid-value: mainlobe_width must be finite and positive, got inf\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "new").exists()
        earlier = tmp_path / "old" / "tiny.plan"
        earlier.parent.mkdir()
        earlier.write_text("# an earlier plan\n", encoding="utf-8")
        assert run_cli(*argv, "--out", earlier.parent) == 2
        assert capsys.readouterr().err == message
        assert list(earlier.parent.iterdir()) == [earlier]
        assert earlier.read_text(encoding="utf-8") == "# an earlier plan\n"

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
        from mfirange import batch_slice, design_rips, montecarlo

        write_plan_file(tmp_path / "rips11.plan", design_rips(400.3e6, 20e6, 11, c=C_PAPER))
        snr_db = "0" if kind == "ambiguity" else "0,10"
        cfg = self.write_campaign(
            tmp_path, kind=kind, snr_db=snr_db, trials="5", refine="true",
            **{"plan.rips11": "rips11.plan"},
        )
        synthesized, calls, specs = [], [], []
        synth, batch, errors = (
            montecarlo.synth_trial_matrix, montecarlo.ls_estimate_batch, montecarlo.campaign_errors
        )

        def spy_synth(plan, q0, noise, seed, label, snr_index, trials):
            phases = synth(plan, q0, noise, seed, label, snr_index, trials)
            synthesized.append((label, snr_index, plan, phases.copy()))
            return phases

        def spy_batch(phases, plan, cfg, *args, **kwargs):
            calls.append((np.array(phases), plan, cfg))
            return batch(phases, plan, cfg, *args, **kwargs)

        def spy_errors(spec):
            specs.append(spec)
            return errors(spec)

        monkeypatch.setattr(montecarlo, "synth_trial_matrix", spy_synth)
        monkeypatch.setattr(montecarlo, "ls_estimate_batch", spy_batch)
        monkeypatch.setattr(montecarlo, "campaign_errors", spy_errors)
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "o") == 0
        # Each (plan, SNR index) block is drawn from its own stream once, in
        # order, and estimated with the config's estimator.
        snrs = range(len(snr_db.split(",")))
        assert [(label, si) for label, si, _, _ in synthesized] == [
            (label, si) for label in ("rips", "rips11") for si in snrs
        ]
        assert all(c == EstimatorConfig(-150.0, 150.0, 0.05, refine=True) for _, _, c in calls)
        # Each call holds whole consecutive blocks of one plan, as many as fit
        # in max(trials, S) rows, S being the search's slice: a call ends at
        # its plan's last block or where the next block would not fit.  The
        # calls, in order, hold every block once, so every trial is
        # estimated exactly once.
        pending = list(synthesized)
        for phases, plan, c in calls:
            rows, cap = phases.shape[0], max(5, batch_slice(plan, c))
            assert 0 < rows <= cap
            label = pending[0][0]
            while phases.shape[0]:
                block_label, _, block_plan, block = pending.pop(0)
                assert (block_label, block_plan) == (label, plan)
                assert np.array_equal(phases[:5], block)
                phases = phases[5:]
            assert not pending or pending[0][0] != label or rows + 5 > cap
        assert not pending
        if kind == "ambiguity":
            (spec,) = specs
            assert spec.estimator.refine

    def test_json_output(self, tmp_path):
        cfg = self.write_campaign(tmp_path, kind="mse", snr_db="20", trials="10")
        run_cli("simulate", "--config", cfg, "--out", tmp_path / "j", "--format", "json")
        rows = json.loads((tmp_path / "j" / "mse.json").read_text())
        assert rows[0]["label"] == "rips" and rows[0]["metric"] == "mse"

    def test_json_writes_null_for_a_non_finite_value(self, tmp_path):
        # At -30 dB both trials are outliers, so mse_excl_outlier averages
        # no trial and is NaN.  JSON has no NaN: the file says null, and the
        # CSV keeps nan.
        cfg = self.write_campaign(
            tmp_path, kind="mse", snr_db="-30", trials="2", seed="5",
            search_lo_m="-3", search_hi_m="3", step_m="0.01",
        )
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "j", "--format", "json") == 0
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "c") == 0

        def refuse(name):
            raise AssertionError(f"{name} is not JSON")

        rows = json.loads((tmp_path / "j" / "mse.json").read_text(), parse_constant=refuse)
        excl = next(row for row in rows if row["metric"] == "mse_excl_outlier")
        assert excl["value"] is None and excl["trials"] == 0
        assert all(row["value"] is not None for row in rows if row is not excl)
        csv_rows = (tmp_path / "c" / "mse.csv").read_text().splitlines()
        assert any(ln.startswith("rips,-30.0,mse_excl_outlier,nan,") for ln in csv_rows)


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

    def test_estimate_wrong_phase_count_names_both_counts(self, tmp_path, capsys):
        write_plan_file(tmp_path / "p.plan", FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1,) * 20))
        rc = run_cli(
            "estimate", "--plan", tmp_path / "p.plan", "--phases", "0.1,0.2",
            "--lo", 0, "--hi", 10, "--step", 0.01,
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: invalid-value: phase vector has 2 phases, but the plan has 21 frequencies\n"

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


def _reference_estimates(record, cfg, fmt) -> bytes:
    """The replay estimates table built and written a row at a time: one
    list of values per experiment, each cell formatted on its own."""
    import csv
    import io

    from mfirange.estimator import ls_estimate_batch, unwrap_ok

    plan = record.plan
    header = ["experiment_id", "q_hat_m", "q0_m", "error_m", "unwrap_ok", "cost_at_min"]
    phases = np.array([e.phases for e in record.experiments]).reshape(-1, plan.n)
    q_hat, cost, _ = ls_estimate_batch(phases, plan, cfg)
    rows = []
    for t, e in enumerate(record.experiments):
        known = e.q0 is not None
        err = float(q_hat[t]) - e.q0 if known else None
        ok = int(unwrap_ok(float(q_hat[t]), e.q0, plan)) if known else None
        rows.append([e.experiment_id, float(q_hat[t]), e.q0, err, ok, float(cost[t])])
    if fmt == "json":
        payload = [
            {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in zip(header, row)}
            for row in rows
        ]
        return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode()
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue().encode()


class TestReplayEstimatesTable:
    """The replay estimates table, written by column in slices of rows,
    against the row-at-a-time reference, byte for byte."""

    PLAN = FrequencyPlan(f1=400e6, resolution=1e6, spacings=(1, 2, 1), c=C_PAPER)
    WINDOW = ["--lo", "-2", "--hi", "2", "--step", "0.01", "--refine"]

    def replay(self, tmp_path, exps, fmt):
        rec = tmp_path / "rec.csv"
        write_record(rec, self.PLAN, exps)
        out = tmp_path / f"out_{fmt}"
        assert run_cli("replay", "--record", rec, "--out", out, "--format", fmt, *self.WINDOW) == 0
        expected = _reference_estimates(
            read_record(rec), EstimatorConfig(-2.0, 2.0, 0.01, refine=True), fmt
        )
        return (out / f"rec_estimates.{fmt}").read_bytes(), expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("write_rows", [1, 7, 256])
    def test_matches_reference_writer(self, tmp_path, monkeypatch, fmt, write_rows):
        from mfirange import cli

        monkeypatch.setattr(cli, "_WRITE_ROWS", write_rows)
        rng = np.random.default_rng(3)
        q0s = rng.uniform(-2.0, 2.0, 530).tolist()
        q0s[:2] = [-0.0, 1e3]  # a negative zero, and one far off (unwrap_ok 0)
        ids = ["a,b", 'q"t', "x y"]  # csv quotes the first two
        # Every third experiment has no q0: its error and unwrap_ok cells are empty.
        exps = [
            Experiment(ids[k] if k < len(ids) else f"e{k:03d}", rng.uniform(-3.0, 3.0, self.PLAN.n),
                       None if k % 3 == 2 else q0s[k])
            for k in range(530)
        ]
        got, expected = self.replay(tmp_path, exps, fmt)
        assert got == expected

    @pytest.mark.parametrize(
        "fmt, text",
        [("csv", "experiment_id,q_hat_m,q0_m,error_m,unwrap_ok,cost_at_min\r\n"), ("json", "[]\n")],
    )
    def test_header_only_record(self, tmp_path, fmt, text):
        got, expected = self.replay(tmp_path, [], fmt)
        assert got == expected == text.encode()


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


@pytest.mark.parametrize("lo, hi, step", [("-1e308", "1e308", "1"), ("-1e300", "1e300", "1e-300")])
def test_window_whose_grid_cannot_be_counted(tmp_path, capsys, lo, hi, step):
    # hi - lo, or (hi - lo) / step, overflows to inf: sizing the grid ended
    # in an OverflowError traceback.
    problem = "search window holds too many grid steps to count"
    rec = TestEstimateReplay().make_record(tmp_path)
    window = ["--lo", lo, "--hi", hi, "--step", step]
    for argv in (["estimate", "--record", rec, "--experiment", "e1"],
                 ["replay", "--record", rec, "--out", tmp_path / "rep"]):
        assert run_cli(*argv, *window) == 2
        assert capsys.readouterr().err == f"error: invalid-value: {problem}\n"
    cfg = TestSimulate().write_campaign(tmp_path, search_lo_m=lo, search_hi_m=hi, step_m=step)
    capsys.readouterr()
    assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "sim") == 2
    assert capsys.readouterr().err == f"error: validation: {problem}\n"
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize(
    "exc, line",
    [(MemoryError("Unable to allocate 1.46 TiB for an array with shape (200000000001,)"),
      "Unable to allocate 1.46 TiB for an array with shape (200000000001,)"),
     (MemoryError(), "out of memory")],
)
def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, exc, line):
    # A finite window too large to allocate (--lo -1e9 --hi 1e9 --step 0.01
    # is 2e11 cells) ended in numpy's MemoryError traceback.  Raised here,
    # not allocated.
    from mfirange import cli

    def out_of_memory(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_estimate", out_of_memory)
    rc = run_cli("estimate", "--plan", tmp_path / "p.plan", "--phases", "0.1,0.2",
                 "--lo", "-1e9", "--hi", "1e9", "--step", "0.01")
    assert rc == 2
    assert capsys.readouterr().err == f"error: out-of-memory: {line}\n"


@pytest.mark.parametrize("kind", ["plan", "config"])
def test_line_without_equals_sign_is_config_error(tmp_path, capsys, kind):
    path = tmp_path / f"x.{kind}"
    path.write_text("# comment\nf1_hz = 400e6\nspacings_grid 1,2\n")
    argv = ["analyze", "--plan", path] if kind == "plan" else ["simulate", "--config", path, "--out", tmp_path / "o"]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: config: {path}:3: expected 'key = value'\n"


def test_python_dash_m_entry_point(tmp_path):
    run = [sys.executable, "-m", "mfirange"]
    opts = dict(capture_output=True, text=True, env=SUBPROCESS_ENV, cwd=tmp_path, timeout=60)
    ok = subprocess.run([*run, "--help"], **opts)
    assert ok.returncode == 0 and ok.stdout.startswith("usage: mfirange")
    bad = subprocess.run([*run, "design"], **opts)
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.count("\n") == 1 and bad.stderr.startswith("error: usage:")


@pytest.mark.parametrize("method, res", [("prime-min-error", "1e-20"), ("prime-max-error", "1e-299")])
def test_prime_design_of_a_huge_quotient_ends(tmp_path, method, res):
    # B / resolution = 2e27 and 2e306: the common factor was counted up one
    # step at a time from the float quotient, about K * 2^-52 steps, and ran
    # for hours.  In a subprocess with a timeout, so a regression fails
    # instead of hanging the suite.
    argv = [sys.executable, "-m", "mfirange", "design", "--method", method, "--B", "20e6",
            "--N", "5", "--f1", "400e6", "--res", res, "--skip-sidelobe", "--out", str(tmp_path)]
    done = subprocess.run(
        argv, capture_output=True, text=True, env=SUBPROCESS_ENV, cwd=tmp_path, timeout=60
    )
    assert done.returncode == 0, done.stderr
    report = dict(line.split(",", 1) for line in (tmp_path / f"{method}_report.csv").read_text().splitlines())
    k, r = int(report["design_tuple_common_factor_k"]), float(res)
    assert report["primes"] == "2 3 5 7"
    assert k * r * 17 <= 20e6 < (k + 1) * r * 17 and k > 2**60
