import math

import numpy as np
import pytest

from mfirange import (
    C_PAPER,
    EstimatorConfig,
    FrequencyPlan,
    NoiseModel,
    RecordFormatError,
    ls_estimate,
    read_record,
    synth_phases,
    write_record,
)
from mfirange.cli import CliError, read_plan_file, write_plan_file
from mfirange.records import Experiment

TWO_PI = 2 * math.pi


@pytest.fixture()
def plan():
    return FrequencyPlan(f1=410e6, resolution=65.0, spacings=(7400, 8200, 9400), c=C_PAPER)


def make_record(tmp_path, plan, experiments, name="rec.csv"):
    path = tmp_path / name
    write_record(path, plan, experiments)
    return path


class TestRoundTrip:
    def test_write_read_exact(self, tmp_path, plan):
        rng = np.random.Generator(np.random.Philox(key=2))
        exps = []
        for i in range(3):
            pv = synth_phases(plan, 19.19, NoiseModel.phase_gaussian(snr_db=20.0), rng)
            exps.append(Experiment(experiment_id=f"e{i}", phases=pv.as_array(), q0=19.19))
        path = make_record(tmp_path, plan, exps)
        rec = read_record(path)
        assert rec.plan == plan
        assert len(rec.experiments) == 3
        for orig, back in zip(exps, rec.experiments):
            assert back.experiment_id == orig.experiment_id
            assert np.array_equal(back.phases, orig.phases)
            assert back.q0 == orig.q0

    def test_optional_ground_truth(self, tmp_path, plan):
        pv = synth_phases(plan, 1.0, NoiseModel.none())
        path = make_record(tmp_path, plan, [Experiment("solo", pv.as_array(), None)])
        rec = read_record(path)
        assert rec.experiments[0].q0 is None


class TestValidation:
    def test_missing_frequency_names_experiment(self, tmp_path, plan):
        pv = synth_phases(plan, 1.0, NoiseModel.none())
        path = make_record(tmp_path, plan, [Experiment("full", pv.as_array(), None)])
        lines = path.read_text().splitlines()
        trimmed = [ln for ln in lines if not ln.startswith("full,{!r}".format(float(plan.frequencies[2])))]
        assert len(trimmed) == len(lines) - 1
        path.write_text("\n".join(trimmed) + "\n")
        with pytest.raises(RecordFormatError, match="full"):
            read_record(path)

    def test_duplicate_frequency_rejected(self, tmp_path, plan):
        pv = synth_phases(plan, 1.0, NoiseModel.none())
        path = make_record(tmp_path, plan, [Experiment("dup", pv.as_array(), None)])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"dup,{float(plan.frequencies[0])!r},0.0\n")
        with pytest.raises(RecordFormatError, match="dup"):
            read_record(path)

    def test_unknown_frequency_rejected(self, tmp_path, plan):
        pv = synth_phases(plan, 1.0, NoiseModel.none())
        path = make_record(tmp_path, plan, [Experiment("ok", pv.as_array(), None)])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("bad,123456.0,0.0\n")
        with pytest.raises(RecordFormatError, match="bad"):
            read_record(path)

    def test_phase_out_of_range_rejected(self, tmp_path, plan):
        path = tmp_path / "r.csv"
        pv = synth_phases(plan, 1.0, NoiseModel.none())
        write_record(path, plan, [Experiment("ok", pv.as_array(), None)])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"wild,{float(plan.frequencies[0])!r},3.5\n")
        with pytest.raises(RecordFormatError, match="wild"):
            read_record(path)

    def test_inconsistent_ground_truth_rejected(self, tmp_path, plan):
        path = tmp_path / "r.csv"
        freqs = plan.frequencies
        rows = ["# f1_hz = {!r}".format(plan.f1),
                "# resolution_hz = {!r}".format(plan.resolution),
                "# spacings_grid = " + ",".join(str(k) for k in plan.spacings),
                "# c_mode = paper-repro"]
        rows += [f"e,{float(f)!r},0.0,{q}" for f, q in zip(freqs, (1.0, 1.0, 2.0, 1.0))]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(RecordFormatError, match="inconsistent"):
            read_record(path)


class TestBiasReplay:
    def test_frequency_proportional_bias_shifts_estimate_exactly(self, tmp_path, plan):
        # A per-frequency bias 2*pi*delta*f/c is indistinguishable from a
        # range shift of delta, so the estimate must move by exactly delta.
        delta = 0.75
        bias = tuple(TWO_PI * delta * f / plan.c for f in plan.frequencies)
        q0 = 10.0
        clean = synth_phases(plan, q0, NoiseModel.none())
        biased = synth_phases(plan, q0, NoiseModel(kind="none", bias=bias))
        path = make_record(
            tmp_path,
            plan,
            [Experiment("clean", clean.as_array(), q0), Experiment("biased", biased.as_array(), q0)],
        )
        rec = read_record(path)
        cfg = EstimatorConfig(0.0, 20.0, 0.005)
        q_clean = ls_estimate(rec.experiments[0].phases, rec.plan, cfg).q_hat
        q_biased = ls_estimate(rec.experiments[1].phases, rec.plan, cfg).q_hat
        assert q_clean == pytest.approx(q0, abs=1e-9)
        assert q_biased - q_clean == pytest.approx(delta, abs=1e-9)


class TestPlanHeaderCodec:
    """Plan files and phase records share one header codec; each keeps its
    own line syntax and error type."""

    @pytest.mark.parametrize("c", [C_PAPER, 2.5e8])
    def test_round_trip_through_both_formats(self, tmp_path, c):
        plan = FrequencyPlan(f1=400.1e6, resolution=65.0, spacings=(3, 1, 4), c=c)
        write_plan_file(tmp_path / "p.plan", plan)
        assert read_plan_file(tmp_path / "p.plan") == plan
        pv = synth_phases(plan, 2.0, NoiseModel.none())
        path = make_record(tmp_path, plan, [Experiment("e", pv.as_array(), 2.0)])
        assert read_record(path).plan == plan

    def test_missing_spacings_refused_by_both(self, tmp_path):
        keys = ["f1_hz = 400000000.0", "resolution_hz = 1000000.0", "c_mode = exact"]
        (tmp_path / "p.plan").write_text("\n".join(keys) + "\n")
        with pytest.raises(CliError, match="spacings_grid") as info:
            read_plan_file(tmp_path / "p.plan")
        assert info.value.code == "plan"
        (tmp_path / "r.csv").write_text("".join(f"# {k}\n" for k in keys) + "e,4e8,0.0\n")
        with pytest.raises(RecordFormatError, match="spacings_grid"):
            read_record(tmp_path / "r.csv")
