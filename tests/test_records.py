import csv
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from mfirange import records
from mfirange.cli import CliError, read_plan_file, write_plan_file
from mfirange.records import Experiment, PhaseRecord, _parse_header, plan_header

TWO_PI = 2 * math.pi
PLAN4 = FrequencyPlan(f1=410e6, resolution=65.0, spacings=(7400, 8200, 9400), c=C_PAPER)


@pytest.fixture()
def plan():
    return PLAN4


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

    def test_repeated_key_refused_by_both(self, tmp_path):
        keys = [f"{k} = {v}" for k, v in plan_header(PLAN4)] + ["f1_hz = 420000000.0"]
        (tmp_path / "p.plan").write_text("\n".join(keys) + "\n")
        with pytest.raises(CliError, match="duplicate key 'f1_hz'"):
            read_plan_file(tmp_path / "p.plan")
        rows = [f"e,{float(f)!r},0.0" for f in PLAN4.frequencies]
        (tmp_path / "r.csv").write_text("".join(f"# {k}\n" for k in keys) + "\n".join(rows) + "\n")
        with pytest.raises(RecordFormatError, match="duplicate key 'f1_hz'"):
            read_record(tmp_path / "r.csv")


def _reference_read_record(path) -> PhaseRecord:
    """The row-at-a-time parser that the columnar ``read_record`` replaced,
    kept as its reference: one csv reader and one argmin per data row."""
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                header.append(line)
            else:
                rows.append(next(csv.reader([line])))
    plan = _parse_header(header)
    freqs = plan.frequencies
    by_id: dict[str, dict] = {}
    order: list[str] = []
    for lineno, row in enumerate(rows, start=1):
        if len(row) not in (3, 4):
            raise RecordFormatError(f"data row {lineno}: expected 3 or 4 fields, got {len(row)}")
        exp_id = row[0]
        try:
            f = float(row[1])
            ph = float(row[2])
            q0 = float(row[3]) if len(row) == 4 else None
        except ValueError as exc:
            raise RecordFormatError(f"data row {lineno}: {exc}") from exc
        if not (-math.pi < ph <= math.pi) or not math.isfinite(ph):
            raise RecordFormatError(
                f"experiment {exp_id}: phase {ph} at {f} Hz outside (-pi, pi]"
            )
        idx = int(np.argmin(np.abs(freqs - f)))
        if abs(freqs[idx] - f) > max(1e-3, 1e-9 * freqs[idx]):
            raise RecordFormatError(
                f"experiment {exp_id}: frequency {f} Hz matches no plan frequency"
            )
        if exp_id not in by_id:
            by_id[exp_id] = {"phases": np.full(plan.n, np.nan), "q0": q0}
            order.append(exp_id)
        slot = by_id[exp_id]
        if not math.isnan(slot["phases"][idx]):
            raise RecordFormatError(
                f"experiment {exp_id}: frequency {freqs[idx]} Hz appears more than once"
            )
        slot["phases"][idx] = ph
        if q0 is not None:
            if slot["q0"] is not None and slot["q0"] != q0:
                raise RecordFormatError(f"experiment {exp_id}: inconsistent q0 values")
            slot["q0"] = q0
    experiments = []
    for exp_id in order:
        slot = by_id[exp_id]
        missing = np.isnan(slot["phases"])
        if missing.any():
            absent = ", ".join(repr(float(f)) for f in freqs[missing])
            raise RecordFormatError(
                f"experiment {exp_id}: missing phase rows for frequencies {absent}"
            )
        experiments.append(
            Experiment(experiment_id=exp_id, phases=slot["phases"], q0=slot["q0"])
        )
    return PhaseRecord(plan=plan, experiments=tuple(experiments))


def _outcome(parse, path):
    """What a parser makes of a file: its error message, or the record with
    phases and q0 compared bit for bit."""
    try:
        rec = parse(path)
    except RecordFormatError as exc:
        return ("error", str(exc))
    exps = [(e.experiment_id, repr(e.q0), e.phases.dtype, e.phases.tobytes()) for e in rec.experiments]
    return ("ok", rec.plan, exps)


def _csv_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


def _record_text(plan, lines) -> str:
    header = ["# mfirange phase record"] + [f"# {k} = {v}" for k, v in plan_header(plan)]
    return "\n".join(header + list(lines)) + "\n"


# Ids that csv must quote (commas, quotes), but no surrounding blanks (a
# line is stripped) and no leading '#' (a header line).
IDS = st.text(alphabet='ab7,"_ -', min_size=1, max_size=6).filter(
    lambda s: s == s.strip() and not s.startswith("#")
)
FILLERS = ["", "   ", "# a comment, with a comma", "#no space"]


@st.composite
def valid_rows(draw, plan=PLAN4):
    """Shuffled data rows of several experiments: mixed 3- and 4-field rows,
    frequencies within the match tolerance of their plan frequency."""
    rows = []
    for exp_id in draw(st.lists(IDS, min_size=1, max_size=5, unique=True)):
        q0 = draw(st.none() | st.floats(-1e3, 1e3, allow_nan=False))
        for f in plan.frequencies:
            ph = draw(st.floats(-math.pi, math.pi, exclude_min=True))
            jitter = draw(st.sampled_from([0.0, 0.2, -0.2, 0.4]))
            row = [exp_id, repr(float(f) + jitter), repr(ph)]
            if q0 is not None and draw(st.booleans()):
                row.append(repr(q0))
            rows.append(row)
    return draw(st.permutations(rows))


def _lines_with_fillers(draw, rows):
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(FILLERS), max_size=2))
        lines.append(_csv_line(row))
    return lines


CORRUPTIONS = (
    "drop",
    "duplicate",
    "field_count",
    "unparseable",
    "phase_range",
    "unknown_frequency",
    "q0_conflict",
)


def _corrupt(draw, rows, kind, i=None):
    """Apply one corruption in place, at row ``i`` if given; each one makes
    the record invalid."""
    whole = [k for k, row in enumerate(rows) if len(row) in (3, 4)]
    if i is None:
        i = draw(st.sampled_from(whole))
    row = list(rows[i])
    if kind == "drop":
        del rows[i]
        return
    if kind == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), row)
        return
    if kind == "field_count":
        row = (row + ["0.5"] * 3)[: draw(st.sampled_from([1, 2, 5, 6]))]
    elif kind == "unparseable":
        col = draw(st.integers(1, len(row) - 1))
        row[col] = draw(st.sampled_from(["", "abc", "1.2.3", "0x10", "1e", "--1"]))
    elif kind == "phase_range":
        row[2] = draw(st.sampled_from(["3.5", "-4.0", repr(-math.pi), "inf", "-inf", "nan"]))
    elif kind == "unknown_frequency":
        # Rows are jittered by up to 0.4 Hz and the tolerance is 0.41 Hz at
        # 410 MHz, so a shift of 1 Hz leaves every plan frequency's tolerance.
        f = float(row[1]) if _parses(row[1]) else 410e6
        row[1] = draw(st.sampled_from([repr(f + 1.0), repr(f - 1.0), "123456.0", "inf", "-1e300"]))
    else:  # q0_conflict: two rows of one experiment disagree
        others = [k for k in whole if k != i and rows[k][0] == row[0]]
        if not others:  # the experiment has one whole row left: give it a partner
            rows.append([row[0], row[1], row[2]])
            others = [len(rows) - 1]
        j = draw(st.sampled_from(others))
        row = row[:3] + ["1.5"]
        rows[j] = rows[j][:3] + ["2.5"]
    rows[i] = row


def _parses(text) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


@pytest.fixture(scope="module")
def record_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


class TestColumnarParser:
    """``read_record`` against the row-at-a-time reference: the same record,
    or the same error message for the same row or experiment."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_valid_records_match_reference(self, record_dir, data):
        rows = data.draw(valid_rows())
        path = record_dir / "valid.csv"
        path.write_text(_record_text(PLAN4, _lines_with_fillers(data.draw, rows)), encoding="utf-8")
        expected = _outcome(_reference_read_record, path)
        assert expected[0] == "ok"
        assert _outcome(read_record, path) == expected

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_malformed_records_raise_reference_message(self, record_dir, data):
        rows = [list(row) for row in data.draw(valid_rows())]
        kinds = data.draw(st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=2))
        # A drop applied after a duplicate could remove the copy again.
        for kind in sorted(kinds, key=CORRUPTIONS.index):
            _corrupt(data.draw, rows, kind)
        path = record_dir / "malformed.csv"
        path.write_text(_record_text(PLAN4, _lines_with_fillers(data.draw, rows)), encoding="utf-8")
        expected = _outcome(_reference_read_record, path)
        assert expected[0] == "error", kinds
        assert _outcome(read_record, path) == expected

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_frequency_match_agrees_with_argmin(self, record_dir, data):
        # A 2^-11 Hz grid puts two plan frequencies inside one tolerance
        # (1 mHz) with exact midpoints, and a 1e-9 Hz grid at 400 MHz rounds
        # three of them onto one value: ties and equal frequencies go to the
        # lower index, as argmin picks.
        plan = data.draw(st.sampled_from([
            FrequencyPlan(f1=1.0, resolution=2.0**-11, spacings=(1, 1, 2)),
            FrequencyPlan(f1=4e8, resolution=1e-9, spacings=(1, 1, 10**9)),
            PLAN4,
        ]))
        freqs = plan.frequencies
        mids = (freqs[:-1] + freqs[1:]) / 2
        tol = np.maximum(1e-3, 1e-9 * freqs)
        candidates = list(freqs) + list(mids) + list(freqs + tol) + list(freqs - 1.5 * tol)
        picks = data.draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=6))
        lines = [_csv_line(["e", repr(float(f)), "0.25"]) for f in picks]
        path = record_dir / "dense.csv"
        path.write_text(_record_text(plan, lines), encoding="utf-8")
        assert _outcome(read_record, path) == _outcome(_reference_read_record, path)

    @pytest.mark.parametrize(
        "lines",
        [
            [],
            ["", "# only a comment"],
            # A line that ends inside an open quote: csv closes it at the
            # line's end, so the row is e,<f>,0.5 and the next row stands.
            ['e,{f0},"0.5', "e,{f1},0.5", "e,{f2},0.5", "e,{f3},0.5"],
            ['e,{f0},"0.5', "e,{f1},0.5"],
            # Ids that differ only by a trailing NUL are two experiments.
            ["a,{f0},0.1", "a,{f1},0.1", "a,{f2},0.1", "a,{f3},0.1",
             "a\x00,{f0},0.1", "a\x00,{f1},0.1", "a\x00,{f2},0.1", "a\x00,{f3},0.1"],
            # Consistent q0 of +0.0 and -0.0: the last row's is kept.
            ["z,{f0},0.1,0.0", "z,{f1},0.1,-0.0", "z,{f2},0.1", "z,{f3},0.1"],
            # The first failing row wins, whatever its check.
            ["x,{f0},0.1", "x,{f0},9.0", "x,{f1},abc"],
            ["x,{f0},0.1,1", "x,{f1},0.1", "x,{f2},0.1,2", "x,{f2},0.1"],
            ["x,{f0},0.1,1,extra", "y,{f0},0.1,abc"],
            ["y,{f0},0.1,abc", "x,{f0},0.1,1,extra"],
        ],
    )
    def test_edge_files_match_reference(self, tmp_path, lines):
        names = {f"f{k}": repr(float(f)) for k, f in enumerate(PLAN4.frequencies)}
        path = tmp_path / "edge.csv"
        path.write_text(_record_text(PLAN4, [ln.format(**names) for ln in lines]), encoding="utf-8")
        assert _outcome(read_record, path) == _outcome(_reference_read_record, path)


class TestNonFinite:
    def _rows(self, freqs, q0=None):
        return [f"e1,{float(f)!r},0.1" + ("" if q0 is None else f",{q0}") for f in freqs]

    def test_nan_frequency_matches_no_plan_frequency(self, tmp_path):
        # argmin over an all-NaN distance array returns 0 and abs(nan) > tol
        # is False, so the row-at-a-time parser filled slot 0 with it.
        rows = self._rows(PLAN4.frequencies[1:]) + ["e1,nan,0.1"]
        path = tmp_path / "nan_freq.csv"
        path.write_text(_record_text(PLAN4, rows), encoding="utf-8")
        assert _reference_read_record(path).experiments[0].phases[0] == 0.1
        with pytest.raises(RecordFormatError) as info:
            read_record(path)
        assert str(info.value) == "experiment e1: frequency nan Hz matches no plan frequency"

    @pytest.mark.parametrize("q0", ["nan", "inf", "-inf"])
    def test_non_finite_q0_refused(self, tmp_path, q0):
        path = tmp_path / "q0.csv"
        path.write_text(_record_text(PLAN4, self._rows(PLAN4.frequencies, q0=q0)), encoding="utf-8")
        with pytest.raises(RecordFormatError) as info:
            read_record(path)
        assert str(info.value) == f"experiment e1: q0 {float(q0)} is not finite"

    def test_non_finite_q0_refused_after_finite_ones(self, tmp_path):
        rows = self._rows(PLAN4.frequencies, q0="2.0")
        rows[-1] = rows[-1][: rows[-1].rindex(",")] + ",inf"
        path = tmp_path / "q0_late.csv"
        path.write_text(_record_text(PLAN4, rows), encoding="utf-8")
        with pytest.raises(RecordFormatError, match=r"^experiment e1: q0 inf is not finite$"):
            read_record(path)


# Characters the record syntax gives a meaning to, mixed into generated ids.
ID_CHARS = st.one_of(
    st.sampled_from(["#", " ", "\t", "\n", "\r", ",", '"', "\x00", "\x0b", "\x1c", "\x85", " "]),
    st.characters(),
)
GOOD_PHASES = st.floats(-math.pi, math.pi).filter(lambda x: x > -math.pi)
BAD_IDS = ["", "#e1", " e2 ", "\te", "e\n3", "e\r3", "\re"]


def _good_id(eid: str) -> bool:
    return bool(eid) and eid[0] != "#" and eid == eid.lstrip() and not set(eid) & {"\n", "\r"}


READABLE = st.lists(
    st.builds(
        Experiment,
        st.text(ID_CHARS, min_size=1, max_size=6).filter(_good_id),
        st.lists(GOOD_PHASES, min_size=4, max_size=4).map(np.array),
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    ),
    max_size=5,
    unique_by=lambda e: e.experiment_id,
)


@st.composite
def maybe_unreadable(draw):
    """Readable experiments with one of them given any id, phase or q0, or
    an earlier experiment's id."""
    exps = draw(READABLE)
    if not exps:
        return exps
    k = draw(st.integers(0, len(exps) - 1))
    eid, phases, q0 = exps[k].experiment_id, exps[k].phases.copy(), exps[k].q0
    kind = draw(st.sampled_from(["id", "phase", "q0", "repeat"]))
    if kind == "id":
        eid = draw(st.one_of(st.sampled_from(BAD_IDS), st.text(ID_CHARS, max_size=4)))
    elif kind == "phase":
        phases[draw(st.integers(0, 3))] = draw(st.floats())
    elif kind == "q0":
        q0 = draw(st.floats())
    else:
        eid = exps[draw(st.integers(0, k))].experiment_id
    exps[k] = Experiment(eid, phases, q0)
    return exps


def _written_back(tmp_path, exps):
    """``read_record`` of ``write_record(exps)``, as comparable tuples."""
    path = tmp_path / "round_trip.csv"
    write_record(path, PLAN4, exps)
    rec = read_record(path)
    assert rec.plan == PLAN4
    return [(e.experiment_id, e.phases.tobytes(), repr(e.q0)) for e in rec.experiments]


def _as_written(exps):
    return [
        (e.experiment_id, np.asarray(e.phases, dtype=float).tobytes(),
         repr(None if e.q0 is None else float(e.q0)))
        for e in exps
    ]


class TestWriteRefusals:
    """``write_record`` refuses what ``read_record`` cannot read back as
    written, and names the experiment."""

    GOOD = np.array([0.1, -0.2, math.pi, 3.0])

    @pytest.mark.parametrize(
        "eid, phases, q0, problem",
        [
            ("", GOOD, None, "empty id"),
            ("#e1", GOOD, None, "starts with '#' or a blank"),
            (" e2 ", GOOD, None, "starts with '#' or a blank"),
            ("\te", GOOD, None, "starts with '#' or a blank"),
            ("e\n3", GOOD, None, "line break"),
            ("e\r3", GOOD, None, "line break"),
            ("e4", GOOD[:3], None, "needs 4 phases"),
            ("e5", [0.1, -math.pi, 0.0, 0.0], None, r"\(-pi, pi\]"),
            ("e6", [0.1, 3.5, 0.0, 0.0], None, r"\(-pi, pi\]"),
            ("e7", [0.1, math.nan, 0.0, 0.0], None, "must be finite"),
            ("e8", [0.1, math.inf, 0.0, 0.0], None, "must be finite"),
            ("e9", GOOD, math.nan, "q0 nan is not finite"),
            ("e10", GOOD, -math.inf, "q0 -inf is not finite"),
            pytest.param("e" * (csv.field_size_limit() + 1), GOOD, None, "field limit", id="long"),
        ],
    )
    def test_refused_and_named(self, tmp_path, eid, phases, q0, problem):
        path = tmp_path / "r.csv"
        exps = [Experiment("ok", self.GOOD, 1.0), Experiment(eid, np.asarray(phases), q0)]
        with pytest.raises(ValueError, match=r"^experiment " + re.escape(repr(eid)) + ": .*" + problem):
            write_record(path, PLAN4, exps)
        assert not path.exists()  # refused before anything is written

    def test_duplicate_id_refused(self, tmp_path):
        exps = [Experiment("e1", self.GOOD), Experiment("e2", self.GOOD), Experiment("e1", self.GOOD)]
        with pytest.raises(ValueError, match=r"^experiment 'e1': id appears more than once$"):
            write_record(tmp_path / "r.csv", PLAN4, exps)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(exps=READABLE)
    def test_readable_experiments_round_trip(self, record_dir, exps):
        assert _written_back(record_dir, exps) == _as_written(exps)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(exps=maybe_unreadable())
    def test_written_means_read_back_as_written(self, record_dir, exps):
        try:
            back = _written_back(record_dir, exps)
        except ValueError as exc:
            assert not isinstance(exc, RecordFormatError)
            assert any(str(exc).startswith(f"experiment {e.experiment_id!r}: ") for e in exps)
        else:
            assert back == _as_written(exps)


# Ids without a '"' that csv leaves unquoted, holding characters that
# str.splitlines would break a line at (NUL, \x0b, \x1c, \x85) and inner blanks.
SPLIT_IDS = st.text(st.sampled_from(["a", "7", "_", "-", "\x00", "\x0b", "\x1c", "\x85", " "]),
                    min_size=1, max_size=6).filter(_good_id)


class TestSplitPath:
    """Records without a '"', which ``read_record`` splits at their commas
    without csv, against the row-at-a-time reference."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_line_endings_match_reference(self, record_dir, data):
        exps = data.draw(st.lists(
            st.builds(Experiment, SPLIT_IDS, st.lists(GOOD_PHASES, min_size=4, max_size=4).map(np.array),
                      st.one_of(st.none(), st.floats(-1e3, 1e3))),
            min_size=1, max_size=4, unique_by=lambda e: e.experiment_id,
        ))
        path = record_dir / "split.csv"
        write_record(path, PLAN4, exps)
        lines = re.split(r"\r\n|\n", path.read_text(encoding="utf-8"))[:-1]
        header = [ln for ln in lines if ln.startswith("#")]
        rows = data.draw(st.permutations([ln for ln in lines if not ln.startswith("#")]))
        if data.draw(st.booleans()):
            rows = rows[1:]  # a missing frequency, named by its experiment
        ending = data.draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
        text = "".join(
            line + (data.draw(st.sampled_from(["\n", "\r\n", "\r"])) if ending == "mixed" else ending)
            for line in header + rows
        )
        assert '"' not in text
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(_reference_read_record, path)
        assert _outcome(read_record, path) == expected

    @pytest.mark.parametrize("eid, csv_calls", [("e\x85 1", 0), ('e"1', 1)])
    def test_csv_reads_only_records_with_a_quote(self, tmp_path, monkeypatch, eid, csv_calls):
        calls = []
        reader = csv.reader
        monkeypatch.setattr(records.csv, "reader", lambda *a: calls.append(a) or reader(*a))
        path = make_record(tmp_path, PLAN4, [Experiment(eid, TestWriteRefusals.GOOD, 1.0)])
        assert read_record(path).experiments[0].experiment_id == eid
        assert len(calls) == csv_calls


class TestLongFields:
    """A field longer than ``csv.field_size_limit()`` is a format error that
    names its data row, whether or not csv reads the record."""

    @pytest.mark.parametrize("last", ["x", '"'])
    def test_long_field_names_its_row(self, tmp_path, last):
        # An id that ends in '"' is quoted, so csv reads the record.
        limit = csv.field_size_limit()
        path = tmp_path / "long.csv"
        for size in (limit, limit + 1):
            eid = "x" * (size - 1) + last
            rows = [_csv_line([e, repr(float(f)), "0.1"]) for e in ("ok", eid) for f in PLAN4.frequencies]
            path.write_text(_record_text(PLAN4, rows), encoding="utf-8")
            if size == limit:
                assert [e.experiment_id for e in read_record(path).experiments] == ["ok", eid]
        with pytest.raises(RecordFormatError, match=rf"^data row 5: field larger than field limit \({limit}\)$"):
            read_record(path)


def test_byte_order_mark_is_skipped(tmp_path):
    path = make_record(tmp_path, PLAN4, [Experiment("e1", TestWriteRefusals.GOOD, 1.0)])
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert _outcome(read_record, bom) == _outcome(read_record, path)


@pytest.fixture(scope="class")
def one_line_chunks():
    """``read_record`` parses each line as its own chunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(records, "_CHUNK_CHARS", 1)
        yield


@pytest.mark.usefixtures("one_line_chunks")
class TestNonFiniteInOneLineChunks(TestNonFinite):
    pass


@pytest.mark.usefixtures("one_line_chunks")
class TestLongFieldsInOneLineChunks(TestLongFields):
    pass


def _plan4_lines(lines):
    names = {f"f{k}": repr(float(f)) for k, f in enumerate(PLAN4.frequencies)}
    return [ln.format(**names) for ln in lines]


@pytest.mark.usefixtures("one_line_chunks")
class TestOneLineChunks:
    """``read_record`` with every line its own chunk, so that each piece of
    state the parse carries from chunk to chunk is crossed."""

    test_edge_files_match_reference = TestColumnarParser.test_edge_files_match_reference

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_records_match_reference(self, record_dir, data):
        rows = [list(row) for row in data.draw(valid_rows())]
        kinds = data.draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=2))
        for kind in sorted(kinds, key=CORRUPTIONS.index):
            _corrupt(data.draw, rows, kind)
        ending = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        text = _record_text(PLAN4, _lines_with_fillers(data.draw, rows))
        path = record_dir / "one_line_chunks.csv"
        path.write_bytes(text.replace("\n", ending).encode("utf-8"))
        assert _outcome(read_record, path) == _outcome(_reference_read_record, path)

    @pytest.mark.parametrize(
        "lines, error",
        [
            # The first row of a repeated frequency sits in an earlier chunk.
            (["x,{f0},0.1", "x,{f1},0.1", "x,{f0},0.2"],
             "experiment x: frequency {f0} Hz appears more than once"),
            (["x,{f0},0.1,1.0", "x,{f1},0.1", "x,{f2},0.1,2.0"], "experiment x: inconsistent q0 values"),
            # Experiments first seen in different chunks keep first-seen order.
            (["b,{f0},0.1", "a,{f0},0.1", "b,{f1},0.1", "c,{f0},0.1"],
             "experiment b: missing phase rows for frequencies {f2}, {f3}"),
            (["b,{f0},0.1", "a,{f0},0.1", "b,{f1},0.1", "c,{f0},0.1", "a,{f0},0.1"],
             "experiment a: frequency {f0} Hz appears more than once"),
            (["x,{f0},0.1", "x,{f1},1e", "y,1e,0.1"], "data row 2: could not convert string to float: '1e'"),
            # A header line after the data is still header; its error beats a row's.
            (["x,{f0},0.1", "y,{f0},0.1,1,extra", "# f1_hz = 1.0"], "bad plan header: duplicate key 'f1_hz'"),
        ],
    )
    def test_state_crosses_chunks(self, tmp_path, lines, error):
        path = tmp_path / "cross.csv"
        path.write_text(_record_text(PLAN4, _plan4_lines(lines)), encoding="utf-8")
        with pytest.raises(RecordFormatError) as info:
            read_record(path)
        assert str(info.value) == _plan4_lines([error])[0]
        assert _outcome(_reference_read_record, path) == ("error", str(info.value))

    def test_first_seen_order_and_header_after_the_data(self, tmp_path):
        rows = [f"{e},{float(f)!r},0.1" for f in PLAN4.frequencies for e in ("b", "a", "c")]
        header, *_ = _record_text(PLAN4, []).partition("# columns")
        path = tmp_path / "late_header.csv"
        # Each header line is its own chunk after every data row.
        path.write_text(_record_text(PLAN4, rows)[len(header):] + header, encoding="utf-8")
        assert [e.experiment_id for e in read_record(path).experiments] == ["b", "a", "c"]
        assert _outcome(read_record, path) == _outcome(_reference_read_record, path)

    def test_bad_float_text_is_refused_in_every_chunk(self):
        # Each text is parsed once per file; a later row of a refused text is
        # refused too, under its own row number.
        rows = records._Rows()
        for line in _plan4_lines(["x,1e,0.1,2", "x,{f0},0.1,2", "y,1e,0.1,x", "z,{f1},0.1,x"]):
            rows.add(line + "\n")
        assert {r: str(e) for r, e in rows.parse_errors.items()} == {
            0: "could not convert string to float: '1e'",
            2: "could not convert string to float: '1e'",
            3: "could not convert string to float: 'x'",
        }

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_long_field_after_a_miscounted_row_wins(self, tmp_path, quote):
        # The miscounted row ends the parse of columns, not the scan for
        # long fields, which are refused first.
        limit = csv.field_size_limit()
        long_row = quote + "x" * limit + "y" + quote + ",{f0},0.1"
        lines = _plan4_lines(["x,{f0},0.1", "y,{f0},0.1,1,extra", "z,abc,0.1", "z,{f1},0.1", long_row])
        path = tmp_path / "long_late.csv"
        path.write_text(_record_text(PLAN4, lines), encoding="utf-8")
        with pytest.raises(RecordFormatError, match=rf"^data row 5: field larger than field limit \({limit}\)$"):
            read_record(path)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_cr_line_breaks(self, tmp_path, ending):
        exps = [Experiment(f"e{k}", TestWriteRefusals.GOOD, float(k)) for k in range(3)]
        path = make_record(tmp_path, PLAN4, exps)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", ending.encode()))
        assert _outcome(read_record, crlf) == _outcome(read_record, path)
        assert _outcome(read_record, crlf) == _outcome(_reference_read_record, crlf)


@pytest.mark.parametrize(
    "body",
    [
        pytest.param("abcdefg\r\nxyz\r\n" * 3, id="crlf-split-by-the-read"),
        pytest.param("abcdefg\rxyz\r" * 3, id="cr-ends-the-read"),
        pytest.param("abcdefghij\rk\n" * 3, id="cr-ends-the-line-after-the-read"),
        pytest.param("ab\ncd\nef\n" * 5 + "last", id="no-final-break"),
        pytest.param("\ufeff" + "bom,1,2\n" * 4, id="bom"),
        pytest.param("", id="empty"),
    ],
)
def test_file_chunks_end_at_line_breaks(tmp_path, monkeypatch, body):
    monkeypatch.setattr(records, "_CHUNK_CHARS", 8)
    path = tmp_path / "chunks.csv"
    path.write_bytes(body.encode("utf-8"))
    chunks = list(records._chunks(path))
    # Every CR becomes an LF; a CR LF leaves a blank line, which the parse drops.
    assert "".join(chunks) == body.removeprefix("\ufeff").replace("\r", "\n")
    for chunk in chunks[:-1]:
        assert chunk.endswith("\n") and len(chunk) >= records._CHUNK_CHARS
    assert all("\r" not in chunk for chunk in chunks)


def test_parse_memory_is_bounded_by_the_rows(tmp_path):
    # The file is read a chunk at a time and the rows judged a slice at a
    # time, so the peak is per-row arrays plus one chunk's and one slice's
    # temporaries, whatever the length of the text.  Per data row: the five
    # parse columns (8 + 8 + 8 + 8 + 1 bytes), its slot (8), its unparsed
    # flag (1) and its entry of the first-row table (8 per experiment and
    # slot, one per row in a complete record), 50 bytes, with the ids and
    # the dictionaries of distinct texts rounded up to 64; the build that
    # follows holds the phase table in place of the frequency column and
    # the checks' arrays.  A slice's temporaries are a dozen 8-byte arrays,
    # under 128 bytes per slice row.  A chunk holds each character in its
    # text, its line, the joined lines and its field, plus about 57 bytes of
    # object and list slot per line and per field: under 16 bytes a
    # character while fields average 5 characters or more.
    plan = FrequencyPlan(f1=410e6, resolution=65.0, spacings=tuple(range(600, 630)), c=C_PAPER)
    rng = np.random.default_rng(7)
    exps = [Experiment(f"e{k:05d}", rng.uniform(-3.0, 3.0, plan.n), float(rng.uniform(-2, 2)))
            for k in range(1300)]
    path = make_record(tmp_path, plan, exps)
    rows = len(exps) * plan.n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rec = read_record(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(rec.experiments) == len(exps) and rows >= 40_000
    bound = 64 * rows + 128 * records._CHECK_ROWS + 16 * records._CHUNK_CHARS
    assert peak <= bound, (peak, bound)


@st.composite
def run_rows(draw):
    """Data rows as ``write_record`` lays them out: each experiment's N rows
    in plan frequency order, its id and q0 text repeated over the run."""
    rows = []
    for exp_id in draw(st.lists(IDS, min_size=1, max_size=6, unique=True)):
        q0 = draw(st.none() | st.floats(-1e3, 1e3, allow_nan=False))
        for f in PLAN4.frequencies:
            ph = draw(GOOD_PHASES)
            rows.append([exp_id, repr(float(f)), repr(ph)] + ([] if q0 is None else [repr(q0)]))
    return rows


# Characters per parse chunk: one line, two or three lines (runs of N = 4
# rows are cut in every place), and the default.
CHUNK_SIZES = st.sampled_from([1, 70, 97, 150, records._CHUNK_CHARS])


def _read_in_chunks(path, chunk_chars):
    """``_outcome`` of ``read_record`` with chunks of ``chunk_chars`` characters."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(records, "_CHUNK_CHARS", chunk_chars)
        return _outcome(read_record, path)


class TestRunShapedRecords:
    """Records whose ids and q0 come in runs of N rows, as ``write_record``
    writes them, against the row-at-a-time reference, whatever the chunks."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_written_records_match_reference(self, record_dir, data):
        exps = data.draw(st.lists(
            st.builds(Experiment, IDS, st.lists(GOOD_PHASES, min_size=4, max_size=4).map(np.array),
                      st.one_of(st.none(), st.floats(-1e3, 1e3))),
            min_size=1, max_size=6, unique_by=lambda e: e.experiment_id,
        ))
        path = record_dir / "written_runs.csv"
        write_record(path, PLAN4, exps)
        expected = _outcome(_reference_read_record, path)
        assert expected[0] == "ok"
        assert _read_in_chunks(path, data.draw(CHUNK_SIZES)) == expected

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_corruption_at_each_place_in_a_run(self, record_dir, data):
        rows = data.draw(run_rows())
        kind = data.draw(st.sampled_from(CORRUPTIONS))
        run = data.draw(st.integers(0, len(rows) // PLAN4.n - 1))
        place = data.draw(st.sampled_from([0, 1, 2, PLAN4.n - 1]))  # first, middle, last
        _corrupt(data.draw, rows, kind, run * PLAN4.n + place)
        path = record_dir / "corrupt_runs.csv"
        path.write_text(_record_text(PLAN4, map(_csv_line, rows)), encoding="utf-8")
        expected = _outcome(_reference_read_record, path)
        assert expected[0] == "error", kind
        assert _read_in_chunks(path, data.draw(CHUNK_SIZES)) == expected

    @pytest.mark.parametrize("chunk_chars", [1, 70, 97, 150, records._CHUNK_CHARS])
    def test_equal_q0_values_in_different_texts(self, tmp_path, chunk_chars):
        lines = [f"{e},{float(f)!r},0.25,{q}" for e in ("a", "b") for f, q
                 in zip(PLAN4.frequencies, ("1.5", "1.50", "1.5", "15e-1"))]
        path = tmp_path / "q0_texts.csv"
        path.write_text(_record_text(PLAN4, lines), encoding="utf-8")
        outcome = _read_in_chunks(path, chunk_chars)
        assert outcome == _outcome(_reference_read_record, path)
        assert outcome[0] == "ok" and [q0 for _, q0, _, _ in outcome[2]] == ["1.5", "1.5"]


# Texts in runs of 1 to 5, among them different texts of one value.
RUN_TEXTS = st.lists(
    st.tuples(st.sampled_from(["a", "b", "1.5", "1.50", "-0.0", "0.0", "x,y"]), st.integers(1, 5)),
    max_size=12,
).map(lambda runs: [text for text, k in runs for _ in range(k)])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(texts=RUN_TEXTS, known=st.lists(st.sampled_from(["b", "1.5", "z"]), unique=True))
def test_lookup_by_runs_equals_lookup_by_row(texts, known):
    # The same values and the same state after, whether the texts are
    # looked up a row or a run at a time.
    for lookup in (records._first_seen, records._cached_floats):
        states = [{}, {}]
        for state in states:
            lookup(known, state)
        by_row = lookup(list(texts), states[0])
        by_runs = records._by_runs(lookup, list(texts), states[1])
        assert by_runs.dtype == by_row.dtype and by_runs.tobytes() == by_row.tobytes()
        assert repr(list(states[1].items())) == repr(list(states[0].items()))


@pytest.mark.parametrize(
    "texts, runs",
    [
        ([], None),
        (["a"], (["a"], [1])),
        (["a"] * 5, (["a"], [5])),
        (["a", "b", "c"], None),
        (["a", "b", "b", "c", "c", "d"], (["a", "b", "c", "d"], [1, 2, 2, 1])),
        (["a", "a", "b", "b", "a", "a"], (["a", "b", "a"], [2, 2, 2])),
        # Runs of one length, the first and last cut short.
        (["a", "a", "b", "b", "b", "c"], (["a", "b", "c"], [2, 3, 1])),
        # The first two runs give length 2, which the third run breaks.
        (["a", "b", "b", "c", "d", "d"], None),
        (["a", "a", "b", "b", "c", "b"], None),
    ],
)
def test_runs(texts, runs):
    assert records._runs(texts) == runs
