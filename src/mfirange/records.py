"""Recorded phase file format, and the plan-header codec it shares with
plan files.

A frequency plan is pinned by four header keys: ``f1_hz``,
``resolution_hz``, ``spacings_grid`` (comma-separated integer spacings in
grid units) and ``c_mode`` (``exact``, ``paper-repro`` or a speed in m/s;
``exact`` when absent).  :func:`plan_header` and :func:`plan_from_header`
map a plan to and from these pairs; plan files (``key = value`` lines,
see the CLI) and phase records each keep their own line syntax around
them, and both refuse a key given twice.

A phase record is a UTF-8 CSV (a leading byte-order mark is skipped): a
'#'-prefixed header block with the plan keys, followed by data rows
``experiment_id,freq_hz,phase_rad[,q0_m]``.  Lines break at LF, CR LF and
CR only, and each line is stripped of surrounding blanks.
Every experiment id must cover all N plan frequencies exactly once;
phases are wrapped to (-pi, pi].  Ground-truth q0 per experiment is
optional but must be consistent across its rows when present.

Non-finite values: a phase of nan or +-inf is outside (-pi, pi]; a
frequency of nan or +-inf matches no plan frequency; a q0 of nan or +-inf
is refused with its own error, which names the experiment and the value.

A field longer than ``csv.field_size_limit()`` (131 072 characters by
default) is refused before anything else is checked, with the first data
row that holds one.  Otherwise errors name the first failing data row in
file order (data rows count from 1; blank and '#' lines are not counted),
and within that row the first failing check of: 3 or 4 fields; ``float()``
of the frequency, phase and q0 fields, in that order; phase in (-pi, pi];
frequency within max(1e-3, 1e-9 f) Hz of its nearest plan frequency f
(the lower one on ties); that frequency not already given for the
experiment; q0 finite; q0 equal to the experiment's earlier q0.  Only
when every row passes is the first experiment, in first-seen order, that
misses a frequency reported.

:func:`read_record` reads the file in chunks of about ``_CHUNK_CHARS``
characters, each ending at a line break, and parses each chunk as it is
read.  Only per-row numpy arrays and the state the parse keeps (the header
lines, the experiment ids and the values of the distinct frequency and q0
texts) outlive a chunk, so the text, lines and fields of the whole file
never exist at once.  Within a chunk the id, frequency and q0 columns are
looked up a run at a time where equal texts come in runs, as
:func:`write_record` writes an experiment's id and q0 over its N rows;
each distinct frequency and q0 text is still ``float()``-ed once per file,
and each phase once per row.  The checks then judge the rows in slices of
``_CHECK_ROWS``.  The peak is one chunk's strings or one slice's
temporaries on top of about 50 bytes per data row: 3.7 MB traced, 1.3
times the file size, on a 46 500-row record of 2.7 MB, where holding the
text and full-length check temporaries took 6.9 MB.  Chunks, slices and
runs change no result and no error, since every row is judged by its own
line and by earlier rows, and equal texts give equal values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import ne
from typing import Mapping, Sequence

import numpy as np

from .core import C_EXACT, C_PAPER, FrequencyPlan, _check_phases

C_MODES = {"exact": C_EXACT, "paper-repro": C_PAPER}
# Characters per parse chunk of a phase record: 2^16 keeps one chunk's
# text, line and field strings near 0.6 MB.
_CHUNK_CHARS = 1 << 16
# Data rows per slice of the record checks: each temporary stays near 64 KB.
_CHECK_ROWS = 1 << 13


class RecordFormatError(ValueError):
    """Malformed phase record file; the message names the offending row/id."""


def c_mode_name(c: float) -> str:
    for name, value in C_MODES.items():
        if c == value:
            return name
    return repr(c)


def plan_header(plan: FrequencyPlan) -> list[tuple[str, str]]:
    """The (key, value) header pairs that pin ``plan``."""
    return [
        ("f1_hz", repr(plan.f1)),
        ("resolution_hz", repr(plan.resolution)),
        ("spacings_grid", ",".join(str(k) for k in plan.spacings)),
        ("c_mode", c_mode_name(plan.c)),
    ]


def plan_from_header(fields: Mapping[str, str]) -> FrequencyPlan:
    """The plan that parsed header fields pin; raises ValueError naming the
    missing keys or the bad value."""
    missing = [k for k in ("f1_hz", "resolution_hz", "spacings_grid") if k not in fields]
    if missing:
        raise ValueError(f"missing keys {missing}")
    c_text = fields.get("c_mode", "exact")
    try:
        c = C_MODES[c_text] if c_text in C_MODES else float(c_text)
    except ValueError:
        raise ValueError(f"unknown c_mode {c_text!r}") from None
    return FrequencyPlan(
        f1=float(fields["f1_hz"]),
        resolution=float(fields["resolution_hz"]),
        spacings=tuple(int(s) for s in fields["spacings_grid"].split(",")),
        c=c,
    )


@dataclass(frozen=True)
class Experiment:
    """One experiment: phases ordered by ascending plan frequency."""

    experiment_id: str
    phases: np.ndarray
    q0: float | None = None


@dataclass(frozen=True)
class PhaseRecord:
    plan: FrequencyPlan
    experiments: tuple[Experiment, ...]


def write_record(path, plan: FrequencyPlan, experiments: Sequence[Experiment]) -> None:
    """Write a phase record file for a plan and a list of experiments.

    Refuses, with a ValueError that names the experiment and before
    anything is written, what :func:`read_record` could not read back as
    written: an id that starts with '#' or a blank (the reader takes the
    first as a header line and strips the second), holds a line break, is
    longer than ``csv.field_size_limit()`` or repeats an earlier id; a
    phase count other than N; a phase outside (-pi, pi], nan and +-inf
    included; a non-finite q0.  An empty id is refused too: it reads back,
    but names nothing in the reader's errors.
    """
    experiments = tuple(experiments)
    seen: set[str] = set()
    for exp in experiments:
        _check_experiment(plan, exp, seen)
        seen.add(exp.experiment_id)
    freqs = [repr(float(f)) for f in plan.frequencies]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# mfirange phase record\n")
        for key, value in plan_header(plan):
            fh.write(f"# {key} = {value}\n")
        fh.write("# columns: experiment_id,freq_hz,phase_rad[,q0_m]\n")
        writer = csv.writer(fh)
        for exp in experiments:
            q0 = [] if exp.q0 is None else [repr(float(exp.q0))]
            phases = np.asarray(exp.phases, dtype=float).tolist()
            writer.writerows([exp.experiment_id, f, repr(ph), *q0] for f, ph in zip(freqs, phases))


def _check_experiment(plan: FrequencyPlan, exp: Experiment, seen: set[str]) -> None:
    """Raise ValueError, naming the experiment, if :func:`write_record` must refuse it."""
    eid = exp.experiment_id
    try:
        if not eid:
            raise ValueError("empty id")
        if eid.startswith("#") or eid != eid.lstrip():
            raise ValueError("id starts with '#' or a blank")
        if "\n" in eid or "\r" in eid:
            raise ValueError("id holds a line break")
        if len(eid) > csv.field_size_limit():
            raise ValueError(f"id is longer than the field limit ({csv.field_size_limit()})")
        if eid in seen:
            raise ValueError("id appears more than once")
        phases = np.asarray(exp.phases, dtype=float)
        if phases.shape != (plan.n,):
            raise ValueError(f"needs {plan.n} phases")
        _check_phases(phases)
        if exp.q0 is not None and not math.isfinite(exp.q0):
            raise ValueError(f"q0 {float(exp.q0)} is not finite")
    except ValueError as exc:
        raise ValueError(f"experiment {eid!r}: {exc}") from None


def _parse_header(lines: list[str]) -> FrequencyPlan:
    fields: dict[str, str] = {}
    for line in lines:
        body = line.lstrip("#").strip()
        if "=" in body:
            key, _, value = body.partition("=")
            key = key.strip()
            if key in fields:
                raise RecordFormatError(f"bad plan header: duplicate key {key!r}")
            fields[key] = value.strip()
    try:
        return plan_from_header(fields)
    except ValueError as exc:
        raise RecordFormatError(f"bad plan header: {exc}") from exc


def _floats(texts: Sequence[str]) -> np.ndarray:
    """``float()`` of every text, nan where it fails."""
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        pass
    values = np.full(len(texts), np.nan)
    for k, text in enumerate(texts):
        try:
            values[k] = float(text)
        except ValueError:
            pass
    return values


def _float_errors(texts: Sequence[str], values: np.ndarray) -> dict[int, ValueError]:
    """The ``float()`` error of each text it refuses, by position; ``values``
    are :func:`_floats` of the texts, so only a nan can mark one."""
    errors = {}
    for k in np.flatnonzero(np.isnan(values)).tolist():
        try:
            float(texts[k])
        except ValueError as exc:
            errors[k] = exc
    return errors


def _cached_floats(texts: Sequence[str], cache: dict[str, float]) -> np.ndarray:
    """:func:`_floats` of ``texts``, calling ``float()`` only on the texts
    not yet in ``cache``, which keeps every text's value."""
    new = list(set(texts).difference(cache))
    cache.update(zip(new, _floats(new).tolist()))
    return np.fromiter(map(cache.__getitem__, texts), float, len(texts))


def _first_seen(texts: Sequence[str], index: dict[str, int]) -> np.ndarray:
    """Each text's value in ``index``, which numbers the distinct texts in
    first-seen order; the texts it lacks are numbered on at its end."""
    new = [text for text in dict.fromkeys(texts) if text not in index]
    index.update(zip(new, range(len(index), len(index) + len(new))))
    return np.fromiter(map(index.__getitem__, texts), np.intp, len(texts))


def _runs(texts: list[str]) -> tuple[list[str], list[int]] | None:
    """``texts`` as runs of equal texts: each run's first text and its
    length, when they are one run or come in runs of one length of 2 or
    more (the first and last run may be shorter, as where a chunk cuts a
    run); else None.

    :func:`write_record` writes an experiment's id and q0 in a run of N
    rows.  The first two runs give the length, and one comparison of the
    texts with their runs rebuilt decides; texts that change at once, as
    the ids of a frequency-major record do, are turned down after three
    comparisons.
    """
    n = len(texts)
    if not n:
        return None
    if texts[-1] == texts[0] and texts.count(texts[0]) == n:
        return texts[:1], [n]
    ends = compress(count(1), map(ne, islice(texts, 1, None), texts))
    first = next(ends)
    size = next(ends, n) - first
    if size < 2:
        return None
    bounds = [0, *range(first, n, size), n]
    heads = [texts[0], *texts[first::size]]
    lengths = [b - a for a, b in zip(bounds, bounds[1:])]
    if list(chain.from_iterable(map(repeat, heads, lengths))) != texts:
        return None
    return heads, lengths


def _by_runs(lookup, texts: list[str], state: dict) -> np.ndarray:
    """``lookup(texts, state)`` (:func:`_first_seen` or :func:`_cached_floats`),
    made once per run of equal texts where :func:`_runs` finds runs.  Equal
    texts give equal values, and run heads keep first-seen order, so the
    values and ``state`` are the same either way."""
    runs = _runs(texts)
    if runs is None:
        return lookup(texts, state)
    heads, lengths = runs
    return np.repeat(lookup(heads, state), lengths)


def _csv_row(row: int, line: str) -> list[str]:
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:  # a field over the limit
        raise RecordFormatError(f"data row {row + 1}: {exc}") from None


def _fields(data: list[str], row0: int) -> tuple[list[str], np.ndarray]:
    """Every field of the data rows, flat in file order with one filler
    slot after each row's fields, and each row's field count.

    A row's fields are what ``csv.reader`` makes of its line on its own.
    Without a '"' that is the line split at its commas, so all rows are
    split at once, in their join with ",\\n," (a line holds no "\\n", so
    the fillers are the fields "\\n" and no others); with one, csv reads
    them.  When every row holds the same number of fields, the fillers
    alone show it, and the lines are not counted one by one.  On both paths
    a field longer than ``csv.field_size_limit()`` raises, naming the first
    data row that holds one, as csv does; ``row0`` data rows of the file
    come before ``data``.
    """
    limit = csv.field_size_limit()
    joined = ",\n,".join(data)
    if '"' not in joined:
        if len(joined) > limit:  # else no field can be longer than the limit
            lengths = np.fromiter(map(len, data), np.intp, len(data))
            for r in np.flatnonzero(lengths > limit):  # only a long line can hold a long field
                if max(map(len, data[r].split(","))) > limit:
                    raise RecordFormatError(
                        f"data row {row0 + r + 1}: field larger than field limit ({limit})"
                    )
        if not data:
            return [], np.empty(0, np.intp)
        fields = joined.split(",")
        # Rows of w fields each fill len(data) * (w + 1) - 1 slots, with a
        # filler at every (w + 1)-th.
        width, extra = divmod(len(fields) + 1, len(data))
        if not extra and fields[width - 1 :: width].count("\n") == len(data) - 1:
            return fields, np.full(len(data), width - 1)
        return fields, np.fromiter(map(str.count, data, repeat(",")), np.intp, len(data)) + 1
    try:
        rows = list(csv.reader(data))
    except csv.Error:  # a field over the limit, maybe one that ran on over lines
        rows = []
    if len(rows) < len(data):
        # A line that ends inside an open quote ran on into the next line;
        # split each line on its own, where csv closes the quote at its end.
        rows = [_csv_row(row0 + r, line) for r, line in enumerate(data)]
    counts = np.fromiter(map(len, rows), np.intp, len(rows))
    return list(chain.from_iterable(row + ["\n"] for row in rows)), counts


def _chunks(path):
    """The text of the file at ``path`` in pieces of at least ``_CHUNK_CHARS``
    characters, each ending at a line break (the last one at the end of the
    text), with every line break (\\n, \\r\\n and \\r, as in a newline=""
    file) made '\\n'.  Only one piece is held at a time."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        while chunk := fh.read(_CHUNK_CHARS):
            chunk += fh.readline()
            # A \r\n becomes a line break and a blank line, which the parse drops.
            if "\r" in chunk:
                chunk = chunk.replace("\r", "\n")
            yield chunk


class _Rows:
    """What the chunks of a phase record hold: the header lines, the
    first miscounted data row, and the columns of the data rows before it
    as per-row arrays, with the state their parse carries from one chunk
    to the next."""

    def __init__(self) -> None:
        self.header: list[str] = []
        self.rows = 0  # data rows so far
        self.miscount: tuple[int, int] | None = None  # (row, field count), first bad count
        self.exp_index: dict[str, int] = {}  # experiment id -> number, first-seen order
        self.f_cache: dict[str, float] = {}
        self.q0_cache: dict[str, float] = {}
        self.parse_errors: dict[int, ValueError] = {}  # by row: its first field float() refuses
        # Per chunk: experiment number, frequency, phase, q0 (nan if none), has q0.
        self.parts: list[list[np.ndarray]] = [
            [np.empty(0, dtype)] for dtype in (np.intp, float, float, float, bool)
        ]

    def add(self, chunk: str) -> None:
        """Take in the lines of ``chunk``, which follows the earlier chunks."""
        # Lines are split at '\n' alone: str.splitlines would also break at
        # characters such as \x0b, \x1c and \x85, which an id may hold.
        data = list(filter(None, map(str.strip, chunk.split("\n"))))
        if "#" in chunk:
            self.header += [line for line in data if line[0] == "#"]
            data = [line for line in data if line[0] != "#"]
        fields, counts = _fields(data, self.rows)
        if self.miscount is None:
            bad = np.flatnonzero((counts != 3) & (counts != 4))
            # Rows after the first miscounted one are never judged.
            good = int(bad[0]) if bad.size else len(counts)
            self._add_columns(fields, counts[:good])
            if bad.size:
                self.miscount = (self.rows + good, int(counts[good]))
        self.rows += len(data)

    def _add_columns(self, fields: list[str], counts: np.ndarray) -> None:
        """Parse the columns of the data rows of ``fields``, laid out as
        :func:`_fields` gives them, with ``counts`` fields each."""
        starts = np.cumsum(counts + 1) - (counts + 1)  # each row's first field
        # Rows of one field count lie in runs (first field, rows, count); within
        # a run a column is a slice.  Counts are at least 1, so the zero padding
        # marks where the first run starts and the last ends.
        edges = np.flatnonzero(np.diff(counts, prepend=0, append=0))
        firsts = edges[:-1]
        runs = list(zip(starts[firsts].tolist(), np.diff(edges).tolist(), counts[firsts].tolist()))

        def column(k: int) -> list[str]:
            """Field k of every row that has one, run by run."""
            slices = [fields[s + k : s + rows * (w + 1) : w + 1] for s, rows, w in runs if k < w]
            return slices[0] if len(slices) == 1 else list(chain.from_iterable(slices))

        group = _by_runs(_first_seen, column(0), self.exp_index)
        f_texts, ph_texts, q0_texts = column(1), column(2), column(3)
        f = _by_runs(_cached_floats, f_texts, self.f_cache)
        ph = _floats(ph_texts)
        has_q0 = counts == 4
        q0_rows = np.flatnonzero(has_q0)
        q0 = np.full(len(counts), np.nan)
        q0[q0_rows] = q0_part = _by_runs(_cached_floats, q0_texts, self.q0_cache)
        for errors in (
            _float_errors(f_texts, f),
            _float_errors(ph_texts, ph),
            {int(q0_rows[k]): e for k, e in _float_errors(q0_texts, q0_part).items()},
        ):
            for r, exc in errors.items():
                self.parse_errors.setdefault(self.rows + r, exc)
        for part, values in zip(self.parts, (group, f, ph, q0, has_q0)):
            part.append(values)

    def columns(self) -> list[np.ndarray]:
        """Experiment number, frequency, phase, q0 and has-q0 of every row
        parsed, once: the per-chunk parts are dropped."""
        parts, self.parts = self.parts, []
        return [np.concatenate(part) for part in parts]


def _nearest_slots(freqs: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Each frequency's plan slot: the nearest plan frequency, the lower
    index on ties (as argmin picks), then the first of equal plan
    frequencies.  NaN sorts last, so it takes the last slot."""
    above = np.searchsorted(freqs, f)
    lower = np.maximum(above - 1, 0)
    upper = np.minimum(above, freqs.size - 1)
    slot = np.where(np.abs(freqs[lower] - f) <= np.abs(freqs[upper] - f), lower, upper)
    return np.searchsorted(freqs, freqs[slot])


def _check_rows(
    plan: FrequencyPlan, exp_ids: list[str], parse_errors: dict[int, ValueError], columns
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's plan slot and each experiment's last q0 row (-1 if none),
    after judging every row; raises the first failing row's first failing
    check (see the module docstring).

    Rows are judged in slices of ``_CHECK_ROWS``, in file order.  A row's
    checks look only at the row and at earlier ones: the repeated-frequency
    and q0 checks compare it with the first row of its (experiment, slot)
    and the first q0 row of its experiment, which the slices record as they
    go.  So the first failing row lies in the first slice that holds one,
    and no temporary is longer than a slice.
    """
    group, f, ph, q0, has_q0 = columns
    freqs = plan.frequencies
    n = plan.n
    m = len(group)
    unparsed = np.zeros(m, bool)
    unparsed[list(parse_errors)] = True
    slot = np.empty(m, np.intp)
    first = np.full(len(exp_ids) * n, m)  # each (experiment, slot)'s first row
    first_q0 = np.full(len(exp_ids), m)
    last_q0 = np.full(len(exp_ids), -1)

    def exp(r: int) -> str:
        return f"experiment {exp_ids[group[r]]}"

    messages = (  # in the order one row is judged
        lambda r: f"data row {r + 1}: {parse_errors[r]}",
        lambda r: f"{exp(r)}: phase {float(ph[r])} at {float(f[r])} Hz outside (-pi, pi]",
        lambda r: f"{exp(r)}: frequency {float(f[r])} Hz matches no plan frequency",
        lambda r: f"{exp(r)}: frequency {float(freqs[slot[r]])} Hz appears more than once",
        lambda r: f"{exp(r)}: q0 {float(q0[r])} is not finite",
        lambda r: f"{exp(r)}: inconsistent q0 values",
    )
    for a in range(0, m, _CHECK_ROWS):
        rows = np.arange(a, min(a + _CHECK_ROWS, m))
        part = slice(a, a + rows.size)
        slot[part] = _nearest_slots(freqs, f[part])
        near = freqs[slot[part]]
        key = group[part] * n + slot[part]
        np.minimum.at(first, key, rows)
        q0_rows = rows[has_q0[part]]
        q0_groups = group[q0_rows]
        np.minimum.at(first_q0, q0_groups, q0_rows)
        np.maximum.at(last_q0, q0_groups, q0_rows)
        ref = first_q0[q0_groups]
        conflict = np.zeros(rows.size, bool)
        conflict[q0_rows[(ref < q0_rows) & (q0[q0_rows] != q0[ref])] - a] = True
        masks = (
            unparsed[part],
            ~((-math.pi < ph[part]) & (ph[part] <= math.pi)),
            ~(np.abs(near - f[part]) <= np.maximum(1e-3, 1e-9 * near)),
            first[key] != rows,
            has_q0[part] & ~np.isfinite(q0[part]),
            conflict,
        )
        failing = np.logical_or.reduce(masks)
        if failing.any():
            i = int(np.argmax(failing))
            check = next(k for k, mask in enumerate(masks) if mask[i])
            raise RecordFormatError(messages[check](a + i))
    return slot, last_q0


def read_record(path) -> PhaseRecord:
    """Parse and validate a phase record file.

    The file is read and parsed in chunks (see the module docstring).  A
    chunk's data rows become one flat list of fields, without a list per
    row; csv reads them only when a '"' appears (see :func:`_fields`).  A
    field longer than ``csv.field_size_limit()`` is refused first, with its
    data row.  Each column of a chunk is then parsed as a whole: the ids,
    frequencies and q0 a run of equal texts at a time where the chunk shows
    runs (see :func:`_by_runs`), each distinct frequency and q0 text
    ``float()``-ed once per file, and each phase once per row.  Last,
    the rows are judged in slices (see :func:`_check_rows`), in the order
    the module docstring gives.
    """
    parsed = _Rows()
    for chunk in _chunks(path):
        parsed.add(chunk)
    plan = _parse_header(parsed.header)
    exp_ids = list(parsed.exp_index)
    columns = parsed.columns()
    slot, last_q0 = _check_rows(plan, exp_ids, parsed.parse_errors, columns)
    if parsed.miscount is not None:
        row, count = parsed.miscount
        raise RecordFormatError(f"data row {row + 1}: expected 3 or 4 fields, got {count}")

    group, ph, q0 = columns[0], columns[2], columns[3]
    del columns  # frees the frequency column before the phase table is built
    freqs = plan.frequencies
    phases = np.full((len(exp_ids), plan.n), np.nan)
    phases[group, slot] = ph
    missing = np.isnan(phases)
    if missing.any():
        k = int(np.argmax(missing.any(axis=1)))
        absent = ", ".join(repr(float(x)) for x in freqs[missing[k]])
        raise RecordFormatError(
            f"experiment {exp_ids[k]}: missing phase rows for frequencies {absent}"
        )
    # Consistent q0 values compare equal; the last row's is kept (its sign of zero).
    experiments = tuple(
        Experiment(experiment_id=exp_id, phases=row, q0=None if last < 0 else float(q0[last]))
        for exp_id, row, last in zip(exp_ids, phases, last_q0)
    )
    return PhaseRecord(plan=plan, experiments=experiments)
