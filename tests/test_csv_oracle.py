"""`data.load_csv` against the per-row reference reader it replaced.

The reference parses each row with `csv.reader`, `int()` and `float()` and
checks the row rules one row at a time. On every generated file, valid or
mutated, both readers return bitwise-equal arrays or raise ParseError at the
same line. The one known difference is a field that only Python's own
conversions accept (`1_0`, non-ASCII digits): `load_csv` rejects it at its
line.
"""

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splal.data import load_csv
from splal.errors import ParseError


def reference_load_csv(path):
    """The per-row reader: (ids, truth, grids, h, w, k), rows in file order."""
    with Path(path).open() as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ParseError("missing metadata comment line", line=1)
        try:
            meta = dict(part.split("=") for part in header.lstrip("# ").split())
            h, w, k = int(meta["H"]), int(meta["W"]), int(meta["K"])
        except (ValueError, KeyError) as exc:
            raise ParseError(f"bad metadata line: {exc}", line=1)
        if min(h, w, k) < 1:
            raise ParseError(f"H, W and K must be positive, got H={h} W={w} K={k}", line=1)
        reader = csv.reader(fh)
        try:
            columns = next(reader)
        except StopIteration:
            raise ParseError("missing column header", line=2)
        expected_cols = 2 + h * w
        if len(columns) != expected_cols:
            raise ParseError(f"expected {expected_cols} columns, found {len(columns)}", line=2)
        ids, labels, pixels = [], [], []
        first_line: dict[int, int] = {}
        for lineno, row in enumerate(reader, start=3):
            if len(row) != expected_cols:
                raise ParseError(f"expected {expected_cols} fields, found {len(row)}", line=lineno)
            try:
                sid = int(row[0])
                label = int(row[1])
                values = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno)
            if label < 0 or label >= k:
                raise ParseError(f"label {label} out of range for K={k}", line=lineno)
            if not -2**63 <= sid < 2**63:
                raise ParseError(f"sample id {sid} does not fit in 64 bits", line=lineno)
            if not all(map(math.isfinite, values)):
                raise ParseError("non-finite pixel value", line=lineno)
            if sid in first_line:
                raise ParseError(f"duplicate sample id {sid} (first on line {first_line[sid]})", line=lineno)
            first_line[sid] = lineno
            ids.append(sid)
            labels.append(label)
            pixels.extend(values)
    if not labels:
        raise ParseError("no data rows", line=3)
    grids = np.array(pixels, dtype=np.float64).reshape(len(labels), h, w)
    return np.array(ids, dtype=np.int64), np.array(labels, dtype=np.int64), grids, h, w, k


def outcome(reader, path):
    """('rows', ids, truth, grid bytes, h, w, k) or ('error', line)."""
    try:
        result = reader(path)
    except ParseError as err:
        return ("error", err.line)
    if reader is load_csv:
        pool, h, w, k = result
        ids, truth, grids = pool.ids, pool.truth, pool.grids
    else:
        ids, truth, grids, h, w, k = result
    # Bytes, so -0.0 and 0.0 differ and every bit of every value is compared.
    return ("rows", ids.tolist(), truth.tolist(), np.ascontiguousarray(grids).tobytes(),
            grids.shape, h, w, k)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ID = st.integers(-2**63, 2**63 - 1)


@st.composite
def pixel_files(draw):
    """(lines, line ending, trailing newline): a valid pixel CSV before edits."""
    h, w, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    ids = draw(st.lists(ID, min_size=1, max_size=6, unique=True))
    fmt = draw(st.sampled_from([repr, lambda v: format(v, ".6g"), lambda v: format(v, "e")]))
    lines = [f"# H={h} W={w} K={k}", ",".join(["id", "label"] + [f"p{i}" for i in range(h * w)])]
    for sid in ids:
        label = draw(st.integers(0, k - 1))
        pixels = draw(st.lists(FINITE, min_size=h * w, max_size=h * w))
        lines.append(",".join([str(sid), str(label), *map(fmt, pixels)]))
    return lines, draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans())


BAD_FLOATS = ("x", "", "1.2.3", "0x10", "--1", "1e", "nan", "inf", "-inf", "NaN",
              "-Infinity", "1e309", "-1e999")
BAD_INTS = ("1.0", "x", "", "1e3", "0x1", "2.5", str(2**63), str(2**63 + 7), str(-2**63 - 1),
            str(10**30), str(2**63 - 1), str(-2**63), "-2", "-1", "0", "1", "2", "3", "4", "7")
EDIT = st.tuples(
    st.sampled_from(["blank_line", "short_row", "long_row", "pixel", "id", "label",
                     "dup_id", "quote_field"]),
    st.integers(0, 50), st.integers(0, 50), st.sampled_from(BAD_FLOATS), st.sampled_from(BAD_INTS),
)


def apply_edit(lines: list[str], edit) -> None:
    """One mutation of a data row (or a blank line among them), in place."""
    kind, row, col, bad_float, bad_int = edit
    if kind == "blank_line":
        lines.insert(2 + row % (len(lines) - 1), "")
        return
    data = [i for i in range(2, len(lines)) if lines[i]]
    if not data:
        return
    i = data[row % len(data)]
    fields = lines[i].split(",")
    if kind == "short_row":
        fields.pop()
    elif kind == "long_row":
        fields.append("0.5")
    elif kind == "pixel" and len(fields) > 2:
        fields[2 + col % (len(fields) - 2)] = bad_float
    elif kind == "id":
        fields[0] = bad_int
    elif kind == "label":
        fields[1] = bad_int
    elif kind == "dup_id":
        fields[0] = lines[data[col % len(data)]].split(",")[0]
    elif kind == "quote_field":
        j = col % len(fields)
        fields[j] = f'"{fields[j]}"'
    lines[i] = ",".join(fields)


@settings(max_examples=300, deadline=None)
@given(pixel_files(), st.lists(EDIT, max_size=3))
def test_load_csv_matches_the_reference_reader(file, edits):
    lines, newline, trailing = file
    for edit in edits:
        apply_edit(lines, edit)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pool.csv"
        path.write_bytes((newline.join(lines) + (newline if trailing else "")).encode())
        assert outcome(load_csv, path) == outcome(reference_load_csv, path)


@pytest.mark.parametrize("field", ["1_0", "٣"])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_fields_only_python_reads_are_rejected_at_their_line(tmp_path, field, column):
    # The one allowed difference: int()/float() accept these, numpy does not.
    rows = [["0", "0", "0.5", "0.5"], ["1", "1", "0.5", "0.5"]]
    rows[1][column] = field
    path = tmp_path / "pool.csv"
    path.write_text("# H=1 W=2 K=11\nid,label,p0,p1\n" + "\n".join(map(",".join, rows)) + "\n")
    reference_load_csv(path)
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.line == 4


def test_an_earlier_bad_row_wins_over_a_later_parse_failure(tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text("# H=1 W=2 K=2\nid,label,p0,p1\n0,0,0.5,0.5\n1,1,0.5,nan\n0,1,0.5,0.5\n2,1,x,0.5\n")
    with pytest.raises(ParseError, match="non-finite") as err:
        load_csv(path)
    assert err.value.line == 4


def test_unclosed_quote_is_rejected_at_its_line(tmp_path):
    # numpy's reader would run on into the following lines to close the quote.
    path = tmp_path / "pool.csv"
    path.write_text('# H=1 W=2 K=2\nid,label,p0,p1\n0,0,"0.5,0.5\n1,1,0.5,0.5\n')
    with pytest.raises(ParseError, match="unclosed double quote") as err:
        load_csv(path)
    assert err.value.line == 3


def test_grids_are_a_view_of_the_parsed_rows(tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text("# H=2 W=1 K=2\nid,label,p0,p1\n5,1,0.25,-0.0\n3,0,1e-300,7\n")
    pool, h, w, k = load_csv(path)
    assert (h, w, k) == (2, 1, 2)
    assert pool.ids.tolist() == [5, 3] and pool.truth.tolist() == [1, 0]
    assert pool.grids.shape == (2, 2, 1)
    # One record buffer: the grids were not copied out of the parsed rows.
    assert np.may_share_memory(pool.grids, pool.ids)
    assert pool.grids.ravel().tolist() == [0.25, -0.0, 1e-300, 7.0]
