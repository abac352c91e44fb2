import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from riskcdf import data
from riskcdf.cdf import read_losses_csv
from riskcdf.data import (
    TOY_BLOB_CENTERS,
    TOY_BLOB_SIZES,
    TOY_BLOB_STDS,
    _parse_cells,
    blob_mixture_sampler,
    load_dataset_csv,
    load_loss_table,
    read_numeric_csv,
    save_dataset_csv,
    toy_blobs,
)
from riskcdf.errors import ConfigError, EmptySample, FormatError, InvalidLoss
from riskcdf.permcomplexity import load_loss_matrix_csv
from riskcdf.risks import _load_table_csv
from riskcdf.seeds import rng_from


class TestGenerateBlobs:
    def test_preset_shape(self):
        X, y = toy_blobs(seed=0)
        assert X.shape == (1050, 2) and y.shape == (1050,)
        counts = np.bincount(y.astype(int))
        assert counts.tolist() == [1000, 50]
        # Cluster blocks are contiguous and unshuffled.
        assert np.all(y[:1000] == 0) and np.all(y[1000:] == 1)

    def test_determinism(self):
        a, b, c = toy_blobs(seed=9), toy_blobs(seed=9), toy_blobs(seed=10)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    def test_sample_means_converge(self):
        X, y = toy_blobs(seed=4)
        for k, (size, center, std) in enumerate(zip(TOY_BLOB_SIZES, TOY_BLOB_CENTERS,
                                                    TOY_BLOB_STDS)):
            mean = X[y == k].mean(axis=0)
            assert np.all(np.abs(mean - center) < 5 * std / np.sqrt(size)), k

    def test_mixture_sampler_weights(self):
        sampler = blob_mixture_sampler()
        X, y = sampler(rng_from(0, "mix"), 20_000)
        assert X.shape == (20_000, 2)
        frac = float(np.mean(y == 1.0))
        assert frac == pytest.approx(50 / 1050, abs=0.01)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        X, y = toy_blobs(seed=2)
        path = tmp_path / "ds.csv"
        save_dataset_csv(X, y, path)
        loaded_X, loaded_y = load_dataset_csv(path, label_column="label")
        assert np.array_equal(loaded_X, X)
        assert np.array_equal(loaded_y, y)
        assert [p.name for p in tmp_path.iterdir()] == ["ds.csv"]  # no sidecar

    @pytest.mark.parametrize("text, label, where", [
        ("a,b,label\n1,2,0\n\n3,nan,1\n", "label", "row 4, column 2 (b)"),
        ("\na,b,label\n1,2,inf\n", "label", "row 3, column 3 (label)"),
        ("1,2,0\n,,\n-inf,4,1\n", 2, "row 3, column 1"),
    ], ids=["nan-feature", "inf-label", "headerless"])
    def test_non_finite_cell_names_its_file_line(self, tmp_path, text, label, where):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=f"d.csv: {re.escape(where)}: not a finite number"):
            load_dataset_csv(path, label_column=label)

    def test_basic_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,2,0\n3,4,1\n5,6,0\n")
        X, y = load_dataset_csv(path, label_column="label")
        assert X.shape == (3, 2)
        assert y.tolist() == [0.0, 1.0, 0.0]
        assert X[1].tolist() == [3.0, 4.0]

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(FormatError):
            load_dataset_csv(path, label_column="label")

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,0\noops,1\n")
        with pytest.raises(FormatError, match="row 3, column 1"):
            load_dataset_csv(path, label_column="label")

    @pytest.mark.parametrize("label", [2, "2"], ids=["int", "text"])
    def test_headerless_by_index(self, tmp_path, label):
        path = tmp_path / "d.csv"
        path.write_text("1,2,0\n3,4,1\n")
        X, y = load_dataset_csv(path, label_column=label)
        assert X.tolist() == [[1.0, 2.0], [3.0, 4.0]] and y.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("label", [3, "7"], ids=["int", "text"])
    def test_headerless_label_index_out_of_range(self, tmp_path, label):
        path = tmp_path / "d.csv"
        path.write_text("1,2,0\n3,4,1\n")
        want = f"{path}: label column index {label} out of range for width 3"
        with pytest.raises(FormatError, match=f"^{re.escape(want)}$"):
            load_dataset_csv(path, label_column=label)

    @pytest.mark.parametrize("label", ["label", "-1", "2.0"])
    def test_headerless_label_must_be_an_index(self, tmp_path, label):
        # All-number first rows are data, so no header names the label.
        path = tmp_path / "d.csv"
        path.write_text("1,2,0\n3,4,1\n")
        want = (f"{path} has no header, so the label column must be a 0-based column index, "
                f"got {label!r}")
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            load_dataset_csv(path, label_column=label)


class TestLossTable:
    def test_load_and_column_access(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("m1,m2\n1,2\n2,3\n3,4\n4,5\n")
        names, losses = load_loss_table(path)
        assert names == ("m1", "m2")
        assert losses[:, names.index("m1")].mean() == pytest.approx(2.5)

    def test_pretrained_model_style_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "VGG-11,GoogLeNet,ShuffleNet,Inception,ResNet-18\n"
            "1.2,1.3,1.4,1.8,1.2\n"
            "0.9,1.1,1.2,1.9,1.0\n"
        )
        names, losses = load_loss_table(path)
        assert losses.shape == (2, 5) and len(names) == 5
        assert losses[:, names.index("ResNet-18")].tolist() == [1.2, 1.0]

    def test_zero_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("only\n0\n0\n")
        _, losses = load_loss_table(path)
        assert np.all(losses == 0.0)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("m\n1\n-1\n")
        with pytest.raises(InvalidLoss, match=r"negative loss at row 3, column 1 \(m\)$"):
            load_loss_table(path)

    @pytest.mark.parametrize("text, where", [
        ("m,k\n1,nan\n-1,2\n", "row 2, column 2 (k)"),   # reported before any negative
        ("m\n1\n\n-inf\n", "row 4, column 1 (m)"),
    ], ids=["nan-before-negative", "minus-inf"])
    def test_non_finite_loss_names_its_cell(self, tmp_path, text, where):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(InvalidLoss, match=rf"non-finite loss at {re.escape(where)}$"):
            load_loss_table(path)
        if "," not in text:
            with pytest.raises(InvalidLoss, match=rf"non-finite loss at {re.escape(where)}$"):
                read_losses_csv(path)

    @pytest.mark.parametrize("text, where", [
        ("m\n\n1\n-1\n", "row 4, column 1 (m)"),      # blank line before the data
        ("\nm\n1\n-1\n", "row 4, column 1 (m)"),      # blank line before the header
        ("a,b\n1,2\n,\n3,-1\n", "row 4, column 2 (b)"),  # blank-cell row, per-cell path
    ], ids=["blank-before-data", "blank-before-header", "blank-cells"])
    def test_negative_loss_names_its_file_line(self, tmp_path, text, where):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(InvalidLoss, match=rf"negative loss at {re.escape(where)}$"):
            load_loss_table(path)

    @pytest.mark.parametrize("header, repeat", [
        ("m,m", "'m' heads both column 1 and column 2"),
        ("a,b,a ,c", "'a' heads both column 1 and column 3"),  # names are stripped
        ("a,b,c,b,b", "'b' heads both column 2 and column 4"),
    ])
    def test_repeated_name_rejected(self, tmp_path, header, repeat):
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\n" + ",".join(["1"] * (header.count(",") + 1)) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: model name {repeat}") + "$"):
            load_loss_table(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("m1,m2\n1,2\n3\n")
        with pytest.raises(FormatError):
            load_loss_table(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("m1,m2\n")
        with pytest.raises(EmptySample):
            load_loss_table(path)


# Every loader as (path -> 2-D array, header, width).  True = the first filled
# row is a header, the loss table's rule.  Every other loader makes that row a
# header iff it is not all numbers; its test files have a header row (None)
# or none (False).
LOADERS = {
    "loss-table": (lambda p: load_loss_table(p)[1], True, 2),
    "dataset": (lambda p: np.column_stack(load_dataset_csv(p, label_column=1)), None, 2),
    "dataset-headerless": (lambda p: np.column_stack(load_dataset_csv(p, label_column=1)),
                           False, 2),
    "losses": (lambda p: read_losses_csv(p)[:, None], False, 1),
    "losses-header": (lambda p: read_losses_csv(p)[:, None], None, 1),
    "distortion-table": (lambda p: np.column_stack(_load_table_csv(p)), None, 2),
    "loss-matrix": (lambda p: load_loss_matrix_csv(p).rows, None, 2),
}


def _body(width: int) -> np.ndarray:
    """Three valid rows for every loader: nonnegative, first column increasing."""
    return np.array([[0.0, 0.25], [1.0, 1.5], [2.0, 2.75]])[:, :width]


def _lines(rows) -> str:
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def _header_line(width: int) -> str:
    return "a,label\n" if width == 2 else "loss\n"


@pytest.mark.parametrize("name", list(LOADERS))
class TestSharedCsvRules:
    """The rules of :func:`read_numeric_csv`, held by all five loaders."""

    def write(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text(text)
        return path

    def test_blank_cell_rows_skipped(self, tmp_path, name):
        load, header, width = LOADERS[name]
        body = _body(width)
        head = _header_line(width) if header is not False else ""
        text = ",,\n" + head + _lines(body[:1]) + ",,\n  \n\n" + _lines(body[1:]) + " , \n"
        assert np.array_equal(load(self.write(tmp_path, text)), body)

    def test_text_first_row(self, tmp_path, name):
        load, _, width = LOADERS[name]
        path = self.write(tmp_path, _header_line(width) + _lines(_body(width)))
        assert np.array_equal(load(path), _body(width))

    def test_numeric_first_row(self, tmp_path, name):
        load, header, width = LOADERS[name]
        body = _body(width)
        got = load(self.write(tmp_path, _lines(body)))
        # A header row is a header even when it reads as numbers.
        assert np.array_equal(got, body[1:] if header else body)

    def test_quoted_number(self, tmp_path, name):
        load, header, width = LOADERS[name]
        body = _body(width)
        head = _header_line(width) if header is not False else ""
        first, rest = _lines(body).split("\n", 1)
        cell, sep, tail = first.partition(",")
        text = head + f'"{cell}"{sep}{tail}\n' + rest
        assert np.array_equal(load(self.write(tmp_path, text)), body)

    def test_bad_cell_names_file_row_and_column(self, tmp_path, name):
        load, header, width = LOADERS[name]
        head = _header_line(width) if header is not False else ""
        rows = _lines(_body(width)).splitlines()
        rows[1] = rows[1].rsplit(",", 1)[0] + ",oops" if width == 2 else "oops"
        path = self.write(tmp_path, head + rows[0] + "\n,,\n" + rows[1] + "\n" + rows[2] + "\n")
        row = 3 + bool(head)
        label = f" ({head.strip().split(',')[-1]})" if head else ""
        want = f"in.csv: row {row}, column {width}{label}: not a number: 'oops'"
        with pytest.raises(FormatError, match=re.escape(want) + "$"):
            load(path)

    def test_ragged_row_rejected(self, tmp_path, name):
        load, header, width = LOADERS[name]
        head = _header_line(width) if header is not False else ""
        rows = _lines(_body(width)).splitlines()
        rows[2] += ",9"
        path = self.write(tmp_path, head + "\n".join(rows) + "\n")
        row = 3 + bool(head)
        with pytest.raises(FormatError, match=f"row {row}: expected {width} columns, got {width + 1}"):
            load(path)

    @pytest.mark.parametrize("text", ["", "\n  \n,,\n"])
    def test_empty_file(self, tmp_path, name, text):
        load, _, _ = LOADERS[name]
        with pytest.raises(EmptySample, match="no data rows"):
            load(self.write(tmp_path, text))


class TestReadNumericCsv:
    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("m1,m2\n,,\n")
        for header in (True, None):
            with pytest.raises(EmptySample):
                read_numeric_csv(path, header=header)

    def test_names_are_stripped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(" m1 , m2\n1,2\n")
        names, values = read_numeric_csv(path, header=None)
        assert names == ("m1", "m2") and values.tolist() == [[1.0, 2.0]]

    def test_header_width_mismatch_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("m1,m2,m3\n1,2\n3,4\n")
        with pytest.raises(FormatError, match="row 2: expected 3 columns, got 2"):
            read_numeric_csv(path, header=True)

    def test_fast_and_per_cell_paths_agree_at_17_digits(self, tmp_path):
        rng = rng_from(5, "csv17")
        values = rng.standard_normal((200, 4)) * 10.0 ** rng.integers(-300, 300, (200, 4))
        values[0] = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1]
        text = _lines(values)
        path = tmp_path / "v.csv"
        path.write_text(text)
        _, fast = read_numeric_csv(path, header=None)
        per_cell = _parse_cells(path, None)
        assert np.array_equal(fast, values) and np.array_equal(per_cell, values)
        # A quoted cell sends the whole body down the per-cell path.
        path.write_text('"' + text.replace(",", '",', 1))
        _, quoted = read_numeric_csv(path, header=None)
        assert np.array_equal(quoted, values)

    @pytest.mark.parametrize("blank", ["  \n", ",,,,\n", " , ,,\t\n", "\t\n"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_blank_rows_give_the_clean_values(self, tmp_path, monkeypatch, blank, newline):
        # numpy rejects these rows; they are skipped like empty lines.  A
        # whitespace-only line never reaches numpy, so the per-cell path stays
        # idle; a lone CR ends a line for both paths, as for the csv module.
        calls = []
        monkeypatch.setattr(data, "_parse_cells", lambda *a: calls.append(a) or _parse_cells(*a))
        rng = rng_from(6, "blank-rows")
        values = rng.exponential(size=(50, 4))
        rows = _lines(values).splitlines(keepends=True)
        clean = "m1,m2,m3,m4\n" + "".join(rows)
        dirty = "m1,m2,m3,m4\n" + "".join(rows[:20]) + blank + "".join(rows[20:]) + blank
        got = {}
        for label, text in (("clean", clean), ("dirty", dirty)):
            path = tmp_path / f"{label}.csv"
            path.write_bytes(text.replace("\n", newline).encode())
            got[label] = read_numeric_csv(path, header=True)
        assert got["dirty"][0] == got["clean"][0] == ("m1", "m2", "m3", "m4")
        assert np.array_equal(got["dirty"][1], got["clean"][1])
        assert np.array_equal(got["clean"][1], values)
        assert len(calls) == (0 if blank.isspace() else 1)

    def test_load_holds_no_copy_of_the_text(self, tmp_path):
        # The 3.1 MB file streams into numpy line by line: the peak is about
        # the 1.3 MB array, where a string copy of the body peaks at 17 MB.
        rng = rng_from(7, "csv-memory")
        values = rng.exponential(size=(20_000, 8))
        path = tmp_path / "t.csv"
        path.write_text("".join(f"m{j}," for j in range(7)) + "m7\n" + _lines(values))
        tracemalloc.start()
        try:
            _, got = load_loss_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, values)
        assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"

    def test_bad_cell_after_a_blank_row_still_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("m1,m2\n1,2\n  \n3,x\n")
        with pytest.raises(FormatError, match=r"t\.csv: row 4, column 2 \(m2\): not a number: 'x'$"):
            read_numeric_csv(path, header=True)


@pytest.mark.parametrize("value, expected", [
    (2, 2.0), (-0.5, -0.5), (np.float32(0.25), 0.25), (np.int64(3), 3.0), (math.inf, math.inf),
    (10 ** 400, math.inf), (-10 ** 400, -math.inf), (Fraction(-10 ** 400, 3), -math.inf),
], ids=["int", "float", "float32", "int64", "inf", "1e400", "-1e400", "fraction"])
def test_real_converts_a_real_number(value, expected):
    """An integer or fraction beyond float range becomes the infinity of its sign."""
    assert data._real(value) == expected


@pytest.mark.parametrize("value", [True, False, None, "1", math.nan, 1j, [1.0]])
def test_real_is_nan_for_anything_else(value):
    assert math.isnan(data._real(value))
