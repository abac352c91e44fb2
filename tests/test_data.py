import re

import numpy as np
import pytest

from riskcdf.cdf import read_losses_csv
from riskcdf.data import (
    Dataset,
    _parse_cells,
    blob_mixture_sampler,
    generate_blobs,
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
        ds = toy_blobs(seed=0)
        assert ds.n == 1050 and ds.dim == 2
        counts = np.bincount(ds.y.astype(int))
        assert counts.tolist() == [1000, 50]
        # Cluster blocks are contiguous and unshuffled.
        assert np.all(ds.y[:1000] == 0) and np.all(ds.y[1000:] == 1)

    def test_degenerate_spread(self):
        ds = generate_blobs([3], [[0.0, 0.0]], [1e-12], seed=1)
        assert np.allclose(ds.X, 0.0, atol=1e-10)

    def test_determinism(self):
        a = generate_blobs([10, 5], [[0, 0], [2, 2]], [1.0, 0.5], seed=9)
        b = generate_blobs([10, 5], [[0, 0], [2, 2]], [1.0, 0.5], seed=9)
        c = generate_blobs([10, 5], [[0, 0], [2, 2]], [1.0, 0.5], seed=10)
        assert np.array_equal(a.X, b.X)
        assert not np.array_equal(a.X, c.X)

    def test_mismatched_lengths(self):
        with pytest.raises(ConfigError):
            generate_blobs([3, 4], [[0, 0]], [1.0])

    def test_sample_means_converge(self):
        size, std = 10_000, 1.5
        ds = generate_blobs([size], [[2.0, -1.0]], [std], seed=4)
        mean = ds.X.mean(axis=0)
        tol = 5 * std / np.sqrt(size)
        assert abs(mean[0] - 2.0) < tol and abs(mean[1] + 1.0) < tol

    def test_mixture_sampler_weights(self):
        sampler = blob_mixture_sampler()
        X, y = sampler(rng_from(0, "mix"), 20_000)
        assert X.shape == (20_000, 2)
        frac = float(np.mean(y == 1.0))
        assert frac == pytest.approx(50 / 1050, abs=0.01)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        ds = generate_blobs([4, 3], [[0, 0], [1, 1]], [1.0, 1.0], seed=2)
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path, label_column="label")
        assert np.array_equal(loaded.X, ds.X)
        assert np.array_equal(loaded.y, ds.y)
        assert [p.name for p in tmp_path.iterdir()] == ["ds.csv"]  # no sidecar

    @pytest.mark.parametrize("text, header, label, where", [
        ("a,b,label\n1,2,0\n\n3,nan,1\n", True, "label", "row 4, column 2 (b)"),
        ("\na,b,label\n1,2,inf\n", True, "label", "row 3, column 3 (label)"),
        ("1,2,0\n,,\n-inf,4,1\n", False, 2, "row 3, column 1"),
    ], ids=["nan-feature", "inf-label", "headerless"])
    def test_non_finite_cell_names_its_file_line(self, tmp_path, text, header, label, where):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=f"d.csv: {re.escape(where)}: not a finite number"):
            load_dataset_csv(path, label_column=label, has_header=header)

    def test_basic_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,2,0\n3,4,1\n5,6,0\n")
        ds = load_dataset_csv(path, label_column="label")
        assert ds.n == 3 and ds.dim == 2
        assert ds.y.tolist() == [0.0, 1.0, 0.0]
        assert ds.X[1].tolist() == [3.0, 4.0]

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

    def test_headerless_by_index(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,0\n3,4,1\n")
        ds = load_dataset_csv(path, label_column=2, has_header=False)
        assert ds.dim == 2 and ds.y.tolist() == [0.0, 1.0]


class TestLossTable:
    def test_load_and_column_access(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("m1,m2\n1,2\n2,3\n3,4\n4,5\n")
        table = load_loss_table(path)
        assert table.names == ("m1", "m2")
        assert table.column("m1").mean() == pytest.approx(2.5)

    def test_pretrained_model_style_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "VGG-11,GoogLeNet,ShuffleNet,Inception,ResNet-18\n"
            "1.2,1.3,1.4,1.8,1.2\n"
            "0.9,1.1,1.2,1.9,1.0\n"
        )
        table = load_loss_table(path)
        assert table.n_models == 5
        assert table.column("ResNet-18").tolist() == [1.2, 1.0]

    def test_zero_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("only\n0\n0\n")
        table = load_loss_table(path)
        assert np.all(table.values == 0.0)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("m\n1\n-1\n")
        with pytest.raises(InvalidLoss, match=r"negative loss at row 3, column 1 \(m\)$"):
            load_loss_table(path)

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


class TestDatasetType:
    def test_shape_consistency(self):
        with pytest.raises(FormatError):
            Dataset(X=np.zeros((3, 2)), y=np.zeros(2))


# Every loader as (path -> 2-D array, header rule, width).  The header rule is
# the reader's: True = the first filled row is a header, False = there is
# none, None = a header iff that row is not all numbers.
LOADERS = {
    "loss-table": (lambda p: load_loss_table(p).values, True, 2),
    "dataset": (lambda p: _dataset_array(load_dataset_csv(p, label_column=1)), True, 2),
    "dataset-headerless": (lambda p: _dataset_array(
        load_dataset_csv(p, label_column=1, has_header=False)), False, 2),
    "losses": (lambda p: read_losses_csv(p)[:, None], False, 1),
    "losses-header": (lambda p: read_losses_csv(p, has_header=True)[:, None], True, 1),
    "distortion-table": (lambda p: np.column_stack(_load_table_csv(p)), None, 2),
    "loss-matrix": (lambda p: load_loss_matrix_csv(p).rows, None, 2),
}


def _dataset_array(ds: Dataset) -> np.ndarray:
    return np.column_stack([ds.X, ds.y])


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
        load, header, width = LOADERS[name]
        path = self.write(tmp_path, _header_line(width) + _lines(_body(width)))
        if header is False:
            with pytest.raises(FormatError, match="row 1, column 1: not a number"):
                load(path)
        else:
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
        _, fast = read_numeric_csv(path, header=False)
        per_cell = _parse_cells(path, text, 0, None)
        assert np.array_equal(fast, values) and np.array_equal(per_cell, values)
        # A quoted cell sends the whole body down the per-cell path.
        path.write_text('"' + text.replace(",", '",', 1))
        _, quoted = read_numeric_csv(path, header=False)
        assert np.array_equal(quoted, values)

    @pytest.mark.parametrize("blank", ["  \n", ",,,,\n", " , ,,\t\n", "\t\n"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_blank_rows_give_the_clean_values(self, tmp_path, blank, newline):
        # numpy rejects these rows; they are skipped like empty lines.
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

    def test_bad_cell_after_a_blank_row_still_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("m1,m2\n1,2\n  \n3,x\n")
        with pytest.raises(FormatError, match=r"t\.csv: row 4, column 2 \(m2\): not a number: 'x'$"):
            read_numeric_csv(path, header=True)
