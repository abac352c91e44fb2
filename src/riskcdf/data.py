"""Synthetic datasets, file ingestion and the JSON writer.

Gaussian blob generation uses an explicit Box-Muller transform over a
counter-based (Philox) generator, so the toy dataset is a pure function of
its seed on every platform.  Every CSV input riskcdf reads is parsed by
:func:`read_numeric_csv`, which reports a parse failure with its exact file
row and column.  Every file riskcdf writes goes through :func:`_write_csv`
or :func:`_write_json`.
"""

from __future__ import annotations

import csv
import itertools
import json
import numbers
import types

import numpy as np

from .errors import ConfigError, EmptySample, FormatError, InvalidLoss, NumericError
from .seeds import rng_from, standard_normal

__all__ = [
    "blob_mixture_sampler",
    "TOY_BLOB_SIZES",
    "TOY_BLOB_CENTERS",
    "TOY_BLOB_STDS",
    "toy_blobs",
    "load_dataset_csv",
    "save_dataset_csv",
    "load_loss_table",
    "read_numeric_csv",
]

# Imbalanced two-cluster toy setting: a diffuse majority at the origin and
# a tight minority at (1, 1).
TOY_BLOB_SIZES = (1000, 50)
TOY_BLOB_CENTERS = ((0.0, 0.0), (1.0, 1.0))
TOY_BLOB_STDS = (1.5, 0.5)


def toy_blobs(seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The imbalanced two-cluster toy dataset (1000 + 50 points in 2-D) as
    ``(X, y)``: cluster k (``TOY_BLOB_*``) contributes ``TOY_BLOB_SIZES[k]``
    isotropic Gaussian points labeled k.

    Points appear in cluster-block order (no shuffling) and are identical
    for identical seeds.
    """
    rng = rng_from(seed, "blobs")
    blocks, labels = [], []
    for k, (size, center, std) in enumerate(zip(TOY_BLOB_SIZES, TOY_BLOB_CENTERS, TOY_BLOB_STDS)):
        blocks.append(np.asarray(center) + std * standard_normal(rng, (size, len(center))))
        labels.append(np.full(size, float(k)))
    return np.concatenate(blocks), np.concatenate(labels)


def blob_mixture_sampler():
    """I.i.d. sampler from the toy blob mixture: cluster k (``TOY_BLOB_*``)
    is drawn with probability proportional to ``TOY_BLOB_SIZES[k]``.

    Returns ``sample(rng, n) -> (X, y)`` for Monte Carlo drivers that need
    fresh draws from the population rather than a fixed dataset.
    """
    centers_arr = np.asarray(TOY_BLOB_CENTERS, dtype=np.float64)
    stds_arr = np.asarray(TOY_BLOB_STDS, dtype=np.float64)
    weights = np.asarray(TOY_BLOB_SIZES, dtype=np.float64)
    weights = weights / weights.sum()
    cum = np.cumsum(weights)

    def sample(rng: np.random.Generator, n: int):
        comp = np.searchsorted(cum, rng.random(n), side="right")
        z = standard_normal(rng, (n, centers_arr.shape[1]))
        x = centers_arr[comp] + stds_arr[comp, None] * z
        return x, comp.astype(np.float64)

    return sample


def load_dataset_csv(path, label_column: str | int = "label",
                     has_header: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Load a dataset as ``(X, y)``: the features are the non-label columns
    in header order, the labels the label column.

    ``label_column`` is a header name (with ``has_header``) or a 0-based
    column index.  Parsed by :func:`read_numeric_csv`, so any non-numeric
    cell raises :class:`FormatError` naming the cell, and so does a NaN or
    infinite one.
    """
    if not has_header and not isinstance(label_column, int):
        raise ConfigError("label_column must be a column index when has_header=False")
    names, values = read_numeric_csv(path, header=has_header)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = (int(i) for i in bad[0])
        raise FormatError(f"{path}: {_cell(path, names, row, col)}: "
                          f"not a finite number: {float(values[row, col])}")
    label_idx = label_column
    if not isinstance(label_column, int):
        if label_column not in names:
            raise FormatError(f"{path}: label column {label_column!r} not in header {list(names)}")
        label_idx = names.index(label_column)
    width = values.shape[1]
    if not (0 <= label_idx < width):
        raise FormatError(f"{path}: label column index {label_idx} out of range for width {width}")
    return np.delete(values, label_idx, axis=1), values[:, label_idx]


def save_dataset_csv(X: np.ndarray, y: np.ndarray, path) -> None:
    """Write the rows of features ``X`` as columns ``x0, x1, ...`` and labels
    ``y`` as a ``label`` column (17 significant digits), the format
    :func:`load_dataset_csv` and ``riskcdf train --input`` read."""
    X = np.asarray(X, dtype=np.float64)
    _write_csv(path, [f"x{i}" for i in range(X.shape[1])] + ["label"],
               [*X.T, np.asarray(y, dtype=np.float64)])


def _is_count(value) -> bool:
    """Whether ``value`` is an integer >= 1 and not a bool, as every count riskcdf takes must be."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 1


def _filled_rows(lines):
    """(file line number, cells) of each CSV row with a non-blank cell."""
    reader = csv.reader(lines)
    for row in reader:
        if any(c.strip() for c in row):
            yield reader.line_num, row


def _data_rows(path, names: tuple[str, ...] | None):
    """(file line number, cells) of each data row of ``path``: its filled
    rows after the header, which there is iff ``names`` is set."""
    with open(path, newline="") as fh:
        yield from itertools.islice(_filled_rows(fh), names is not None, None)


def _cell(path, names: tuple[str, ...] | None, row: int, col: int) -> str:
    """``row R, column C (name)`` for data row ``row`` of ``path``, R its file
    line.  Only for error paths: the reader returns no line numbers."""
    line, _ = next(itertools.islice(_data_rows(path, names), row, None))
    name = f" ({names[col]})" if names is not None else ""
    return f"row {line}, column {col + 1}{name}"


def _all_numbers(row: list[str]) -> bool:
    try:
        for cell in row:
            float(cell)
    except ValueError:
        return False
    return True


def _parse_cells(path, names: tuple[str, ...] | None) -> np.ndarray:
    """The data rows of ``path`` cell by cell with ``float``, naming the
    first bad file row and column; the width is the header's, else the
    first row's."""
    width = None if names is None else len(names)
    data = []
    for r, row in _data_rows(path, names):
        width = len(row) if width is None else width
        if len(row) != width:
            raise FormatError(f"{path}: row {r}: expected {width} columns, got {len(row)}")
        parsed = []
        for c, cell in enumerate(row):
            try:
                parsed.append(float(cell))
            except ValueError:
                name = f" ({names[c]})" if names is not None else ""
                raise FormatError(
                    f"{path}: row {r}, column {c + 1}{name}: not a number: {cell!r}"
                ) from None
        data.append(parsed)
    return np.asarray(data, dtype=np.float64)


def read_numeric_csv(path, header: bool | None) -> tuple[tuple[str, ...] | None, np.ndarray]:
    """Read a CSV of numbers: ``(names or None, float64 array of shape (rows, width))``.

    The one format every riskcdf input file shares.  Rows with no
    non-blank cell are skipped.  ``header=True`` makes the first such row
    a header of names, ``False`` means there is none, and ``None`` means a
    header iff that row is not all numbers.  The file's lines stream into
    numpy's C parser, whitespace-only ones dropped; if it rejects them, or
    gives a width other than the header's, the file is read again and each
    cell parsed with ``float``, the first bad one raising
    :class:`FormatError` naming its file row and column (or the row of a
    wrong width).  No data row raises :class:`EmptySample`.
    """
    names, values = None, None
    with open(path, newline="") as fh:
        if header is not False:
            _, first = next(_filled_rows(fh), (0, None))
            if first is not None and (header or not _all_numbers(first)):
                names = tuple(c.strip() for c in first)
            else:
                fh.seek(0)
        lines = itertools.filterfalse(str.isspace, fh)
        if (head := next(lines, None)) is not None:  # numpy warns on empty input
            try:
                values = np.loadtxt(itertools.chain([head], lines), delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
    if values is None or (names is not None and values.shape[1] != len(names)):
        values = _parse_cells(path, names)
    if len(values) == 0:
        raise EmptySample(f"{path}: no data rows")
    return names, values


def _reject_cells(path, names: tuple[str, ...] | None, bad: np.ndarray, kind: str) -> None:
    """Raise :class:`InvalidLoss` ``{path}: {kind} loss at row R, column C``
    for the first true cell of the mask ``bad``, if any."""
    if bad.any():
        row, col = (int(i) for i in np.argwhere(bad)[0])
        raise InvalidLoss(f"{path}: {kind} loss at {_cell(path, names, row, col)}")


def _check_loss_cells(path, names: tuple[str, ...] | None, values: np.ndarray) -> None:
    """Raise :class:`InvalidLoss` naming the file row and column of the first
    non-finite loss in ``values``, else of the first negative one."""
    _reject_cells(path, names, ~np.isfinite(values), "non-finite")
    _reject_cells(path, names, values < 0, "negative")


def load_loss_table(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Load a loss table CSV with a required header of model names:
    ``(names, losses)``, column j of the (rows, models) array ``losses``
    holding model ``names[j]``'s losses.

    Parsed by :func:`read_numeric_csv`.  A name given to two columns raises
    :class:`FormatError` naming both; every entry must be finite and
    nonnegative, and the first that is not raises :class:`InvalidLoss`
    naming its file row and column.
    """
    names, values = read_numeric_csv(path, header=True)
    for col, name in enumerate(names):
        if (first := names.index(name)) < col:
            raise FormatError(f"{path}: model name {name!r} heads both column {first + 1} "
                              f"and column {col + 1}")
    _check_loss_cells(path, names, values)
    return names, values


def _write_json(payload: dict, path) -> None:
    """Write ``payload`` as standard JSON, the format of every JSON file
    riskcdf writes: a NaN or infinity in it raises :class:`NumericError`
    before the file is opened."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"cannot write {path}: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_csv(path, header: list[str], columns) -> None:
    """Write ``columns``, equal-length sequences, under ``header`` as CSV, the
    format of every CSV file riskcdf writes: floats with 17 significant
    digits, integers with ``str``, the header and text cells quoted by the
    csv module, CRLF line ends."""
    line = csv.writer(types.SimpleNamespace(write=str)).writerow  # the quoted line + CRLF
    cells = []
    for column in map(np.asarray, columns):
        if column.dtype.kind == "f":
            cells.append([f"{v:.17g}" for v in column.tolist()])
        elif column.dtype.kind in "iu":
            cells.append([str(v) for v in column.tolist()])
        else:
            cells.append([line([v])[:-2] for v in column.tolist()])
    rows = map(",".join, zip(*cells))
    with open(path, "w", newline="") as fh:
        fh.write("".join([line(header), *[f"{row}\r\n" for row in rows]]))
