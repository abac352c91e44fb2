"""Synthetic datasets and file ingestion.

Gaussian blob generation uses an explicit Box-Muller transform over a
counter-based (Philox) generator, so a dataset is a pure function of its
parameters and seed on every platform.  Every CSV input riskcdf reads is
parsed by :func:`read_numeric_csv`, which reports a parse failure with its
exact file row and column.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptySample, FormatError, InvalidLoss
from .seeds import rng_from, standard_normal

__all__ = [
    "Dataset",
    "LossTable",
    "generate_blobs",
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


@dataclass(frozen=True)
class Dataset:
    """Feature matrix and label vector."""

    X: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        y = np.asarray(self.y, dtype=np.float64).ravel()
        if X.shape[0] != y.shape[0]:
            raise FormatError(f"feature rows ({X.shape[0]}) != labels ({y.shape[0]})")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def generate_blobs(sizes, centers, stds, seed: int = 0) -> Dataset:
    """Isotropic Gaussian clusters; cluster k contributes sizes[k] points labeled k.

    Points appear in cluster-block order (no shuffling) and are identical
    for identical arguments.
    """
    sizes = [int(s) for s in sizes]
    centers = [np.asarray(c, dtype=np.float64).ravel() for c in centers]
    stds = [float(s) for s in stds]
    if not (len(sizes) == len(centers) == len(stds)):
        raise ConfigError(
            f"sizes ({len(sizes)}), centers ({len(centers)}), and stds "
            f"({len(stds)}) must have equal length"
        )
    if any(s <= 0 for s in stds):
        raise ConfigError("cluster stds must be positive")
    if any(s < 1 for s in sizes):
        raise ConfigError("cluster sizes must be at least 1")
    dim = centers[0].shape[0]
    if any(c.shape[0] != dim for c in centers):
        raise ConfigError("all centers must share a dimension")
    rng = rng_from(seed, "blobs")
    blocks, labels = [], []
    for k, (size, center, std) in enumerate(zip(sizes, centers, stds)):
        blocks.append(center + std * standard_normal(rng, (size, dim)))
        labels.append(np.full(size, float(k)))
    return Dataset(X=np.concatenate(blocks), y=np.concatenate(labels))


def toy_blobs(seed: int = 0) -> Dataset:
    """The imbalanced two-cluster toy dataset (1000 + 50 points in 2-D)."""
    return generate_blobs(TOY_BLOB_SIZES, TOY_BLOB_CENTERS, TOY_BLOB_STDS, seed=seed)


def blob_mixture_sampler(sizes=TOY_BLOB_SIZES, centers=TOY_BLOB_CENTERS,
                         stds=TOY_BLOB_STDS):
    """I.i.d. sampler from the blob mixture (weights proportional to sizes).

    Returns ``sample(rng, n) -> (X, y)`` for Monte Carlo drivers that need
    fresh draws from the population rather than a fixed dataset.
    """
    centers_arr = np.asarray(centers, dtype=np.float64)
    stds_arr = np.asarray(stds, dtype=np.float64)
    weights = np.asarray(sizes, dtype=np.float64)
    weights = weights / weights.sum()
    cum = np.cumsum(weights)

    def sample(rng: np.random.Generator, n: int):
        comp = np.searchsorted(cum, rng.random(n), side="right")
        z = standard_normal(rng, (n, centers_arr.shape[1]))
        x = centers_arr[comp] + stds_arr[comp, None] * z
        return x, comp.astype(np.float64)

    return sample


def load_dataset_csv(path, label_column: str | int = "label",
                     has_header: bool = True) -> Dataset:
    """Load a dataset; features are the non-label columns in header order.

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
    return Dataset(X=np.delete(values, label_idx, axis=1), y=values[:, label_idx])


def save_dataset_csv(dataset: Dataset, path, label_name: str = "label") -> None:
    """Write features + label column (17 significant digits), the format
    :func:`load_dataset_csv` and ``riskcdf train --input`` read."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dataset.dim)] + [label_name])
        for xi, yi in zip(dataset.X, dataset.y):
            writer.writerow([f"{v:.17g}" for v in xi] + [f"{yi:.17g}"])


@dataclass(frozen=True)
class LossTable:
    """Rectangular table of nonnegative losses, one column per model."""

    names: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_models(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]


def _filled_rows(lines):
    """(file line number, cells) of each CSV row with a non-blank cell."""
    reader = csv.reader(lines)
    for row in reader:
        if any(c.strip() for c in row):
            yield reader.line_num, row


def _cell(path, names: tuple[str, ...] | None, row: int, col: int) -> str:
    """``row R, column C (name)`` for data row ``row`` of ``path``, R its file line.

    Only for error paths: the reader returns no line numbers, so this
    re-scans the file for filled row ``row`` after the header (there is one
    iff ``names`` is set).
    """
    with open(path, newline="") as fh:
        line, _ = next(itertools.islice(_filled_rows(fh), row + (names is not None), None))
    name = f" ({names[col]})" if names is not None else ""
    return f"row {line}, column {col + 1}{name}"


def _all_numbers(row: list[str]) -> bool:
    try:
        for cell in row:
            float(cell)
    except ValueError:
        return False
    return True


def _parse_cells(path, body: str, offset: int, names: tuple[str, ...] | None) -> np.ndarray:
    """Rows of ``body`` cell by cell with ``float``, naming the first bad row and column.

    ``offset`` is the file line that precedes ``body``, so errors give file
    line numbers; the width is the header's, else the first row's.
    """
    width = None if names is None else len(names)
    data = []
    for line, row in _filled_rows(io.StringIO(body)):
        r = offset + line
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
    header iff that row is not all numbers.  The body goes through numpy's
    C parser; if it rejects the body, or gives a width other than the
    header's, each cell is parsed with ``float`` and the first bad one
    raises :class:`FormatError` naming its file row and column (or the row
    of a wrong width).  No data row raises :class:`EmptySample`.
    """
    names, offset = None, 0
    with open(path, newline="") as fh:
        if header is not False:
            line, first = next(_filled_rows(fh), (0, None))
            if first is not None and (header or not _all_numbers(first)):
                names, offset = tuple(c.strip() for c in first), line
            else:
                fh.seek(0)
        body = fh.read()
    values = None
    if body.strip():
        try:
            values = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if values is None or (names is not None and values.shape[1] != len(names)):
        values = _parse_cells(path, body, offset, names)
    if len(values) == 0:
        raise EmptySample(f"{path}: no data rows")
    return names, values


def load_loss_table(path) -> LossTable:
    """Load a loss table CSV with a required header of model names.

    Parsed by :func:`read_numeric_csv`; every entry must be finite and
    nonnegative.
    """
    names, values = read_numeric_csv(path, header=True)
    if not np.all(np.isfinite(values)):
        raise InvalidLoss(f"{path}: losses must be finite")
    if np.any(values < 0):
        row, col = (int(i) for i in np.argwhere(values < 0)[0])
        raise InvalidLoss(f"{path}: negative loss at {_cell(path, names, row, col)}")
    return LossTable(names=names, values=values)
