"""Synthetic datasets, file ingestion and the JSON writer.

Gaussian blob generation uses an explicit Box-Muller transform over a
counter-based (Philox) generator, so the toy dataset is a pure function of
its seed on every platform.  Every CSV input riskcdf reads is parsed by
:func:`read_numeric_csv`, which reports a parse failure with its exact file
row and column.  Every file riskcdf writes goes through :func:`_write_csv`
or :func:`_write_json`.

Every number riskcdf takes as an argument must be a real number and not a
bool (:func:`_is_real`).  :func:`_real` converts one to a float: anything
else becomes NaN, and an integer beyond float range becomes infinity of its
sign, so a check of a finite number fails it as it fails infinity.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
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

# The most doubles one working buffer of a blocked loop holds (the KS index
# build, the Monte Carlo blocks, the step noise): 8,192 doubles are 64 KB, so
# each block's temporaries are small and the allocator hands the same memory
# back block after block instead of faulting in fresh pages.
_BUFFER_DOUBLES = 8192


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
    fresh draws from the population rather than a fixed dataset.  ``n`` must
    be an integer >= 0 and not a bool, and numpy must be able to hold n
    draws, else :class:`ConfigError`.  The draws are a pure function of the
    generator's state: ``rng.random(n)`` labels, then
    :func:`~riskcdf.seeds.standard_normal`'s ``u1`` and ``u2`` for the
    points; point i joins cluster ``searchsorted(cum, label_i, "right")`` of
    the cumulative weights ``cum``, and is ``center + std * z`` bit for bit.
    """
    centers_arr = np.asarray(TOY_BLOB_CENTERS, dtype=np.float64)
    stds_arr = np.asarray(TOY_BLOB_STDS, dtype=np.float64)
    weights = np.asarray(TOY_BLOB_SIZES, dtype=np.float64)
    weights = weights / weights.sum()
    cum = np.cumsum(weights)
    d = centers_arr.shape[1]

    def sample(rng: np.random.Generator, n: int):
        if not (_is_real(n) and isinstance(n, numbers.Integral) and n >= 0):
            raise ConfigError(f"blob sampler needs an integer n >= 0, got {n!r}")
        try:
            labels = rng.random(n)
        except (MemoryError, ValueError):
            raise ConfigError(f"blob sampler cannot hold {n} draws in memory") from None
        comp = (labels >= cum[:, None]).sum(axis=0)  # searchsorted(cum, labels, "right")
        x = standard_normal(rng, (n, d))
        # In place on x's C-contiguous buffer, the IEEE operations of
        # centers[comp] + stds[comp] * z, one flat row for all n * d values.
        flat = x.reshape(-1)
        flat *= np.repeat(stds_arr.take(comp), d)
        flat += centers_arr.take(comp, axis=0).reshape(-1)
        np.copyto(labels, comp)
        return x, labels

    return sample


def load_dataset_csv(path, label_column: str | int = "label") -> tuple[np.ndarray, np.ndarray]:
    """Load a dataset as ``(X, y)``: the non-label columns in order, and the
    label column, a header name or a 0-based column index.  A file with no
    header needs an index, an int or its decimal text, else :class:`ConfigError`.
    Parsed by :func:`read_numeric_csv`, so any non-numeric, NaN or infinite
    cell raises :class:`FormatError` naming it.
    """
    names, values = read_numeric_csv(path, header=None)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = (int(i) for i in bad[0])
        raise FormatError(f"{path}: {_cell(path, names, row, col)}: "
                          f"not a finite number: {float(values[row, col])}")
    if isinstance(label_column, int) or (names is None and str(label_column).isdecimal()):
        label_idx = int(label_column)
    elif names is None:
        raise ConfigError(f"{path} has no header, so the label column must be a 0-based "
                          f"column index, got {label_column!r}")
    elif label_column not in names:
        raise FormatError(f"{path}: label column {label_column!r} not in header {list(names)}")
    else:
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
    return _is_real(value) and isinstance(value, numbers.Integral) and value >= 1


def _is_real(value) -> bool:
    """Whether ``value`` is a real number and not a bool, as every number riskcdf takes must be."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _real(value) -> float:
    """``value`` as a float if it is a real number and not a bool, else NaN; an
    integer beyond float range becomes infinity of its sign, and fails as it does."""
    try:
        return float(value) if _is_real(value) else math.nan
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _filled_rows(lines):
    """(file line number, cells) of each CSV row with a non-blank cell."""
    reader = csv.reader(lines)
    for row in reader:
        if any(c.strip() for c in row):
            yield reader.line_num, row


def _data_rows(path, names: tuple[str, ...] | None):
    """(file line number, cells) of each data row of ``path``: its filled
    rows after the header, which there is iff ``names`` is set."""
    with open(path, newline="", encoding="utf-8") as fh:
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
    non-blank cell are skipped.  The first such row is a header of names
    with ``header=True`` (a loss table's) and with ``None`` (every other
    reader) exactly when it is not all numbers.  The file's lines stream into
    numpy's C parser, whitespace-only ones dropped; if it rejects them, or
    gives a width other than the header's, the file is read again and each
    cell parsed with ``float``, the first bad one raising
    :class:`FormatError` naming its file row and column (or the row of a
    wrong width).  A file that is not UTF-8 text raises :class:`FormatError`
    naming the file, and no data row raises :class:`EmptySample`.
    """
    names, values = None, None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            _, first = next(_filled_rows(fh), (0, None))
            if first is not None and (header or not _all_numbers(first)):
                names = tuple(c.strip() for c in first)
            else:
                fh.seek(0)
            lines = itertools.filterfalse(str.isspace, fh)
            if (head := next(lines, None)) is not None:  # numpy warns on empty input
                try:
                    values = np.loadtxt(itertools.chain([head], lines), delimiter=",",
                                        comments=None, ndmin=2)
                except ValueError:
                    pass
        if values is None or (names is not None and values.shape[1] != len(names)):
            values = _parse_cells(path, names)
    except UnicodeDecodeError:
        # The decoder reads ahead in chunks, so its position names no file line.
        raise FormatError(f"{path}: not UTF-8 text") from None
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
    with open(path, "w", encoding="utf-8") as fh:
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join([line(header), *[f"{row}\r\n" for row in rows]]))
