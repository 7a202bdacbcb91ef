"""Datasets: construction, CSV i/o, row draws, and a synthetic benchmark.

A :class:`Dataset` is a frozen bundle of a float64 feature matrix and binary
labels. All randomized operations take explicit seeds; calling twice with the
same seed yields identical results.

Every CSV input, data sets and predictions files alike, is read by one
reader, :func:`read_records`: ``csv.reader`` records ``CSV_CHUNK`` at a time,
a plain chunk converted at once and any other chunk by the per-record loop,
whose errors name the line and column.
"""

from __future__ import annotations

import csv
import itertools
import math
import sys
from contextlib import contextmanager
from dataclasses import field, fields
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .seeding import derive_seed, generator


class DatasetError(ValueError):
    """Malformed dataset input (parse failures, bad labels, empty files)."""


# CSV files are read this many records, and written this many rows, at a time.
CSV_CHUNK = 512


@contextmanager
def open_text(path, error=DatasetError, **kwargs):
    """``open(path, **kwargs)`` to read text; a byte it cannot decode raises ``error`` naming the file and the byte's offset."""
    with open(path, **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # The decoder reads ahead in blocks, so no line is known; exc.object is the block, ending where fh has read to.
            at = fh.buffer.tell() - len(exc.object) + exc.start
            raise error(f"{path}: byte {at} is not {exc.encoding} text ({exc.reason})") from None


def _check_finite(X: np.ndarray) -> None:
    if not np.all(np.isfinite(X)):
        bad = np.argwhere(~np.isfinite(X))[0]
        raise DatasetError(f"non-finite feature at row {bad[0]}, column {bad[1]}")


def is_int(v) -> bool:
    """Whether ``v`` is a Python or numpy integer; a bool or a float is not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def same_kind(default, v) -> bool:
    """Whether ``v`` may stand in a field whose default is ``default``: an int field takes a Python or
    numpy int, never a bool or a float; a float field a finite int or float, Python or numpy, never a
    bool; a list or tuple field items of its first item's kind; any other field its default's type."""
    if isinstance(default, (list, tuple)):
        return isinstance(v, (list, tuple)) and all(same_kind(default[0], x) for x in v)
    if isinstance(default, float):
        if isinstance(v, (float, np.floating)):
            return math.isfinite(v)
        # An int too large for a double fails the comparison.
        return is_int(v) and abs(int(v)) <= sys.float_info.max
    if is_int(default):
        return is_int(v)
    return isinstance(v, type(default))


def ranged(default, test, wording: str):
    """A dataclass field with ``default`` whose values must pass ``test``, which ``wording`` states."""
    return field(default=default, metadata={"range": (test, wording)})


def check_fields(obj) -> None:
    """Check each field of the frozen dataclass ``obj`` for its default's kind, then for its declared range.

    Ints are stored as ``int``, numpy floats as ``float`` and sequences as tuples.
    """
    for f in fields(obj):
        v = getattr(obj, f.name)
        if not same_kind(f.default, v):
            raise ValueError(f"{f.name} must be of the kind of its default {f.default!r}, got {v!r}")
        if isinstance(v, (list, tuple)):
            v = tuple(int(x) if is_int(x) else x for x in v)
        elif is_int(v):
            v = int(v)
        elif isinstance(v, np.floating):
            v = float(v)  # json cannot write a numpy float32
        test, wording = f.metadata.get("range", (None, None))
        if test is not None and not test(v):
            raise ValueError(f"{f.name} must be {wording}, got {v!r}")
        object.__setattr__(obj, f.name, v)


class Dataset:
    """Feature matrix with binary labels.

    Arrays are copied and marked read-only, so a Dataset never changes after
    construction.

    Parameters
    ----------
    features : (N, d) array_like of finite floats
    labels : (N,) array_like with values in {0, 1}
    feature_names : optional list of d column names
    """

    def __init__(self, features, labels, feature_names=None):
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2:
            raise DatasetError(f"features must be 2-d, got shape {X.shape}")
        n, d = X.shape
        if n < 1 or d < 1:
            raise DatasetError(f"need at least one row and one column, got shape {X.shape}")
        _check_finite(X)
        y = np.asarray(labels)
        if y.shape != (n,):
            raise DatasetError(f"labels must have shape ({n},), got {y.shape}")
        # Checked before the cast, which would truncate 0.5 to 0 and 1.7 to 1.
        ok = (y == 0) | (y == 1)
        if not np.all(ok):
            raise DatasetError(f"label outside {{0, 1}} at row {int(np.flatnonzero(~ok)[0])}")
        y = y.astype(np.int64)
        if feature_names is not None:
            feature_names = [str(c) for c in feature_names]
            if len(feature_names) != d:
                raise DatasetError(f"expected {d} feature names, got {len(feature_names)}")
        self.features = X.copy()
        self.labels = y.copy()
        self.feature_names = None if feature_names is None else list(feature_names)
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def take(self, rows) -> "Dataset":
        """New Dataset of the given rows, in their order."""
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(self.features[rows], self.labels[rows], feature_names=self.feature_names)

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, d={self.d})"


# The range of every fraction of rows or columns.
FRACTION = (lambda v: 0.0 < v <= 1.0, "in (0, 1]")


def fraction_count(fraction, n: int) -> int:
    """How many of ``n`` items a fraction in (0, 1] takes: its decimal value times n, rounded up.

    So 0.07 of 100 is 7, where the double product 7.000000000000001 would give 8.
    """
    test, wording = FRACTION
    if not (same_kind(0.0, fraction) and test(fraction)):
        raise ValueError(f"fraction must be {wording}, got {fraction!r}")
    return math.ceil(Fraction(repr(float(fraction))) * n)


def draw(n: int, count: int, rng) -> np.ndarray:
    """``count`` distinct indices of ``range(n)`` drawn by ``rng`` without replacement, sorted ascending."""
    return np.sort(rng.choice(n, size=count, replace=False))


def load_csv(path, label_column: str = "label") -> Dataset:
    """Read a Dataset from a headed CSV file.

    Every column other than ``label_column`` is parsed as a float feature, in
    header order. Labels must be 0/1 or true/false. Parse failures are
    reported with their line and column.
    """
    X, labels, names = _read_csv(path, label_column, label_required=True)
    return Dataset(X, labels, feature_names=names)


def load_features(path, label_column: str = "label") -> np.ndarray:
    """The (N, d) feature matrix of a headed CSV file whose label column may be absent.

    Columns and checks are those of :func:`load_csv`; a label column that is
    present is still validated. A file with and without its label column
    gives the same matrix.
    """
    X, _, _ = _read_csv(path, label_column, label_required=False)
    _check_finite(X)
    return X


def _read_csv(path, label_column, label_required, features=True):
    """(features, labels or None, feature names) of a headed CSV file.

    With ``features`` False no feature cell is parsed and the features are
    (N, 0); the field counts and the labels are still checked.
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = read_header(path, reader)
        if header is None:
            raise DatasetError(f"{path}: empty file")
        label_idx = None
        if label_column in header:
            label_idx = header.index(label_column)
        elif label_required:
            raise DatasetError(f"{path}: label column {label_column!r} not in header {header}")
        if header.count(label_column) > 1:
            raise DatasetError(f"{path}: label column {label_column!r} appears {header.count(label_column)} times in header {header}")
        feat_idx = [i for i in range(len(header)) if i != label_idx]
        if not feat_idx:
            raise DatasetError(f"{path}: no feature columns")
        X, labels, _, _ = read_records(path, reader, header, feat_idx if features else [], label_idx)
    return X, labels, [header[i] for i in feat_idx]


def _next_records(path, reader, count: int) -> list:
    """The next at most ``count`` records of ``reader``; a ``csv.Error`` is a DatasetError naming its line."""
    try:
        return list(itertools.islice(reader, count))
    except csv.Error as exc:
        raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from None


def read_header(path, reader):
    """The stripped names of the first record of ``reader``, or None for an empty file."""
    first = _next_records(path, reader, 1)
    return [h.strip() for h in first[0]] if first else None


def read_records(path, reader, header, feat_idx, label_idx=None, index_idx=None):
    """(features, labels or None, indices or None, line numbers) of the records left in ``reader``.

    The records are taken ``CSV_CHUNK`` at a time. A plain chunk is
    converted at once (:func:`_convert_chunk`); any other chunk goes through
    the per-record loop (:func:`_parse_records`), which gives the same
    arrays where the chunk is plain and names the line and column of every
    error. Features are float64 (N, len(feat_idx)), the labels and the
    integer column ``index_idx`` int64 (N,), and each row's line number, the
    header's being 1, int64 (N,). A file with no data rows is an error.
    """
    parts = []
    lineno = 2
    while records := _next_records(path, reader, CSV_CHUNK):
        parts.append(
            _convert_chunk(records, lineno, len(header), feat_idx, label_idx, index_idx)
            or _parse_records(path, records, lineno, header, feat_idx, label_idx, index_idx)
        )
        lineno += len(records)
    if not any(len(part[3]) for part in parts):
        raise DatasetError(f"{path}: no data rows")
    return tuple(None if arrays[0] is None else np.concatenate(arrays) for arrays in zip(*parts))


# The only label cells a plain chunk holds, and their values.
_BITS = {"0": 0, "1": 1}


def _convert_chunk(records, lineno, width, feat_idx, label_idx, index_idx):
    """What :func:`_parse_records` gives for a plain chunk of ``records``, or None for any other.

    Plain means the header's field count on every record, features that
    ``np.array(cells, dtype=np.float64)`` takes (it calls ``float()`` on each
    cell, as the loop does), labels exactly ``0`` or ``1`` and an integer
    column that ``int()`` takes and int64 holds. Blank lines, ``true`` or
    padded labels and every error go to the loop.
    """
    m = len(records)
    if set(map(len, records)) != {width}:
        return None
    try:
        X = np.array(list(map(itemgetter(*feat_idx), records)) if feat_idx else [()] * m, dtype=np.float64)
        labels = indices = None
        if label_idx is not None:
            labels = np.fromiter(map(_BITS.__getitem__, map(itemgetter(label_idx), records)), np.int64, m)
        if index_idx is not None:
            indices = np.fromiter(map(int, map(itemgetter(index_idx), records)), np.int64, m)
    except (ValueError, OverflowError, KeyError):
        return None
    return X.reshape(m, len(feat_idx)), labels, indices, np.arange(lineno, lineno + m)


def _parse_records(path, records, lineno, header, feat_idx, label_idx, index_idx):
    """What :func:`read_records` gives for ``records``, the first on line ``lineno``, one cell at a time."""
    rows, labels, indices, lines = [], [], [], []
    for lineno, rec in enumerate(records, start=lineno):
        if not rec or (len(rec) == 1 and rec[0].strip() == ""):
            continue
        if len(rec) != len(header):
            raise DatasetError(f"{path}: line {lineno} has {len(rec)} fields, expected {len(header)}")
        if label_idx is not None:
            raw = rec[label_idx].strip().lower()
            if raw not in ("0", "1", "true", "false"):
                raise DatasetError(
                    f"{path}: line {lineno}, column {header[label_idx]!r}: label {rec[label_idx]!r} not in 0/1/true/false"
                )
            labels.append(int(raw in ("1", "true")))
        if index_idx is not None:
            try:
                indices.append(int(rec[index_idx]))
                np.int64(indices[-1])  # OverflowError outside int64
            except (ValueError, OverflowError):
                raise DatasetError(
                    f"{path}: line {lineno}, column {header[index_idx]!r}: not a 64-bit integer: {rec[index_idx]!r}"
                ) from None
        vals = []
        for i in feat_idx:
            try:
                vals.append(float(rec[i]))
            except ValueError:
                raise DatasetError(f"{path}: line {lineno}, column {header[i]!r}: not a number: {rec[i]!r}") from None
        rows.append(vals)
        lines.append(lineno)
    return (
        np.array(rows, dtype=np.float64).reshape(len(rows), len(feat_idx)),
        np.array(labels, dtype=np.int64) if label_idx is not None else None,
        np.array(indices, dtype=np.int64) if index_idx is not None else None,
        np.array(lines, dtype=np.int64),
    )


def write_csv(path, header, columns) -> None:
    """Write a headed CSV file whose columns are ``columns``, ``CSV_CHUNK`` rows at a time.

    Each array in ``columns`` is (N,) for one column or (N, k) for k, so
    (N, 0) for none; no arrays write the header alone. With ``header`` None
    the rows are appended to the file, which already has its header. The
    header goes through ``csv.writer``, so a name that needs quotes gets
    them. A cell is ``str`` of its ``tolist()`` item: a float is its repr,
    the shortest string that round-trips the exact double, so load/save
    round-trips bit-exactly; an int is its digits.
    """
    columns = [c for c in map(np.asarray, columns) if c.ndim == 1 or c.shape[1]]
    with open(path, "w" if header is not None else "a", newline="") as fh:
        if header is not None:
            csv.writer(fh, lineterminator="\n").writerow(header)
        for lo in range(0, len(columns[0]) if columns else 0, CSV_CHUNK):
            cells = [_cells(c[lo : lo + CSV_CHUNK]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _cells(block: np.ndarray) -> list:
    """One string per row of ``block``: its cell, or its cells joined by commas."""
    if block.ndim == 1:
        return list(map(str, block.tolist()))
    return [",".join(map(str, row)) for row in block.tolist()]


def save_csv(ds: Dataset, path, label_column: str = "label") -> None:
    """Write a Dataset as CSV, features then the label; :func:`load_csv` reads it back bit-exactly."""
    names = ds.feature_names or [f"x{j}" for j in range(ds.d)]
    header = list(names) + [label_column]
    # load_csv strips header names and rejects a label column named twice.
    label = label_column.strip()
    count = [h.strip() for h in header].count(label)
    if count > 1:
        raise DatasetError(f"{path}: column {label!r} would appear {count} times in header {header}")
    write_csv(path, header, [ds.features, ds.labels])


def make_synthetic_radial(n_id: int, n_ood: int, d: int, seed: int):
    """Synthetic benchmark with a radial distribution shift.

    Points are standard normal in d dimensions and labeled by a fixed
    nonlinear rule, 1 iff sin(3 x0) + 0.5 x1 > 0. The pooled median norm r0
    splits the draw: points with norm < r0 form the in-distribution train
    set, points with norm >= r0 the OOD test set, so every test point lies
    farther from the origin than every train point.

    If a draw leaves the train set single-class or the test set without a
    positive, the draw is retried with an incremented seed a bounded number
    of times.
    """
    if n_id < 10 or n_ood < 10:
        raise ValueError(f"need at least 10 points per split, got n_id={n_id}, n_ood={n_ood}")
    if d < 2:
        raise ValueError(f"labeling rule reads two coordinates, need d >= 2, got d={d}")
    names = [f"x{j}" for j in range(d)]
    for attempt in range(16):
        rng = generator(derive_seed(seed + attempt, "synthetic_radial"))
        total = 2 * (n_id + n_ood)
        X = rng.standard_normal((total, d))
        norms = np.linalg.norm(X, axis=1)
        r0 = float(np.median(norms))
        below = np.flatnonzero(norms < r0)
        above = np.flatnonzero(norms >= r0)
        if len(below) < n_id or len(above) < n_ood:
            continue
        tr, te = below[:n_id], above[:n_ood]
        y = (np.sin(3.0 * X[:, 0]) + 0.5 * X[:, 1] > 0).astype(np.int64)
        # Train needs both classes for tree fitting; test needs a positive
        # for precision-recall metrics.
        if len(np.unique(y[tr])) < 2 or not np.any(y[te] == 1):
            continue
        train = Dataset(X[tr], y[tr], feature_names=names)
        ood = Dataset(X[te], y[te], feature_names=names)
        return train, ood
    raise RuntimeError(
        f"could not build both classes after bounded retries (n_id={n_id}, n_ood={n_ood}, d={d}, seed={seed})"
    )
