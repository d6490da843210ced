"""Corpus construction: exhaustive labeling, balancing, splits, CSV I/O.

A sample's label is the unrolling factor with the smallest mean time over the
whole search space U = {0, 2, 4, 8, 16, 32, 64} (ties go to the smallest
factor, i.e. the least code growth).  Features are extracted from the
schedule *before* unrolling so the label never leaks into the vector.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import UnrollTunerError
from .featurize import CSV_HEADER, FEATURE_COLUMNS, FeatureVector, encode_csv_row, extract_features
from .rng import SplitMix64
from .schedule import UNROLL_FACTORS, ScheduledProgram
from .textfmt import read_text

TIMINGS_HEADER = "sample_id," + ",".join(f"f{u}" for u in UNROLL_FACTORS)
_FIELDS = len(FEATURE_COLUMNS) + 1      # per CSV row: the features, then the label


@dataclass(frozen=True)
class LabeledSample:
    features: FeatureVector
    label: int
    timing: dict[int, float] | None = None   # factor -> mean_ms


@dataclass(frozen=True, eq=False)
class Corpus:
    """Samples as arrays: `x` holds one row of features per sample (the
    FEATURE_COLUMNS, int64, when loaded from a CSV) and `y` its label."""
    x: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    def take(self, rows) -> "Corpus":
        """The rows that `rows`, indices or a boolean mask, select, in order."""
        return Corpus(x=self.x[rows], y=self.y[rows])


@dataclass(frozen=True)
class SplitDataset:
    train: Corpus
    valid: Corpus
    test: Corpus


def sweep_argmin(sp: ScheduledProgram, backend, runs: int = 1) -> tuple[dict[int, float], int]:
    """Mean time per factor of U from one `backend.sweep`, and the fastest
    factor.

    Ties go to the smallest factor, i.e. the least code growth.
    """
    results = backend.sweep(sp, UNROLL_FACTORS, runs)
    timing = {u: results[u].mean_ms for u in UNROLL_FACTORS}
    return timing, min(UNROLL_FACTORS, key=lambda u: (timing[u], u))


def label_sample(sp: ScheduledProgram, backend, runs: int = 1) -> LabeledSample:
    """Time every factor in U and label with the argmin."""
    timing, best = sweep_argmin(sp, backend, runs)
    return LabeledSample(features=extract_features(sp), label=best, timing=timing)


def balance_classes(corpus: Corpus, min_per_class: int, seed: int = 0) -> Corpus:
    """Down-sample every class meeting the minimum to a uniform size.

    Classes below the minimum are dropped (with a warning); retained classes
    are seeded-sampled down to the size of the smallest retained class, row
    order preserved.  Idempotent for a fixed seed.
    """
    labels, counts = np.unique(corpus.y, return_counts=True)
    sizes = {int(label): int(count) for label, count in zip(labels, counts)}
    retained = [label for label, count in sizes.items() if count >= min_per_class]
    if not retained:
        raise UnrollTunerError(f"no class reaches {min_per_class} rows (counts: {sizes})")
    dropped = [label for label in sizes if label not in retained]
    if dropped:
        warnings.warn(f"dropping classes below the {min_per_class}-row minimum: {dropped}")
    target = min(sizes[label] for label in retained)
    keep = np.zeros(len(corpus), dtype=bool)
    for label in retained:
        idxs = np.flatnonzero(corpus.y == label)
        if len(idxs) > target:
            idxs = idxs[SplitMix64.stream(seed, label).sample_indices(len(idxs), target)]
        keep[idxs] = True
    return corpus.take(keep)


def split_dataset(corpus: Corpus, seed: int = 0) -> SplitDataset:
    """Seeded shuffle then a 60/20/20 cut (sizes within one row of exact)."""
    n = len(corpus)
    if n < 10:
        raise UnrollTunerError(f"need at least 10 rows to split, got {n}")
    order = list(range(n))
    SplitMix64.stream(seed, 0x5B17).shuffle(order)
    n_train = round(0.6 * n)
    n_valid = round(0.2 * n)
    return SplitDataset(
        train=corpus.take(order[:n_train]),
        valid=corpus.take(order[n_train:n_train + n_valid]),
        test=corpus.take(order[n_train + n_valid:]),
    )


def save_csv(rows: Iterable[LabeledSample], path: str) -> int:
    """Write the corpus CSV, one line per row as the rows arrive; timing maps
    go to a `<path>.timings.csv` sidecar, kept only when some row is timed.

    Both files are written at temporary names beside their targets and
    replace them only after the last row, so a failure, in `rows` or in a
    write, leaves the targets as they were.  Returns the number of rows.
    """
    sidecar = path + ".timings.csv"
    tmp, tmp_sidecar = path + ".tmp", sidecar + ".tmp"
    n, timed = 0, False
    try:
        with open(tmp, "w") as fh, open(tmp_sidecar, "w") as side:
            fh.write(CSV_HEADER + "\n")
            side.write(TIMINGS_HEADER + "\n")
            for row in rows:
                fh.write(encode_csv_row(row.features, row.label) + "\n")
                if row.timing:
                    cells = ",".join(repr(row.timing[u]) for u in UNROLL_FACTORS)
                    side.write(f"{n},{cells}\n")
                    timed = True
                n += 1
        if timed:
            os.replace(tmp_sidecar, sidecar)
        else:
            os.remove(tmp_sidecar)
        os.replace(tmp, path)
    except BaseException:
        for name in (tmp, tmp_sidecar):
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)
        raise
    return n


def load_csv(path: str) -> Corpus:
    """Load a corpus CSV as one int64 table, validating the header and every
    row; blank lines are skipped.  `x` and `y` are views of the table.

    The rows are parsed in one `np.loadtxt` pass over the open file.  Only
    when that pass fails, or a label is not in U, is the file read again, line
    by line, to name the first faulty line.  The timings sidecar is not read:
    no command uses a loaded row's timing.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != CSV_HEADER:
                raise UnrollTunerError(f"{path}: header does not match the corpus schema")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)    # a file of no rows
                table = np.loadtxt((line for line in fh if not line.isspace()),
                                   dtype=np.int64, delimiter=",", comments=None,
                                   quotechar=None, ndmin=2)
    except ValueError as exc:       # a UnicodeDecodeError too
        raise _first_fault(path, str(exc)) from None
    if table.size == 0:
        table = table.reshape(0, _FIELDS)
    if table.shape[1] != _FIELDS or not np.isin(table[:, -1], UNROLL_FACTORS).all():
        raise _first_fault(path, f"rows must be {_FIELDS} fields with a label in {UNROLL_FACTORS}")
    return Corpus(x=table[:, :-1], y=table[:, -1])


def _line_fault(line: str) -> str | None:
    """What is wrong with one row of the CSV, checked in the order the
    fields are read: their count, the label, then each feature cell."""
    parts = line.strip().split(",")
    if len(parts) != _FIELDS:
        return f"expected {_FIELDS} fields, got {len(parts)}"
    try:
        if int(parts[-1]) not in UNROLL_FACTORS:
            return f"label {parts[-1]} not in {UNROLL_FACTORS}"
        for cell in parts[:-1]:
            int(cell)
    except ValueError as exc:
        return str(exc)
    return None


def _first_fault(path: str, fallback: str) -> UnrollTunerError:
    """The error naming the first faulty line of the corpus CSV at `path`
    (a file that is not UTF-8 raises here), or `fallback` for the file when
    no line is at fault, as for a cell too large for int64."""
    for line_no, line in enumerate(read_text(path).splitlines()[1:], start=2):
        fault = _line_fault(line) if line.strip() else None
        if fault:
            return UnrollTunerError(f"line {line_no}: {fault}")
    return UnrollTunerError(f"{path}: {fallback}")
