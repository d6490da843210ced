"""Corpus construction: exhaustive labeling, balancing, splits, CSV I/O.

A sample's label is the unrolling factor with the smallest mean time over the
whole search space U = {0, 2, 4, 8, 16, 32, 64} (ties go to the smallest
factor, i.e. the least code growth).  Features are extracted from the
schedule *before* unrolling so the label never leaks into the vector.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

from .errors import (
    AllClassesBelowMinimum,
    HeaderMismatch,
    MalformedRow,
    TooFewRows,
    UnrollTunerError,
)
from .featurize import CSV_HEADER, FeatureVector, encode_csv_row, extract_features, parse_csv_row
from .rng import SplitMix64
from .schedule import UNROLL_FACTORS, ScheduledProgram

TIMINGS_HEADER = "sample_id," + ",".join(f"f{u}" for u in UNROLL_FACTORS)


@dataclass(frozen=True)
class LabeledSample:
    features: FeatureVector
    label: int
    timing: dict[int, float] | None = None   # factor -> mean_ms


@dataclass(frozen=True)
class SplitDataset:
    train: list[LabeledSample]
    valid: list[LabeledSample]
    test: list[LabeledSample]

    def __len__(self) -> int:
        return len(self.train) + len(self.valid) + len(self.test)


def sweep_argmin(sp: ScheduledProgram, backend, runs: int = 1,
                 factors: tuple[int, ...] = UNROLL_FACTORS) -> tuple[dict[int, float], int]:
    """Mean time per factor from one `backend.sweep`, and the fastest factor.

    Ties go to the smallest factor, i.e. the least code growth.
    """
    results = backend.sweep(sp, factors, runs)
    timing = {u: results[u].mean_ms for u in factors}
    return timing, min(factors, key=lambda u: (timing[u], u))


def label_sample(sp: ScheduledProgram, backend, runs: int = 1,
                 factors: tuple[int, ...] = UNROLL_FACTORS) -> LabeledSample:
    """Time every factor in U and label with the argmin."""
    timing, best = sweep_argmin(sp, backend, runs, factors)
    return LabeledSample(features=extract_features(sp), label=best, timing=timing)


def balance_classes(rows: list[LabeledSample], min_per_class: int,
                    seed: int = 0) -> list[LabeledSample]:
    """Down-sample every class meeting the minimum to a uniform size.

    Classes below the minimum are dropped (with a warning); retained classes
    are seeded-sampled down to the size of the smallest retained class, row
    order preserved.  Idempotent for a fixed seed.
    """
    by_label: dict[int, list[int]] = {}
    for idx, row in enumerate(rows):
        by_label.setdefault(row.label, []).append(idx)
    retained = {label: idxs for label, idxs in by_label.items()
                if len(idxs) >= min_per_class}
    if not retained:
        raise AllClassesBelowMinimum(
            f"no class reaches {min_per_class} rows (counts: "
            f"{ {k: len(v) for k, v in sorted(by_label.items())} })")
    dropped = sorted(set(by_label) - set(retained))
    if dropped:
        warnings.warn(f"dropping classes below the {min_per_class}-row minimum: {dropped}")
    target = min(len(idxs) for idxs in retained.values())
    keep: set[int] = set()
    for label in sorted(retained):
        idxs = retained[label]
        if len(idxs) == target:
            keep.update(idxs)
        else:
            rng = SplitMix64.stream(seed, label)
            keep.update(idxs[k] for k in rng.sample_indices(len(idxs), target))
    return [row for idx, row in enumerate(rows) if idx in keep]


def split_dataset(rows: list[LabeledSample], seed: int = 0) -> SplitDataset:
    """Seeded shuffle then a 60/20/20 cut (sizes within one row of exact)."""
    if len(rows) < 10:
        raise TooFewRows(f"need at least 10 rows to split, got {len(rows)}")
    shuffled = list(rows)
    SplitMix64.stream(seed, 0x5B17).shuffle(shuffled)
    n = len(shuffled)
    n_train = round(0.6 * n)
    n_valid = round(0.2 * n)
    return SplitDataset(
        train=shuffled[:n_train],
        valid=shuffled[n_train:n_train + n_valid],
        test=shuffled[n_train + n_valid:],
    )


def save_csv(rows: list[LabeledSample], path: str) -> None:
    """Write the corpus CSV; timing maps go to a `<path>.timings.csv` sidecar."""
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(encode_csv_row(row.features, row.label) + "\n")
    if any(row.timing for row in rows):
        with open(path + ".timings.csv", "w") as fh:
            fh.write(TIMINGS_HEADER + "\n")
            for idx, row in enumerate(rows):
                if not row.timing:
                    continue
                cells = ",".join(repr(row.timing.get(u, float("nan"))) for u in UNROLL_FACTORS)
                fh.write(f"{idx},{cells}\n")


def load_csv(path: str) -> list[LabeledSample]:
    """Load a corpus CSV, validating the header and every row."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise HeaderMismatch(f"{path}: header does not match the corpus schema")
    timings = _load_timings(path + ".timings.csv")
    rows: list[LabeledSample] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            fv, label = parse_csv_row(line)
        except (ValueError, UnrollTunerError) as exc:
            raise MalformedRow(line_no, str(exc)) from exc
        rows.append(LabeledSample(fv, label, timing=timings.get(len(rows))))
    return rows


def _load_timings(path: str) -> dict[int, dict[int, float]]:
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != TIMINGS_HEADER:
        raise HeaderMismatch(f"{path}: bad timings header")
    out: dict[int, dict[int, float]] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(UNROLL_FACTORS) + 1:
            raise MalformedRow(line_no, f"expected {len(UNROLL_FACTORS) + 1} fields")
        out[int(parts[0])] = {u: float(v) for u, v in zip(UNROLL_FACTORS, parts[1:])}
    return out
