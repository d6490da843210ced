from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import corpus_of
from unroll_tuner.backend import CostModelBackend, cost_model_evaluate
from unroll_tuner.dataset import (
    TIMINGS_HEADER,
    Corpus,
    LabeledSample,
    balance_classes,
    label_sample,
    load_csv,
    save_csv,
    split_dataset,
)
from unroll_tuner.errors import UnrollTunerError
from unroll_tuner.featurize import CSV_HEADER, FEATURE_COLUMNS, extract_features
from unroll_tuner.generator import GenConfig, gen_program, gen_schedules
from unroll_tuner.rng import SplitMix64
from unroll_tuner.schedule import UNROLL_FACTORS, new_schedule


class FixedBackend:
    """Test double returning scripted mean times per factor."""

    def __init__(self, timings):
        self.timings = timings

    def measure(self, sp, u, runs=1):
        from unroll_tuner.backend import ExecResult
        t = self.timings[u]
        return ExecResult(per_run_ms=(t,))

    def sweep(self, sp, factors, runs=1):
        return {u: self.measure(sp, u, runs) for u in factors}


def fv_of(label_seed: int = 0):
    cfg = GenConfig(seed=100 + label_seed, depth_range=(1, 2), extent_choices=(4, 8))
    return extract_features(gen_program(cfg, 0))


def sample(label: int, idx: int = 0) -> LabeledSample:
    return LabeledSample(features=fv_of(idx % 3), label=label)


def same(a: Corpus, b: Corpus) -> bool:
    return (a.x.dtype == b.x.dtype and np.array_equal(a.x, b.x)
            and a.y.dtype == b.y.dtype and np.array_equal(a.y, b.y))


def test_label_argmin(matmul4):
    timings = {0: 9.0, 2: 5.5, 4: 4.0, 8: 3.8, 16: 3.9, 32: 4.5, 64: 7.0}
    row = label_sample(new_schedule(matmul4), FixedBackend(timings))
    assert row.label == 8
    assert row.timing == timings


def test_label_tie_breaks_to_smallest(matmul4):
    row = label_sample(new_schedule(matmul4), FixedBackend({u: 1.0 for u in UNROLL_FACTORS}))
    assert row.label == 0


def test_label_matches_bruteforce_cost_argmin():
    cfg = GenConfig(seed=8)
    backend = CostModelBackend()
    for index in range(30):
        p = gen_program(cfg, index)
        for sp in gen_schedules(cfg, p)[:3]:
            row = label_sample(sp, backend)
            costs = {u: cost_model_evaluate(sp, u).mean_ms for u in UNROLL_FACTORS}
            assert row.label == min(UNROLL_FACTORS, key=lambda u: (costs[u], u))
            assert all(row.timing[row.label] <= row.timing[u] for u in UNROLL_FACTORS)


def test_features_extracted_before_unroll(matmul4):
    row = label_sample(new_schedule(matmul4), CostModelBackend())
    assert row.features == extract_features(new_schedule(matmul4))


def test_balance_example_from_rule():
    rows = ([sample(0, i) for i in range(5000)]
            + [sample(2, i) for i in range(1200)]
            + [sample(4, i) for i in range(1200)]
            + [sample(8, i) for i in range(900)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = balance_classes(corpus_of(rows), 1000, seed=3)
    labels, counts = np.unique(out.y, return_counts=True)
    assert dict(zip(labels.tolist(), counts.tolist())) == {0: 1200, 2: 1200, 4: 1200}
    assert any("dropping classes" in str(w.message) for w in caught)


def test_balance_uniform_input_unchanged():
    rows = corpus_of([sample(u, i) for u in (0, 2, 4) for i in range(50)])
    assert same(balance_classes(rows, 10, seed=1), rows)


def test_balance_idempotent():
    rows = ([sample(0, i) for i in range(80)] + [sample(2, i) for i in range(33)]
            + [sample(8, i) for i in range(57)])
    once = balance_classes(corpus_of(rows), 5, seed=9)
    assert len(once) == 3 * 33
    assert same(balance_classes(once, 5, seed=9), once)


def test_balance_all_below_minimum():
    with pytest.raises(UnrollTunerError, match="^no class reaches 10 rows"):
        balance_classes(corpus_of([sample(0), sample(2)]), 10)


def test_split_60_20_20():
    rows = corpus_of([sample(0, i) for i in range(100)])
    split = split_dataset(rows, seed=4)
    assert (len(split.train), len(split.valid), len(split.test)) == (60, 20, 20)


def test_split_deterministic_and_partition():
    rows = corpus_of([sample(u, i) for i, u in enumerate([0, 2, 4, 8, 16, 32, 64] * 9)])
    a = split_dataset(rows, seed=11)
    b = split_dataset(rows, seed=11)
    assert all(same(x, y) for x, y in zip((a.train, a.valid, a.test), (b.train, b.valid, b.test)))

    def keys(corpus):
        return [(tuple(row), label) for row, label in zip(corpus.x.tolist(), corpus.y.tolist())]

    combined = sorted(keys(a.train) + keys(a.valid) + keys(a.test))
    assert combined == sorted(keys(rows))
    for n in range(10, 40):
        size = n % len(rows) + 10
        s = split_dataset(rows.take(slice(size)), seed=n)
        assert len(s.train) + len(s.valid) + len(s.test) == size


def test_balance_and_split_keep_the_row_objects_draws():
    """Balancing and splitting draw from SplitMix64 exactly as they did on a
    list of row objects: the same rows, in the same order."""
    rows = corpus_of([sample(u, i) for i, u in enumerate([0, 2, 2, 4, 4, 4, 8] * 20)])
    kept = [i for i, u in enumerate(rows.y.tolist()) if u == 0]
    for label, size in ((2, 40), (4, 60)):
        idxs = [i for i, u in enumerate(rows.y.tolist()) if u == label]
        kept += [idxs[k] for k in SplitMix64.stream(7, label).sample_indices(size, 20)]
    kept += [i for i, u in enumerate(rows.y.tolist()) if u == 8]
    balanced = balance_classes(rows, 5, seed=7)
    assert same(balanced, rows.take(sorted(kept)))
    order = list(range(len(balanced)))
    SplitMix64.stream(7, 0x5B17).shuffle(order)
    split = split_dataset(balanced, seed=7)
    assert same(split.train, balanced.take(order[:48]))
    assert same(split.valid, balanced.take(order[48:64]))
    assert same(split.test, balanced.take(order[64:]))


def test_split_too_few_rows():
    with pytest.raises(UnrollTunerError, match="^need at least 10 rows to split, got 9$"):
        split_dataset(corpus_of([sample(0)] * 9), seed=1)


def test_csv_roundtrip(tmp_path):
    rows = [label_sample(new_schedule(gen_program(GenConfig(seed=2), i)), CostModelBackend())
            for i in range(12)]
    path = str(tmp_path / "corpus.csv")
    save_csv(rows, path)
    loaded = load_csv(path)
    assert same(loaded, corpus_of(rows))
    assert loaded.x.shape == (12, len(FEATURE_COLUMNS)) and loaded.x.dtype == np.int64
    # timings go only to the sidecar, one row per sample, which load_csv does not read
    with open(path + ".timings.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == TIMINGS_HEADER
    assert lines[1:] == [f"{i},{','.join(repr(r.timing[u]) for u in UNROLL_FACTORS)}"
                         for i, r in enumerate(rows)]


def test_save_csv_streams_a_generator_like_a_list(tmp_path):
    labeled = [label_sample(new_schedule(gen_program(GenConfig(seed=4), i)), CostModelBackend())
               for i in range(5)]
    # timed and untimed rows mixed: the sidecar numbers only the timed rows,
    # each by its row index in the corpus
    rows = [labeled[0], sample(2), labeled[1], labeled[2], sample(0, 1), labeled[3], labeled[4]]
    outputs = {}
    for name, given in (("list", rows), ("generator", (row for row in rows))):
        path = tmp_path / name / "corpus.csv"
        path.parent.mkdir()
        assert save_csv(given, str(path)) == len(rows)
        outputs[name] = {p.name: p.read_bytes() for p in path.parent.iterdir()}
    assert outputs["generator"] == outputs["list"]
    assert sorted(outputs["list"]) == ["corpus.csv", "corpus.csv.timings.csv"]
    sidecar = outputs["list"]["corpus.csv.timings.csv"].decode().splitlines()
    assert [line.split(",")[0] for line in sidecar[1:]] == ["0", "2", "3", "5", "6"]

    # no row timed: no sidecar, from a list or a generator
    untimed = [sample(0), sample(2, 1), sample(4, 2)]
    for name, given in (("untimed-list", untimed), ("untimed-generator", iter(untimed))):
        path = tmp_path / name / "corpus.csv"
        path.parent.mkdir()
        assert save_csv(given, str(path)) == len(untimed)
        assert [p.name for p in path.parent.iterdir()] == ["corpus.csv"]
    assert ((tmp_path / "untimed-list" / "corpus.csv").read_bytes()
            == (tmp_path / "untimed-generator" / "corpus.csv").read_bytes())


def test_load_csv_ignores_timings_sidecar(tmp_path):
    path = str(tmp_path / "corpus.csv")
    save_csv([sample(0), sample(2)], path)
    with open(path + ".timings.csv", "w") as fh:
        fh.write(TIMINGS_HEADER + "\n0,abc\n")      # a bad cell and a short row
    assert load_csv(path).y.tolist() == [0, 2]


def test_csv_bad_label_rejected(tmp_path):
    path = str(tmp_path / "bad.csv")
    rows = [sample(0)]
    save_csv(rows, path)
    lines = open(path).read().splitlines()
    parts = lines[1].split(",")
    parts[-1] = "5"
    with open(path, "w") as fh:
        fh.write(lines[0] + "\n" + ",".join(parts) + "\n")
    with pytest.raises(UnrollTunerError, match=r"^line 2: label 5 not in \(0, 2"):
        load_csv(path)


def test_csv_header_mismatch(tmp_path):
    path = str(tmp_path / "hdr.csv")
    cols = CSV_HEADER.split(",")
    cols[0], cols[1] = cols[1], cols[0]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
    with pytest.raises(UnrollTunerError, match="hdr.csv: header does not match the corpus schema$"):
        load_csv(path)


@pytest.mark.parametrize("column, cell", [(0, "3.0"), (8, "1e3"), (-1, "8.0"), (1, "x")])
def test_csv_non_integer_cell_rejected(tmp_path, column, cell):
    path = str(tmp_path / "cells.csv")
    save_csv([sample(0)], path)
    lines = open(path).read().splitlines()
    parts = lines[1].split(",")
    parts[column] = cell
    with open(path, "w") as fh:
        fh.write(lines[0] + "\n" + ",".join(parts) + "\n")
    with pytest.raises(UnrollTunerError, match="^line 2: invalid literal for int"):
        load_csv(path)


def corpus_text(rows) -> list[str]:
    """The lines `save_csv` writes for `rows`, header first, without newlines."""
    return [CSV_HEADER] + [",".join(map(str, r.features.to_list() + [r.label])) for r in rows]


@pytest.mark.parametrize("layout", ["blank lines", "crlf", "no final newline", "header only"])
def test_load_csv_layouts(tmp_path, layout):
    """Blank and whitespace-only lines are skipped, CRLF line ends and a
    missing final newline read like plain ones, and a header-only file is
    an empty Corpus as wide as the feature columns."""
    rows = [] if layout == "header only" else [sample(u, i) for i, u in enumerate((0, 8, 2, 8))]
    lines = corpus_text(rows)
    if layout == "blank lines":
        text = "\n".join(lines[:2] + ["", "  \t"] + lines[2:4] + [""] + lines[4:]) + "\n\n"
    elif layout == "crlf":
        text = "\r\n".join(lines) + "\r\n"
    else:
        text = "\n".join(lines) + ("" if layout == "no final newline" else "\n")
    path = tmp_path / "corpus.csv"
    path.write_bytes(text.encode())
    loaded = load_csv(str(path))
    assert loaded.x.shape == (len(rows), len(FEATURE_COLUMNS)) and loaded.x.dtype == np.int64
    assert loaded.y.shape == (len(rows),) and loaded.y.dtype == np.int64
    assert loaded.x.tolist() == [r.features.to_list() for r in rows]
    assert loaded.y.tolist() == [r.label for r in rows]


@pytest.mark.parametrize("edit, message", [
    (lambda parts: parts[:-1], "^line 4: expected 46 fields, got 45$"),
    (lambda parts: parts + ["0"], "^line 4: expected 46 fields, got 47$"),
    (lambda parts: parts[:3] + ["x"] + parts[4:],
     "^line 4: invalid literal for int\\(\\) with base 10: 'x'$"),
    (lambda parts: parts[:-1] + ["5"], r"^line 4: label 5 not in \(0, 2, 4, 8, 16, 32, 64\)$"),
    # the label is read first, as the field count is checked before either
    (lambda parts: ["x"] + parts[1:-1] + ["5"], r"^line 4: label 5 not in \("),
], ids=["short", "long", "cell", "label", "label-first"])
def test_load_csv_names_the_first_faulty_line(tmp_path, edit, message):
    """A fault is reported with its line number, blank lines counted, and
    only the first faulty line is named."""
    lines = corpus_text([sample(0), sample(2, 1), sample(4, 2)])
    lines[2] = ",".join(edit(lines[2].split(",")))
    lines[3] = ",".join(lines[3].split(",")[:-1])          # a later fault is not reached
    path = tmp_path / "corpus.csv"
    path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
    with pytest.raises(UnrollTunerError, match=message):
        load_csv(str(path))


def test_load_csv_memory_is_about_the_int64_table(tmp_path):
    """A loaded corpus holds about its int64 table: 46 cells of 8 bytes
    per row, not one object per row."""
    rows = [LabeledSample(fv_of(i % 3), UNROLL_FACTORS[i % 7]) for i in range(6000)]
    path = str(tmp_path / "corpus.csv")
    save_csv(rows, path)
    tracemalloc.start()
    try:
        loaded = load_csv(path)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table_bytes = len(rows) * (len(FEATURE_COLUMNS) + 1) * 8
    assert len(loaded) == len(rows)
    assert current < 1.5 * table_bytes, (current, table_bytes)
