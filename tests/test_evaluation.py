from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import corpus_of
from unroll_tuner.backend import CostModelBackend
from unroll_tuner.benchmarks import SIZE_CLASSES, benchmark_suite, blur, mmxm, rgb_gray, smm
from unroll_tuner.errors import UnrollTunerError
from unroll_tuner.evaluation import (
    REPORT_HEADER,
    accuracy,
    compute_metrics,
    hit_rate,
    report_csv,
    report_table,
    run_benchmarks,
)
from unroll_tuner.featurize import extract_features
from unroll_tuner.dataset import Corpus, label_sample, split_dataset
from unroll_tuner.featurize import fit_scaler
from unroll_tuner.generator import GenConfig, generate
from unroll_tuner.mlp import TrainConfig, init_model, predict_class, predict_probs, train
from unroll_tuner.interp import allocate_buffers, buffer_shapes, interpret, row_major_strides
from unroll_tuner.ir import validate_program
from unroll_tuner.schedule import UNROLL_FACTORS, schedule_program, validate_schedule


def test_metric_anchor_mmxm_schedule1():
    pc, sp = compute_metrics(1.56327, 1.56327, 2.13072)
    assert abs(pc - 1.000) <= 1e-3
    assert abs(sp - 1.362) <= 1e-3


def test_metric_anchor_smm_schedule2():
    pc, sp = compute_metrics(0.080874, 0.080841, 0.081542)
    assert abs(pc - 0.999) <= 1e-3
    assert abs(sp - 1.008) <= 1e-3


def test_metric_equal_times():
    assert compute_metrics(2.5, 2.5, 2.5) == (1.0, 1.0)


def test_metric_nonpositive_rejected():
    with pytest.raises(UnrollTunerError, match=r"^times must be positive, got \(0\.0, "):
        compute_metrics(0.0, 1.0, 1.0)


def labeled(labels) -> Corpus:
    """A Corpus of the given labels whose feature rows are their indices."""
    return Corpus(x=np.arange(len(labels)).reshape(-1, 1), y=np.array(labels))


def test_accuracy_all_correct(matmul4):
    row = extract_features(matmul4).to_list()
    rows = Corpus(x=np.array([row] * 5), y=np.full(5, 8))
    assert accuracy(lambda f: 8, rows) == 1.0


def test_accuracy_constant_predictor_balanced():
    rows = labeled([u for u in UNROLL_FACTORS for _ in range(3)])
    assert accuracy(lambda f: 4, rows) == pytest.approx(1 / 7)


def test_accuracy_matches_hand_count():
    rows = labeled([0, 2, 2, 4, 8, 8, 8, 16, 32, 64, 0, 2, 4, 8, 16, 32, 64, 0, 2, 4])
    preds = [0, 2, 4, 4, 8, 2, 8, 16, 32, 0, 0, 0, 4, 8, 16, 64, 64, 2, 2, 8]
    predict = lambda row: preds[row[0]]      # each row is called with its own features
    # hand count: positions 0,1,3,4,6,7,8,10,12,13,14,16,18 correct = 13
    assert accuracy(predict, rows) == pytest.approx(13 / 20)


def test_hit_rate_pairs_predictions_with_rows_in_order():
    labels = [0, 2, 4, 8]
    assert hit_rate([0, 4, 4, 2], labels) == 0.5
    assert hit_rate(np.array([0, 4, 4, 2]), np.array(labels)) == 0.5
    with pytest.raises(ValueError):
        hit_rate([0, 2, 4], labels)


def test_batched_mlp_accuracy_matches_per_row_predict_class():
    backend = CostModelBackend()
    rows = [label_sample(sp, backend)
            for _, schedules in generate(GenConfig(seed=31), 60) for sp in schedules]
    split = split_dataset(corpus_of(rows), seed=31)
    scaler = fit_scaler(split.train.x)
    model = init_model(scaler.output_width, seed=31)
    model.scaler = scaler
    model, _ = train(model, split, TrainConfig(seed=31, max_epochs=2))
    per_row = [predict_class(model, r.features) for r in rows]
    batched = predict_probs(model, corpus_of(rows).x).argmax(axis=1)
    assert per_row == [UNROLL_FACTORS[i] for i in batched]
    hits = sum(p == r.label for p, r in zip(per_row, rows))
    assert 0 < hits < len(rows)
    assert accuracy(model, corpus_of(rows)) == hits / len(rows)


def test_accuracy_empty_test_set():
    with pytest.raises(UnrollTunerError, match="^accuracy needs a non-empty test set$"):
        accuracy(lambda f: 0, labeled([]))


def test_suite_has_15_instances():
    cases = benchmark_suite()
    assert len(cases) == 15
    assert {c.name for c in cases} == {"MMxM", "SMM", "RGB_gray", "Blur", "Conv_layer"}
    assert {c.size_class for c in cases} == set(SIZE_CLASSES)
    for case in cases:
        assert validate_program(case.program).ok, case.name
        sp = schedule_program(case.program, case.transforms)
        assert validate_schedule(sp).ok


class OracleModel:
    """Perfect predictor: returns the cost-model argmin for the case."""

    def __init__(self, backend):
        self.backend = backend
        self._by_key = {}

    def register(self, sp):
        costs = {u: self.backend.measure(sp, u).mean_ms for u in UNROLL_FACTORS}
        best = min(UNROLL_FACTORS, key=lambda u: (costs[u], u))
        self._by_key[tuple(extract_features(sp).to_list())] = best

    def __call__(self, fv):
        return self._by_key[tuple(fv.to_list())]


def test_oracle_predictor_gets_pc_one():
    backend = CostModelBackend()
    cases = benchmark_suite({"small": 8, "medium": 16, "large": 32})
    oracle = OracleModel(backend)
    for case in cases:
        oracle.register(schedule_program(case.program, case.transforms))
    reports = run_benchmarks(oracle, backend, cases)
    assert len(reports) == 15
    assert all(r.pc == 1.0 for r in reports)
    assert all(r.predicted_factor == r.optimal_factor for r in reports)
    assert all(r.sp >= 1.0 for r in reports)


def test_run_benchmarks_sweeps_once_per_case():
    class CountingBackend(CostModelBackend):
        sweeps = 0

        def sweep(self, sp, factors, runs=1):
            self.sweeps += 1
            return super().sweep(sp, factors, runs)

    backend = CountingBackend()
    cases = benchmark_suite({"small": 8})
    reports = run_benchmarks(lambda fv: 0, backend, cases)
    assert backend.sweeps == len(cases) == len(reports)
    assert all(r.optimal_exec <= r.sans_exec for r in reports)


def test_report_formats():
    backend = CostModelBackend()
    cases = benchmark_suite({"small": 8})[:2]
    oracle = OracleModel(backend)
    for case in cases:
        oracle.register(schedule_program(case.program, case.transforms))
    reports = run_benchmarks(oracle, backend, cases)
    csv_text = report_csv(reports)
    lines = csv_text.strip().splitlines()
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 3
    assert all(len(line.split(",")) == 10 for line in lines)
    table = report_table(reports)
    assert "PC" in table.splitlines()[0]


def test_mmxm_features_consistent_with_featurize_example():
    fv = extract_features(mmxm(64))
    assert fv.load_count == 3
    assert fv.data_loaded[:3] == (3 * 64**2, 64**2 + 2 * 64, 2 * 64)


# --- benchmark programs compute the right math (small sizes) ----------------------

def _flat(shapes, name, *idx):
    st = row_major_strides(shapes[name])
    return sum(i * s for i, s in zip(idx, st))


def test_mmxm_interprets_to_matrix_product():
    p = mmxm(5)
    shapes = buffer_shapes(p)
    bufs = allocate_buffers(p)
    res = interpret(p)
    for i in range(5):
        for j in range(5):
            want = sum(bufs["M1"][_flat(shapes, "M1", i, k)]
                       * bufs["M2"][_flat(shapes, "M2", k, j)] for k in range(5))
            assert res.output[_flat(shapes, "mul", i, j)] == pytest.approx(want, abs=1e-9)


def test_smm_interprets_to_elementwise_formula():
    p = smm(6, alpha=2.0, beta=3.0)
    shapes = buffer_shapes(p)
    bufs = allocate_buffers(p)
    res = interpret(p)
    for i in range(6):
        for j in range(6):
            want = 2.0 * bufs["M1"][_flat(shapes, "M1", i, j)] \
                + 3.0 * bufs["M2"][_flat(shapes, "M2", i, j)]
            assert res.output[_flat(shapes, "add", i, j)] == pytest.approx(want, abs=1e-9)


def test_rgb_gray_interprets_to_weighted_sum():
    p = rgb_gray(4)
    shapes = buffer_shapes(p)
    bufs = allocate_buffers(p)
    res = interpret(p)
    for x in range(4):
        for y in range(4):
            want = (0.299 * bufs["r_input"][_flat(shapes, "r_input", x, y)]
                    + 0.587 * bufs["g_input"][_flat(shapes, "g_input", x, y)]
                    + 0.114 * bufs["b_input"][_flat(shapes, "b_input", x, y)])
            assert res.output[_flat(shapes, "griser", x, y)] == pytest.approx(want, abs=1e-9)


def test_blur_interprets_to_three_tap_average():
    p = blur(4)
    shapes = buffer_shapes(p)
    bufs = allocate_buffers(p)
    res = interpret(p)
    for x in range(4):
        for y in range(4):
            for c in range(4):
                want = (bufs["b_input"][_flat(shapes, "b_input", x, y, c)]
                        + bufs["b_input"][_flat(shapes, "b_input", x + 1, y, c)]
                        + bufs["b_input"][_flat(shapes, "b_input", x + 2, y, c)]) / 3.0
                assert res.output[_flat(shapes, "blur_x", x, y, c)] == \
                    pytest.approx(want, abs=1e-9)


def test_conv_interprets_to_direct_convolution():
    from unroll_tuner.benchmarks import conv_layer
    p = conv_layer(2, cin=2, height=4, width=4, cout=3, kh=3, kw=3)
    shapes = buffer_shapes(p)
    bufs = allocate_buffers(p)
    res = interpret(p)
    for n in range(2):
        for z in range(3):
            for y in range(4):
                for x in range(4):
                    want = sum(
                        bufs["filter"][_flat(shapes, "filter", z, kz, ky, kx)]
                        * bufs["c_input"][_flat(shapes, "c_input", n, kz, y + ky, x + kx)]
                        for kz in range(2) for ky in range(3) for kx in range(3)
                    )
                    got = res.output[_flat(shapes, "conv", n, z, y, x)]
                    assert got == pytest.approx(want, abs=1e-9)


def test_pc_at_most_one_and_tie_condition():
    backend = CostModelBackend()
    cases = benchmark_suite({"small": 8})
    reports = run_benchmarks(lambda fv: 2, backend, cases)   # constant predictor
    for r in reports:
        assert r.pc <= 1.0
        assert (r.pc == 1.0) == (r.predit_exec == r.optimal_exec)
