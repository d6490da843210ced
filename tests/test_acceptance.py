"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Budgets are asserted with the wall-clock limits the criteria state.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

from conftest import corpus_of
from unroll_tuner.backend import CostModelBackend
from unroll_tuner.baselines import KnnConfig, accuracy_table, knn_predict, tree_fit, tree_predict
from unroll_tuner.cli import main as cli_main
from unroll_tuner.dataset import LabeledSample, balance_classes, label_sample, split_dataset
from unroll_tuner.evaluation import accuracy, compute_metrics
from unroll_tuner.featurize import data_loaded_per_level, fit_scaler
from unroll_tuner.generator import GenConfig, gen_program, gen_schedules, generate
from unroll_tuner.interp import interpret, outputs_equal
from unroll_tuner.ir import load_accesses
from unroll_tuner.mlp import (
    TrainConfig,
    forward,
    init_model,
    loss_and_gradients,
    one_hot,
    train,
)
from unroll_tuner.rng import SplitMix64
from unroll_tuner.schedule import UNROLL_FACTORS, apply_unroll, new_schedule
from unroll_tuner.benchmarks import blur, mmxm, rgb_gray, smm


def report(number: int, name: str, started: float, limit_s: float) -> None:
    elapsed = time.time() - started
    print(f"\nACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s < {limit_s:.0f}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded its {limit_s}s budget"


def test_criterion_01_feature_table_reproduction():
    started = time.time()
    for m in (4, 16, 64):
        assert data_loaded_per_level(mmxm(m))[:3] == [3 * m * m, m * m + 2 * m, 2 * m]
        assert data_loaded_per_level(smm(m))[:2] == [2 * m * m, 2 * m]
        assert data_loaded_per_level(rgb_gray(m))[:2] == [3 * m * m, 3 * m]
        assert data_loaded_per_level(blur(m))[:3] == [3 * m**3, 3 * m * m, 3 * m]
    report(1, "feature-table reproduction (MMxM/SMM/RGB_gray/Blur)", started, 1.0)


def test_criterion_02_data_loaded_oracle_equivalence():
    started = time.time()
    cfg = GenConfig(seed=1002, depth_range=(1, 3), extent_choices=(2, 4),
                    max_inputs=3, max_leaves=10)
    for index in range(200):
        p = gen_program(cfg, index)
        names = [it.name for it in p.iterators]
        extents = [it.extent for it in p.iterators]
        measured = data_loaded_per_level(p)
        for level in range(len(names)):
            # independent oracle: enumerate the nest, count distinct subtuples
            # of each access's iterators at depth >= level
            expected = 0
            for acc in load_accesses(p):
                deep = sorted({names.index(n) for n in set(acc.iterator_names)
                               if names.index(n) >= level})
                if not deep:
                    continue
                seen = set()
                point = [0] * len(names)

                def walk(k):
                    if k == len(names):
                        seen.add(tuple(point[d] for d in deep))
                        return
                    for v in range(extents[k]):
                        point[k] = v
                        walk(k + 1)

                walk(0)
                expected += len(seen)
            assert measured[level] == expected, (index, level)
    report(2, "Alg.-2 oracle equivalence on 200 random programs", started, 30.0)


def test_criterion_03_transform_semantics():
    started = time.time()
    cfg = GenConfig(seed=1003, depth_range=(1, 3), extent_choices=(2, 4, 8),
                    max_inputs=3, schedules_per_program=5)
    rng = SplitMix64(33)
    pairs = 0
    index = 0
    while pairs < 200:
        p = gen_program(cfg, index)
        index += 1
        base = interpret(p)
        for sp in gen_schedules(cfg, p)[1:]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sp = apply_unroll(sp, rng.choice(UNROLL_FACTORS))
            scheduled = interpret(sp)
            tol = 1e-12 if p.dtype.is_float else 0.0
            assert outputs_equal(scheduled.output, base.output, p.dtype, tol), index
            pairs += 1
            if pairs == 200:
                break
    report(3, "transform semantic preservation on 200 pairs", started, 60.0)


def test_criterion_04_unroll_arithmetic():
    started = time.time()
    from conftest import load, make_program
    for n in range(1, 301):
        p = make_program("n", [("i0", n)], load("a", "i0"), ("i0",), [("a", 1)])
        for u in (2, 4, 8, 16, 32, 64):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sp = apply_unroll(new_schedule(p), u)
            eff = max(sp.unroll, 1)
            assert sp.main_trips * eff + sp.remainder_extent == n
            if u <= n:   # no clamping: the identity holds with the requested factor
                assert sp.unroll == u
                assert sp.main_trips * u + sp.remainder_extent == n
    report(4, "unroll arithmetic exhaustive N in [1,300]", started, 1.0)


def test_criterion_05_mlp_numerics():
    started = time.time()
    # (a) softmax rows sum to 1
    m = init_model(6, seed=42, hidden=(16, 8), dropout=(0.0, 0.0))
    rng = np.random.default_rng(0)
    probs, _ = forward(m, rng.normal(size=(64, 6)) * 10, train=False)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    # (b) uniform prediction cross-entropy = ln 7
    zeroed = init_model(4, seed=1, hidden=(8,), dropout=(0.0,))
    for layer in zeroed.layers:
        layer.w[:] = 0.0
    y = one_hot([UNROLL_FACTORS[i % 7] for i in range(21)])
    loss, _ = loss_and_gradients(zeroed, np.ones((21, 4)), y)
    assert abs(loss - math.log(7)) < 1e-6

    # (c) every gradient matches central finite differences (h=1e-5)
    toy = init_model(3, seed=7, hidden=(2, 2), dropout=(0.0, 0.0))
    x = np.random.default_rng(5).normal(size=(4, 3))
    y = one_hot([0, 2, 8, 64])
    _, grads = loss_and_gradients(toy, x, y)
    h = 1e-5
    worst = 0.0
    for k, layer in enumerate(toy.layers):
        for name in grads[k]:
            flat = getattr(layer, name).reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up, _ = loss_and_gradients(toy, x, y)
                flat[idx] = orig - h
                down, _ = loss_and_gradients(toy, x, y)
                flat[idx] = orig
                numeric = (up - down) / (2 * h)
                analytic = grads[k][name].reshape(-1)[idx]
                err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
                worst = max(worst, err)
    assert worst < 1e-4
    report(5, f"MLP numerics (worst gradient rel. err {worst:.2e})", started, 30.0)


@dataclass(frozen=True)
class Point:
    values: tuple[float, ...]

    def to_list(self):
        return list(self.values)


def test_criterion_06_learning_sanity_synthetic():
    started = time.time()
    rng = SplitMix64(2026)
    rows = []
    for i in range(2000):
        cls = i % 7
        angle = 2 * math.pi * cls / 7
        rows.append(LabeledSample(
            Point((10 * math.cos(angle) + rng.uniform(-0.5, 0.5),
                   10 * math.sin(angle) + rng.uniform(-0.5, 0.5))),
            UNROLL_FACTORS[cls]))
    split = split_dataset(corpus_of(rows), seed=6)
    scaler = fit_scaler(split.train.x)
    model = init_model(scaler.output_width, seed=6)
    model.scaler = scaler
    model, history = train(model, split, TrainConfig(seed=6, max_epochs=40))
    acc = accuracy(model, split.test)
    assert acc >= 0.90, f"held-out accuracy {acc:.3f}"

    # deterministic per seed: same run, identical parameters
    model2 = init_model(scaler.output_width, seed=6)
    model2.scaler = scaler
    model2, history2 = train(model2, split, TrainConfig(seed=6, max_epochs=40))
    assert len(history) == len(history2)
    for a, b in zip(model.layers, model2.layers):
        assert np.array_equal(a.w, b.w)
    report(6, f"synthetic learning sanity (accuracy {acc:.3f})", started, 180.0)


def test_criterion_07_above_chance_on_realistic_task():
    started = time.time()
    backend = CostModelBackend()
    rows = []
    for p, schedules in generate(GenConfig(seed=77), 250):
        for sp in schedules:
            rows.append(label_sample(sp, backend))
    assert len(rows) >= 2000
    rows = balance_classes(corpus_of(rows), 5, seed=77)
    split = split_dataset(rows, seed=77)
    scaler = fit_scaler(split.train.x)
    model = init_model(scaler.output_width, seed=77)
    model.scaler = scaler
    model, _ = train(model, split, TrainConfig(seed=77, max_epochs=30))
    acc = accuracy(model, split.test)
    assert acc >= 2 / 7, f"held-out accuracy {acc:.3f} below 2x chance"
    report(7, f"above-chance learning on cost-labeled corpus (accuracy {acc:.3f})",
           started, 300.0)


def test_criterion_08_metric_arithmetic_anchors():
    started = time.time()
    pc, sp = compute_metrics(1.56327, 1.56327, 2.13072)
    assert abs(pc - 1.000) <= 1e-3 and abs(sp - 1.362) <= 1e-3
    pc, sp = compute_metrics(0.080874, 0.080841, 0.081542)
    assert abs(pc - 0.999) <= 1e-3 and abs(sp - 1.008) <= 1e-3
    report(8, "PC/SP arithmetic anchors", started, 1.0)


def test_criterion_09_pipeline_determinism(tmp_path):
    started = time.time()

    def run_pipeline(tag: str) -> dict[str, bytes]:
        root = tmp_path / tag
        progs = root / "progs"
        corpus = root / "corpus.csv"
        model = root / "model.json"
        rep = root / "report.csv"
        root.mkdir()
        assert cli_main(["gen", "--count", "500", "--seed", "99",
                         "--out", str(progs)]) == 0
        assert cli_main(["label", "--programs", str(progs), "--backend", "cost",
                         "--out", str(corpus)]) == 0
        assert cli_main(["train", "--data", str(corpus), "--out", str(model),
                         "--seed", "99", "--max-epochs", "10"]) == 0
        assert cli_main(["bench", "--model", str(model), "--backend", "cost",
                         "--out", str(rep)]) == 0
        out = {}
        for name in sorted(os.listdir(progs)):
            out[f"progs/{name}"] = (progs / name).read_bytes()
        out["corpus.csv"] = corpus.read_bytes()
        out["corpus.csv.timings.csv"] = (root / "corpus.csv.timings.csv").read_bytes()
        out["model.json"] = model.read_bytes()
        out["report.csv"] = rep.read_bytes()
        return out

    first = run_pipeline("run1")
    second = run_pipeline("run2")
    assert first.keys() == second.keys()
    for key in first:
        assert first[key] == second[key], f"{key} differs between runs"
    report(9, f"pipeline determinism over {len(first)} artifacts", started, 600.0)


def test_criterion_10_baseline_parity():
    started = time.time()
    backend = CostModelBackend()
    rows = []
    for p, schedules in generate(GenConfig(seed=55), 120):
        for sp in schedules:
            rows.append(label_sample(sp, backend))
    rows = balance_classes(corpus_of(rows), 5, seed=55)
    split = split_dataset(rows, seed=55)
    scaler = fit_scaler(split.train.x)
    x_train = scaler.transform_matrix(split.train.x)
    y_train = split.train.y

    knn_cfg = KnnConfig(k=5)
    tree = tree_fit(x_train, y_train)
    knn_acc = accuracy(
        lambda row: knn_predict(x_train, y_train, knn_cfg, scaler.transform(row)),
        split.test)
    tree_acc = accuracy(
        lambda row: tree_predict(tree, scaler.transform(row)), split.test)

    model = init_model(scaler.output_width, seed=55)
    model.scaler = scaler
    model, _ = train(model, split, TrainConfig(seed=55, max_epochs=10))
    table = accuracy_table([
        ("neural network", accuracy(model, split.test)),
        ("knn", knn_acc),
        ("decision tree", tree_acc),
    ])
    print("\n" + table)
    assert "neural network" in table and "knn" in table and "decision tree" in table

    # KNN exactness on a hand-built 20-point set vs brute force
    rng = np.random.default_rng(4)
    hx = rng.uniform(-3, 3, size=(20, 2))
    hy = [int(u) for u in rng.choice([0, 2, 4, 8, 16, 32, 64], size=20)]
    for _ in range(40):
        q = rng.uniform(-3, 3, size=2)
        dists = sorted((math.dist(q, hx[i]), i) for i in range(20))
        votes = [hy[i] for _, i in dists[:5]]
        top = max(votes.count(v) for v in votes)
        expected = min(v for v in votes if votes.count(v) == top)
        assert knn_predict(hx, hy, KnnConfig(k=5), q) == expected
    report(10, "baseline parity harness (KNN/tree/MLP table + brute-force KNN)",
           started, 30.0)
