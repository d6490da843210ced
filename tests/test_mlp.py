from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, dataclass

import numpy as np
import pytest

from conftest import corpus_of
from unroll_tuner import mlp
from unroll_tuner.dataset import Corpus, LabeledSample, SplitDataset
from unroll_tuner.errors import UnrollTunerError
from unroll_tuner.featurize import (
    FEATURE_COLUMNS,
    RESCALE_DIVISOR,
    Scaler,
    ScalerMode,
    fit_scaler,
)
from unroll_tuner.mlp import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_CHUNK,
    ADAM_EPS,
    ADAM_LR,
    BN_EPS,
    BN_MOMENTUM,
    DEFAULT_DROPOUT,
    LOG_CLAMP,
    MODEL_FORMAT_VERSION,
    N_CLASSES,
    AdamState,
    TrainConfig,
    _views,
    adam_step,
    adam_update,
    forward,
    init_model,
    load_model,
    loss_and_gradients,
    one_hot,
    predict_class,
    predict_probs,
    save_model,
    softmax,
    train,
)
from unroll_tuner.rng import SplitMix64
from unroll_tuner.schedule import UNROLL_FACTORS


@dataclass(frozen=True)
class Point:
    """Minimal feature carrier for synthetic corpora."""
    values: tuple[float, ...]

    def to_list(self):
        return list(self.values)


def toy_model(input_width=3, hidden=(2, 2), dropout=None, seed=0):
    dropout = dropout if dropout is not None else (0.0,) * len(hidden)
    return init_model(input_width, seed=seed, hidden=hidden, dropout=dropout)


def cluster_split(n_rows=200, seed=0, spread=0.4) -> tuple[SplitDataset, Scaler]:
    """Seven well-separated 2-d clusters, one per unrolling class."""
    rng = SplitMix64(seed)
    rows = []
    for i in range(n_rows):
        cls = i % 7
        angle = 2 * math.pi * cls / 7
        x = 10 * math.cos(angle) + rng.uniform(-spread, spread)
        y = 10 * math.sin(angle) + rng.uniform(-spread, spread)
        rows.append(LabeledSample(Point((x, y)), UNROLL_FACTORS[cls]))
    SplitMix64(seed ^ 0xF00).shuffle(rows)
    n_train = round(0.6 * n_rows)
    n_valid = round(0.2 * n_rows)
    split = SplitDataset(train=corpus_of(rows[:n_train]),
                         valid=corpus_of(rows[n_train:n_train + n_valid]),
                         test=corpus_of(rows[n_train + n_valid:]))
    scaler = fit_scaler(split.train.x)
    return split, scaler


# --- init -------------------------------------------------------------------------

def test_init_deterministic():
    a = init_model(10, seed=5)
    b = init_model(10, seed=5)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.w, lb.w)
    c = init_model(10, seed=6)
    assert not np.array_equal(a.layers[0].w, c.layers[0].w)


def test_init_architecture_shapes():
    m = init_model(37, seed=1)
    assert m.layer_dims == (37, 500, 400, 250, 100, 7)
    assert m.layers[0].w.shape == (37, 500)
    assert m.layers[-1].w.shape == (100, 7)
    assert m.dropout_rates == DEFAULT_DROPOUT
    assert all(np.all(l.b == 0.0) for l in m.layers)
    assert np.all(m.layers[0].gamma == 1.0) and np.all(m.layers[0].beta == 0.0)


def test_init_uniform_distribution_stats():
    m = init_model(200, seed=3)
    w = m.layers[0].w.ravel()        # 100k draws
    limit = math.sqrt(6.0 / (200 + 500))
    assert w.min() >= -limit and w.max() <= limit
    # mean of U(-limit, limit) is 0 with sd limit/sqrt(3)/sqrt(n); allow 3 sigma
    assert abs(w.mean()) < 3 * limit / math.sqrt(3) / math.sqrt(w.size)


# --- forward ---------------------------------------------------------------------

def test_softmax_uniform_logits():
    probs = softmax(np.zeros((1, 7)))
    assert probs[0] == pytest.approx([1 / 7] * 7, abs=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    probs = softmax(rng.normal(size=(50, 7)) * 30)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
    assert probs.min() > 0.0


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(10, 7))
    assert np.abs(softmax(z) - softmax(z + 13.25)).max() < 1e-12


def test_infer_mode_repeatable():
    m = toy_model(4, hidden=(8, 8), dropout=(0.5, 0.5))
    x = np.arange(8.0).reshape(2, 4)
    p1, _ = forward(m, x, train=False)
    p2, _ = forward(m, x, train=False)
    assert np.array_equal(p1, p2)


def test_forward_dimension_mismatch():
    m = toy_model(4)
    with pytest.raises(UnrollTunerError, match="^batch width 5 != input width 4$"):
        forward(m, np.zeros((2, 5)))


def test_batchnorm_train_mode_statistics():
    m = toy_model(3, hidden=(16,))
    rng = np.random.default_rng(2)
    x = rng.normal(loc=5.0, scale=3.0, size=(64, 3))
    _, cache = forward(m, x, train=True)
    xhat = cache["xhat"][0]
    assert np.abs(xhat.mean(axis=0)).max() < 1e-6
    assert np.abs(xhat.var(axis=0) - 1.0).max() < 1e-4


def test_forward_updates_running_statistics_in_place():
    m = toy_model(3, hidden=(5, 4), seed=2)
    rng = np.random.default_rng(4)
    for _ in range(2):           # from the initial statistics, then from updated ones
        before = [(l.running_mean.copy(), l.running_var.copy()) for l in m.layers[:-1]]
        _, cache = forward(m, rng.normal(size=(16, 3)), train=True)
        for k, (mean, var) in enumerate(before):
            layer = m.layers[k]
            z = cache["inputs"][k] @ layer.w + layer.b
            want_mean = BN_MOMENTUM * mean + (1 - BN_MOMENTUM) * z.mean(axis=0)
            want_var = BN_MOMENTUM * var + (1 - BN_MOMENTUM) * z.var(axis=0)
            assert layer.running_mean.tobytes() == want_mean.tobytes()
            assert layer.running_var.tobytes() == want_var.tobytes()
            assert layer.running_mean.base is m.store and layer.running_var.base is m.store


@pytest.mark.parametrize("rows", [2, 3, 100])
def test_train_batch_statistics_bits_at_batch_sizes(rows, monkeypatch):
    """Train-mode batchnorm's batch statistics are `z.mean(axis=0)` and
    `z.var(axis=0)` bit for bit."""
    monkeypatch.setattr(mlp, "BN_MOMENTUM", 0.0)    # running stats become the batch's
    m = toy_model(3, hidden=(5, 4), seed=2)
    x = np.random.default_rng(rows).normal(size=(rows, 3)) * 4.0 + 1.5
    _, cache = forward(m, x, train=True)
    for k, layer in enumerate(m.layers[:-1]):
        z = cache["inputs"][k] @ layer.w + layer.b
        assert layer.running_mean.tobytes() == (0.0 + z.mean(axis=0)).tobytes()
        assert layer.running_var.tobytes() == (0.0 + z.var(axis=0)).tobytes()


def test_dropout_train_expectation_matches_infer(monkeypatch):
    """Inverted dropout: E[train-mode activation] == infer-mode activation."""
    m = toy_model(3, hidden=(16,), dropout=(0.3,))
    monkeypatch.setattr(mlp, "BN_MOMENTUM", 0.0)    # running stats mirror the last batch
    rng = np.random.default_rng(3)
    x = rng.normal(size=(32, 3))
    forward(m, x, train=True, dropout_rng=np.random.default_rng(0))
    _, infer_cache = forward(m, x, train=False)
    base = infer_cache["inputs"][-1]
    acc = np.zeros_like(base)
    drop_rng = np.random.default_rng(7)
    n = 10_000
    for _ in range(n):
        _, cache = forward(m, x, train=True, dropout_rng=drop_rng)
        acc += cache["inputs"][-1]
    scale = np.abs(base).max()
    assert np.abs(acc / n - base).max() < 0.05 * max(scale, 1.0)


# --- loss and gradients -------------------------------------------------------------

def test_perfect_prediction_near_zero_loss():
    m = toy_model(2, hidden=(4,))
    # force a huge logit on class 0 via the output bias
    m.layers[-1].b[:] = np.array([50.0, 0, 0, 0, 0, 0, 0])
    y = one_hot([UNROLL_FACTORS[0]] * 3)
    loss, _ = loss_and_gradients(m, np.zeros((3, 2)), y)
    assert loss < 1e-9


def test_uniform_prediction_loss_is_ln7():
    m = toy_model(2, hidden=(4,))
    for layer in m.layers:
        layer.w[:] = 0.0
    y = one_hot([UNROLL_FACTORS[i % 7] for i in range(14)])
    loss, _ = loss_and_gradients(m, np.ones((14, 2)), y)
    assert loss == pytest.approx(math.log(7), abs=1e-6)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def test_gradients_match_finite_differences():
    m = toy_model(3, hidden=(2, 2), seed=4)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 3))
    y = one_hot([0, 2, 8, 64])
    _, grads = loss_and_gradients(m, x, y)
    h = 1e-5
    worst = 0.0
    for k, layer in enumerate(m.layers):
        for name in grads[k]:
            param = getattr(layer, name)
            flat = param.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up, _ = loss_and_gradients(m, x, y)
                flat[idx] = orig - h
                down, _ = loss_and_gradients(m, x, y)
                flat[idx] = orig
                numeric = (up - down) / (2 * h)
                analytic = grads[k][name].reshape(-1)[idx]
                worst = max(worst, rel_err(analytic, numeric))
    assert worst < 1e-4


# --- adam ---------------------------------------------------------------------------

def test_adam_single_scalar_step():
    w = np.array([1.0])
    g = np.array([1.0])
    m1 = np.zeros(1)
    v1 = np.zeros(1)
    adam_update(w, g, m1, v1, t=1, scratch=np.empty(1))
    # hand evaluation: m=0.1, v=0.001, m_hat=1, v_hat=1, step=lr*1/(1+eps)
    expected = 1.0 - 1e-3 * (1.0 / (1.0 + ADAM_EPS))
    assert w[0] == pytest.approx(expected, abs=1e-15)


def test_adam_zero_gradient_no_drift():
    """A zero gradient is an exact no-op, whatever bits the store holds."""
    m = toy_model(2, hidden=(4, 2))
    m.layers[0].running_mean[:] = [-0.0, 5e-324, np.inf, -np.inf]
    m.layers[1].running_var[:] = [-0.0, 2.2250738585072014e-308 / 3]     # subnormal
    before = m.store.tobytes()
    state = AdamState.for_params(m.store)
    state.grad[:] = 0.0
    for t in (1, 2):
        adam_step(m.store, state, t)
        assert m.store.tobytes() == before
    assert not state.m.any() and not state.v.any()


def test_adam_deterministic():
    outs = []
    for _ in range(2):
        m = toy_model(2, seed=9)
        state = AdamState.for_params(m.store)
        state.grad[:] = 0.25
        adam_step(m.store, state, 1)
        outs.append(m.store.tobytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("made", ["init", "trained", "loaded"])
def test_every_array_is_a_view_of_the_store(tmp_path, made):
    split, scaler = cluster_split(n_rows=60, seed=3)
    m = init_model(scaler.output_width, seed=1, hidden=(8, 4), dropout=(0.0, 0.0))
    m.scaler = scaler
    if made != "init":
        m, _ = train(m, split, TrainConfig(seed=1, max_epochs=2))
    if made == "loaded":
        path = str(tmp_path / "m.json")
        save_model(m, path)
        assert _read_model_file(path)[1] == m.store.tobytes()
        m = load_model(path)
    arrays = [a for layer in m.layers for a in vars(layer).values() if a is not None]
    start = 0
    for array in arrays:    # layout: layer by layer, w, b, then the four of batchnorm
        assert array.base is m.store
        assert array.ctypes.data == m.store.ctypes.data + 8 * start
        start += array.size
    assert start == m.store.size
    m.store[:] = 7.0
    assert all(np.all(array == 7.0) for array in arrays)


def test_layer_arrays_cannot_be_rebound():
    m = toy_model(3)
    with pytest.raises(FrozenInstanceError):
        m.layers[0].running_mean = np.zeros(2)
    with pytest.raises(FrozenInstanceError):
        m.layers[-1].w = m.layers[-1].w.copy()
    with pytest.raises(TypeError):
        m.layers[0] = m.layers[1]


def _reference_adam_update(param, grad, m1, v1, t):
    """The per-array ADAM update the flat buffer replaced."""
    m1 *= ADAM_BETA1
    m1 += (1 - ADAM_BETA1) * grad
    v1 *= ADAM_BETA2
    v1 += (1 - ADAM_BETA2) * grad * grad
    m_hat = m1 / (1 - ADAM_BETA1 ** t)
    v_hat = v1 / (1 - ADAM_BETA2 ** t)
    param -= ADAM_LR * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def test_flat_adam_matches_per_layer_updates():
    """ADAM over the whole store equals per-array updates of the trained
    arrays, which leave the running statistics alone."""
    flat = init_model(38, seed=99)
    ref = init_model(38, seed=99)
    assert flat.store.size > 5 * ADAM_CHUNK          # several slices and a partial one
    state = AdamState.for_params(flat.store)
    ref_m, ref_v = np.zeros_like(ref.store), np.zeros_like(ref.store)
    rng = np.random.default_rng(99)
    for t in range(1, 6):
        grad = state.grad
        grad[:] = rng.normal(scale=10.0 ** -t, size=grad.size)
        grad[::7] = 0.0
        for named in _views(flat.layer_dims, grad)[:-1]:
            named["running_mean"][:] = named["running_var"][:] = 0.0
        given = grad.copy()                          # the step uses up `state.grad`
        adam_step(flat.store, state, t)
        views = [_views(ref.layer_dims, buf) for buf in (ref.store, given, ref_m, ref_v)]
        for params, grads, m1, v1 in zip(*views):
            for n in ("w", "b", "gamma", "beta"):
                if n in params:
                    _reference_adam_update(params[n], grads[n], m1[n], v1[n], t)
    assert flat.store.tobytes() == ref.store.tobytes()
    assert state.m.tobytes() == ref_m.tobytes()
    assert state.v.tobytes() == ref_v.tobytes()


def _reference_loss_and_gradients(m, batch, one_hot, dropout_rng=None):
    """Backprop into one fresh array per parameter, as before the flat buffer."""
    y = np.asarray(one_hot, dtype=np.float64)
    probs, cache = forward(m, batch, train=True, dropout_rng=dropout_rng)
    n = probs.shape[0]
    loss = float(-(y * np.log(np.maximum(probs, LOG_CLAMP))).sum() / n)
    grads = [dict() for _ in m.layers]
    delta = (probs - y) / n
    grads[-1]["w"] = cache["inputs"][-1].T @ delta
    grads[-1]["b"] = delta.sum(axis=0)
    da = delta @ m.layers[-1].w.T
    for k in range(m.n_hidden - 1, -1, -1):
        layer = m.layers[k]
        if cache["mask"][k] is not None:
            da = da * cache["mask"][k]
        dh = da * (cache["xhat"][k] * layer.gamma + layer.beta > 0.0)
        xhat, std = cache["xhat"][k], cache["std"][k]
        grads[k]["gamma"] = (dh * xhat).sum(axis=0)
        grads[k]["beta"] = dh.sum(axis=0)
        dxhat = dh * layer.gamma
        dz = (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0)) / std
        grads[k]["w"] = cache["inputs"][k].T @ dz
        grads[k]["b"] = dz.sum(axis=0)
        da = dz @ layer.w.T
    return loss, grads


def test_flat_gradients_match_per_array_backprop():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(100, 38))
    y = one_hot([UNROLL_FACTORS[i % 7] for i in range(100)])
    m, ref = init_model(38, seed=99), init_model(38, seed=99)
    grad = np.full_like(m.store, np.nan)
    loss, grads = loss_and_gradients(m, x, y, np.random.default_rng(5), grad)
    ref_loss, ref_grads = _reference_loss_and_gradients(ref, x, y, np.random.default_rng(5))
    assert loss == ref_loss
    assert not np.isnan(grad).any()         # every slot of the buffer is written
    for got, want in zip(grads, ref_grads):
        assert sorted(got) == sorted([*want, *(("running_mean", "running_var") if "gamma" in want
                                               else ())])
        for name in got:
            assert np.shares_memory(got[name], grad)
            expected = want.get(name, np.zeros_like(got[name]))    # +0.0 for the statistics
            assert got[name].tobytes() == expected.tobytes()
    assert m.store.tobytes() == ref.store.tobytes()


# --- training ------------------------------------------------------------------------

def test_training_learns_separable_clusters():
    split, scaler = cluster_split(n_rows=200, seed=1)
    m = init_model(scaler.output_width, seed=0, hidden=(32, 16), dropout=(0.1, 0.05))
    m.scaler = scaler
    m, history = train(m, split, TrainConfig(seed=0, batch_size=32, max_epochs=200))
    from unroll_tuner.evaluation import accuracy
    assert accuracy(m, split.test) >= 0.90
    assert len(history) <= 200


def test_patience_one_constant_valid_loss_stops_after_two_epochs(monkeypatch):
    split, scaler = cluster_split(n_rows=60, seed=2)
    m = init_model(scaler.output_width, seed=0, hidden=(4,), dropout=(0.0,))
    m.scaler = scaler
    import unroll_tuner.mlp as mlp_mod
    monkeypatch.setattr(mlp_mod, "_evaluate", lambda *a: (1.0, 0.5))
    m, history = train(m, split, TrainConfig(seed=0, patience=1, max_epochs=50))
    assert len(history) == 2


def test_history_length_equals_epochs_run():
    split, scaler = cluster_split(n_rows=60, seed=3)
    m = init_model(scaler.output_width, seed=1, hidden=(8,), dropout=(0.0,))
    m.scaler = scaler
    m, history = train(m, split, TrainConfig(seed=1, max_epochs=7, patience=100))
    assert len(history) == 7
    assert [h["epoch"] for h in history] == list(range(7))


@pytest.mark.parametrize("batch_size, sizes", [
    (10, [10, 10, 10, 6]),       # a short last batch weighs less
    (7, [7] * 5),                # the 36th row alone is skipped
])
def test_history_train_loss_is_row_weighted_batch_mean(monkeypatch, batch_size, sizes):
    import unroll_tuner.mlp as mlp_mod
    split, scaler = cluster_split(n_rows=60, seed=7)        # 36 training rows
    m = init_model(scaler.output_width, seed=5, hidden=(8,), dropout=(0.1,))
    m.scaler = scaler
    events = []
    real_step, real_evaluate = mlp_mod.loss_and_gradients, mlp_mod._evaluate

    def step(model, batch, *args):
        loss, grads = real_step(model, batch, *args)
        events.append((loss, len(batch)))
        return loss, grads

    def evaluate(*args):
        events.append(None)                  # the end of an epoch
        return real_evaluate(*args)

    monkeypatch.setattr(mlp_mod, "loss_and_gradients", step)
    monkeypatch.setattr(mlp_mod, "_evaluate", evaluate)
    m, history = train(m, split, TrainConfig(seed=5, batch_size=batch_size, max_epochs=4,
                                             patience=10))
    epochs, batches = [], []
    for event in events:
        if event is None:
            epochs.append(batches)
            batches = []
        else:
            batches.append(event)
    assert len(epochs) == len(history) == 4
    for h, batches in zip(history, epochs):
        assert set(h) == {"epoch", "train_loss", "valid_loss", "valid_acc"}
        assert [rows for _, rows in batches] == sizes
        loss_sum = 0.0
        for loss, rows in batches:
            loss_sum += loss * rows
        assert h["train_loss"] == loss_sum / sum(sizes)


def test_history_train_loss_nan_when_no_batch_runs():
    """Batchnorm needs two rows, so one-row batches would never run a step
    and leave a NaN train loss in every epoch; the config refuses them."""
    with pytest.raises(ValueError, match="batch_size must be >= 2"):
        TrainConfig(seed=5, batch_size=1, max_epochs=2)


def test_early_stopping_returns_best_snapshot():
    split, scaler = cluster_split(n_rows=120, seed=4)
    m = init_model(scaler.output_width, seed=2, hidden=(16,), dropout=(0.2,))
    m.scaler = scaler
    m, history = train(m, split, TrainConfig(seed=2, max_epochs=60, patience=5))
    x_valid = scaler.transform_matrix(split.valid.x)
    y_valid = one_hot(split.valid.y)
    from unroll_tuner.mlp import _evaluate
    final_loss, _ = _evaluate(m, x_valid, y_valid)
    assert final_loss == pytest.approx(min(h["valid_loss"] for h in history), abs=1e-12)


def test_training_deterministic():
    models = []
    for _ in range(2):
        split, scaler = cluster_split(n_rows=80, seed=5)
        m = init_model(scaler.output_width, seed=3, hidden=(8, 4), dropout=(0.1, 0.1))
        m.scaler = scaler
        m, _ = train(m, split, TrainConfig(seed=3, max_epochs=10, patience=10))
        models.append(m)
    for la, lb in zip(models[0].layers, models[1].layers):
        assert np.array_equal(la.w, lb.w)
        assert np.array_equal(la.b, lb.b)


def test_empty_split_rejected():
    empty = Corpus(x=np.empty((0, 2)), y=np.empty(0, dtype=np.int64))
    split = SplitDataset(train=empty, valid=empty, test=empty)
    m = toy_model(2)
    m.scaler = fit_scaler([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(UnrollTunerError, match="^train and valid splits must be non-empty$"):
        train(m, split)


# --- the helper executor ---------------------------------------------------------------

def set_cpus(monkeypatch, n: int) -> None:
    """Make `train` see `n` usable CPUs."""
    monkeypatch.setattr(mlp.os, "sched_getaffinity", lambda pid: set(range(n)))


def on_threads(monkeypatch, *names: str) -> list[tuple[str, bool]]:
    """Spy on the named `mlp` functions; the list gets (name, on the main
    thread?) per call."""
    calls = []
    for name in names:
        def spy(*args, _fn=getattr(mlp, name), _name=name):
            calls.append((_name, threading.current_thread() is threading.main_thread()))
            return _fn(*args)
        monkeypatch.setattr(mlp, name, spy)
    return calls


def test_train_with_helper_matches_one_cpu(monkeypatch):
    """With a helper thread, `train` gives the store bytes and the history
    of a one-CPU run, with dropout and ADAM steps of more than two chunks,
    and its executor leaves no thread behind."""
    monkeypatch.setattr(mlp, "ADAM_CHUNK", 256)
    calls = on_threads(monkeypatch, "_dropout_mask", "_weight_gradient", "adam_update")
    runs = {}
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        calls.clear()
        split, scaler = cluster_split(n_rows=120, seed=6)
        m = init_model(scaler.output_width, seed=4, hidden=(24, 16), dropout=(0.2, 0.1))
        assert m.store.size > 2 * mlp.ADAM_CHUNK
        m.scaler = scaler
        threads = threading.active_count()
        m, history = train(m, split, TrainConfig(seed=4, batch_size=16, max_epochs=4))
        assert threading.active_count() == threads
        runs[cpus] = (m.store.tobytes(), json.dumps(history))
        off_main = {name for name, main in calls if not main}
        assert off_main == (set() if cpus == 1 else
                            {"_dropout_mask", "_weight_gradient", "adam_update"})
    assert runs[1] == runs[2]


def test_helper_steps_match_inline_steps():
    """`loss_and_gradients` and `adam_step` on a one-worker executor give
    the bits of inline runs: loss, gradient, store, moments and the dropout
    generator's state."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(100, 38))
    y = one_hot([UNROLL_FACTORS[i % 7] for i in range(100)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)                     # the threads trade the lock often
    try:
        with ThreadPoolExecutor(1) as helper:
            got = []
            for h in (None, helper):
                m = init_model(38, seed=99)
                assert m.store.size > 2 * ADAM_CHUNK and all(m.dropout_rates)
                state = AdamState.for_params(m.store)
                dropout_rng = np.random.default_rng(5)
                steps = []
                for t in (1, 2, 3):
                    loss, _ = loss_and_gradients(m, x, y, dropout_rng, state.grad, h)
                    grad = state.grad.tobytes()
                    adam_step(m.store, state, t, h)
                    steps.append((loss, grad, m.store.tobytes(), state.m.tobytes(),
                                  state.v.tobytes()))
                got.append((steps, dropout_rng.bit_generator.state))
        assert got[0] == got[1]
    finally:
        sys.setswitchinterval(interval)


def test_dropout_masks_are_drawn_in_layer_order():
    """Inline or on a one-worker executor, layer k's mask is the k-th draw
    of the generator's stream, as when each layer drew its own in turn."""
    m = toy_model(3, hidden=(5, 4, 6), dropout=(0.5, 0.0, 0.3))
    x = np.random.default_rng(1).normal(size=(8, 3))
    with ThreadPoolExecutor(1) as helper:
        for h in (None, helper):
            _, cache = forward(m, x, True, np.random.default_rng(9), h)
            rng = np.random.default_rng(9)
            want = [(rng.random((8, width)) >= rate) / (1.0 - rate) if rate else None
                    for width, rate in zip(m.layer_dims[1:], m.dropout_rates)]
            assert [None if a is None else a.tobytes() for a in cache["mask"]] == \
                [None if a is None else a.tobytes() for a in want]


def test_no_helper_work_in_flight_after_a_step(monkeypatch):
    """Every task submitted by `loss_and_gradients` or `adam_step` has ended
    when the call returns, however slow the executor's worker."""
    done = []

    def slow(fn):
        def task(*args):
            time.sleep(0.005)
            fn(*args)
            done.append(fn.__name__)
        return task

    monkeypatch.setattr(mlp, "_weight_gradient", slow(mlp._weight_gradient))
    m = toy_model(3, hidden=(4, 4), dropout=(0.5, 0.5))
    x = np.random.default_rng(1).normal(size=(8, 3))
    y = one_hot([UNROLL_FACTORS[i % 7] for i in range(8)])
    state = AdamState.for_params(m.store)
    with ThreadPoolExecutor(1) as helper:
        loss_and_gradients(m, x, y, np.random.default_rng(2), state.grad, helper)
        assert done == ["_weight_gradient"] * len(m.layers)
        monkeypatch.setattr(mlp, "ADAM_CHUNK", 16)
        monkeypatch.setattr(mlp, "adam_update", slow(mlp.adam_update))
        state = AdamState.for_params(m.store)
        done.clear()
        adam_step(m.store, state, 1, helper)
        assert len(done) == 2 * -(-m.store.size // 32)      # an even number of slices


@pytest.mark.parametrize("chunk", [ADAM_CHUNK, 16, 1])
def test_adam_slices_split_the_store_evenly(monkeypatch, chunk):
    """`adam_step` cuts the store into an even number of slices of at most
    ADAM_CHUNK elements, whose sizes differ by at most one, so the caller
    and the helper each update half of it."""
    monkeypatch.setattr(mlp, "ADAM_CHUNK", chunk)
    m = init_model(38, seed=99) if chunk == ADAM_CHUNK else toy_model(3)
    sizes = []
    monkeypatch.setattr(mlp, "adam_update", lambda *args: sizes.append(args[0].size))
    adam_step(m.store, AdamState.for_params(m.store), 1)
    assert len(sizes) % 2 == 0 and sum(sizes) == m.store.size
    assert max(sizes) - min(sizes) <= 1 and max(sizes) <= chunk
    assert len(sizes) == 2 * -(-m.store.size // (2 * chunk))
    assert abs(sum(sizes[::2]) - sum(sizes[1::2])) <= len(sizes) // 2


def test_helper_task_error_surfaces_in_caller(monkeypatch):
    """An exception in a submitted task re-raises in the thread that
    submitted it, inline or from a one-worker executor: from
    `loss_and_gradients`, `adam_step` and `train` on one CPU and on two,
    where `train` shuts its executor down on the way out."""
    def broken(*args):
        raise FloatingPointError("task failed")

    m = toy_model(3, hidden=(4,), dropout=(0.5,))
    x = np.random.default_rng(1).normal(size=(8, 3))
    y = one_hot([UNROLL_FACTORS[i % 7] for i in range(8)])
    state = AdamState.for_params(m.store)
    real_update = mlp.adam_update
    monkeypatch.setattr(mlp, "_weight_gradient", broken)
    monkeypatch.setattr(mlp, "ADAM_CHUNK", 8)
    monkeypatch.setattr(mlp, "adam_update", lambda *args: (     # the submitted, odd chunks fail
        broken() if np.shares_memory(args[-1], state.scratch[1]) else real_update(*args)))
    with ThreadPoolExecutor(1) as threaded:
        for helper in (None, threaded):
            with pytest.raises(FloatingPointError, match="task failed"):
                loss_and_gradients(m, x, y, np.random.default_rng(2), state.grad, helper)
            with pytest.raises(FloatingPointError, match="task failed"):
                adam_step(m.store, state, 1, helper)

    monkeypatch.setattr(mlp, "_dropout_mask", broken)
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        split, scaler = cluster_split(n_rows=60, seed=2)
        m = init_model(scaler.output_width, seed=1, hidden=(8,), dropout=(0.3,))
        m.scaler = scaler
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="task failed"):
            train(m, split, TrainConfig(seed=1, max_epochs=2))
        assert threading.active_count() == threads


def test_blas_pin_restores_the_thread_count():
    """`_one_blas_thread` runs its block on one OpenBLAS thread and restores
    the count it found, also when the block raises."""
    blas = mlp._openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    get_threads, set_threads = blas
    before = get_threads()
    try:
        set_threads(2)
        with pytest.raises(KeyError), mlp._one_blas_thread():
            assert get_threads() == 1
            raise KeyError
        assert get_threads() == 2
    finally:
        set_threads(before)


# --- prediction / persistence ----------------------------------------------------------

def identity_scaler(width: int) -> Scaler:
    return Scaler(mode=ScalerMode.Standardize, stat_a=(0.0,) * width,
                  stat_b=(1.0,) * width, dropped_columns=(), rescaled_columns=())


def test_predict_class_maps_peak_to_factor():
    m = toy_model(2, hidden=(4,))
    m.scaler = identity_scaler(2)
    m.trained = True
    m.layers[-1].w[:] = 0.0
    m.layers[-1].b[:] = 0.0
    m.layers[-1].b[3] = 9.0
    assert predict_class(m, Point((0.3, -0.2))) == 8


def test_predict_argmax_scale_invariance():
    m = toy_model(2, hidden=(4,))
    m.scaler = identity_scaler(2)
    m.trained = True
    probs = predict_probs(m, [[0.5, 1.0]])
    m.layers[-1].w[...] *= 3.0      # strictly increasing rescale of the logits
    m.layers[-1].b[...] *= 3.0
    rescaled = predict_probs(m, [[0.5, 1.0]])
    assert int(probs.argmax()) == int(rescaled.argmax())


def _reference_transform(scaler: Scaler, rows) -> np.ndarray:
    """`Scaler.transform_matrix` as first written: every array rebuilt per call."""
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    x = x.copy()
    x[:, scaler.rescaled_columns] /= RESCALE_DIVISOR
    a = np.asarray(scaler.stat_a)
    b = np.asarray(scaler.stat_b)
    if scaler.mode is ScalerMode.Standardize:
        scaled = (x - a) / np.where(b == 0.0, 1.0, b)
    else:
        span = b - a
        scaled = (x - a) / np.where(span == 0.0, 1.0, span)
    dropped = set(scaler.dropped_columns)
    return scaled[:, [c for c in range(x.shape[1]) if c not in dropped]]


def _reference_infer(m, x: np.ndarray) -> np.ndarray:
    """Infer-mode `forward` as first written, with a new array per operation,
    on one BLAS thread as `predict_probs` runs."""
    a = x
    with mlp._one_blas_thread():
        for layer in m.layers[:-1]:
            z = a @ layer.w + layer.b
            xhat = (z - layer.running_mean) / np.sqrt(layer.running_var + BN_EPS)
            a = np.maximum(layer.gamma * xhat + layer.beta, 0.0)
        return softmax(a @ m.layers[-1].w + m.layers[-1].b)


@pytest.mark.parametrize("mode", list(ScalerMode))
def test_predict_probs_bit_identical_to_reference(mode):
    rng = np.random.default_rng(99)
    rows = rng.integers(0, 3000, size=(300, len(FEATURE_COLUMNS))).astype(float)
    rows[:, 5] = 7.0                               # a constant column is dropped
    scaler = fit_scaler(rows[:200].tolist(), mode)
    assert scaler.dropped_columns
    m = init_model(scaler.output_width, seed=5)
    for layer in m.layers[:-1]:
        layer.running_mean[...] = rng.normal(size=layer.b.shape)
        layer.running_var[...] = rng.uniform(0.1, 4.0, size=layer.b.shape)
        layer.gamma[...] = rng.normal(size=layer.b.shape)
        layer.beta[...] = rng.normal(size=layer.b.shape)
    m.scaler, m.trained = scaler, True
    expected = _reference_infer(m, _reference_transform(scaler, rows))
    for _ in range(2):                             # the second call reuses the scaler's arrays
        assert predict_probs(m, rows).tobytes() == expected.tobytes()
    for row in rows[::15].tolist():     # one row multiplies in another order than a batch
        one = _reference_infer(m, _reference_transform(scaler, [row]))
        assert predict_probs(m, [row]).tobytes() == one.tobytes()
        # the one-row path keeps the row 1-D from the scaler to the softmax
        probs, _ = mlp._infer(m, scaler.transform(row))
        assert probs.shape == (N_CLASSES,)
        assert probs.tobytes() == one[0].tobytes()
        assert predict_class(m, Point(tuple(row))) == UNROLL_FACTORS[
            int(predict_probs(m, [row])[0].argmax())]


def _trained_toy(width=4, hidden=(6, 5), seed=8):
    rng = np.random.default_rng(seed)
    m = toy_model(width, hidden=hidden, seed=seed)
    for layer in m.layers[:-1]:
        layer.running_mean[...] = rng.normal(size=layer.b.shape)
        layer.running_var[...] = rng.uniform(0.1, 4.0, size=layer.b.shape)
    m.scaler = fit_scaler(rng.normal(size=(20, width)).tolist())
    m.trained = True
    return m, rng


def test_predict_class_width_checks():
    m, _ = _trained_toy()
    # the scaler's column count
    with pytest.raises(UnrollTunerError, match="^expected 4 columns, got 5$"):
        predict_class(m, Point((0.0,) * 5))
    m.scaler = fit_scaler([[1.0, 2.0, 3.0], [2.0, 0.0, 1.0]])
    # the scaler's output, the model's input
    with pytest.raises(UnrollTunerError, match="^batch width 3 != input width 4$"):
        predict_class(m, Point((0.5, 0.5, 0.5)))


def test_prediction_reads_statistics_written_in_place():
    """Nothing derived from the store outlives a call: a write to the running
    variance between two predictions shows in the second exactly."""
    m, rng = _trained_toy()
    row = rng.normal(size=4).tolist()
    first, _ = mlp._infer(m, m.scaler.transform(row))
    m.layers[0].running_var[...] *= 2.5
    m.layers[1].running_var[2] = 0.03
    second, _ = mlp._infer(m, m.scaler.transform(row))
    expected = _reference_infer(m, _reference_transform(m.scaler, [row]))[0]
    assert second.tobytes() == expected.tobytes()
    assert second.tobytes() != first.tobytes()
    assert predict_class(m, Point(tuple(row))) == UNROLL_FACTORS[int(expected.argmax())]


def test_predict_requires_training():
    m = toy_model(2)
    m.scaler = identity_scaler(2)
    with pytest.raises(UnrollTunerError, match="^model has not been trained$"):
        predict_class(m, Point((0.0, 0.0)))


def test_save_load_roundtrip(tmp_path):
    split, scaler = cluster_split(n_rows=80, seed=6)
    m = init_model(scaler.output_width, seed=4, hidden=(8,), dropout=(0.1,))
    m.scaler = scaler
    m, _ = train(m, split, TrainConfig(seed=4, max_epochs=5, patience=10))
    path = str(tmp_path / "model.json")
    save_model(m, path)
    loaded = load_model(path)
    assert loaded.scaler == scaler
    for array in (a for layer in loaded.layers for a in vars(layer).values() if a is not None):
        # copies, not views of the read buffer at the header's arbitrary offset
        assert array.flags.c_contiguous and array.flags.aligned and array.flags.writeable
    rng = np.random.default_rng(9)
    queries = rng.normal(size=(100, 2)) * 10
    for q in queries:
        fv = Point(tuple(q))
        assert predict_class(loaded, fv) == predict_class(m, fv)


def _read_model_file(path):
    """(header dict, payload bytes) of a format-3 model file."""
    with open(path, "rb") as fh:
        head, sep, payload = fh.read().partition(b"\n")
    assert sep == b"\n"
    return json.loads(head), payload


def _write_model_file(path, header, payload):
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + payload)


def test_model_file_lists_architecture(tmp_path):
    m = init_model(40, seed=0)
    m.scaler = identity_scaler(40)
    path = str(tmp_path / "arch.json")
    save_model(m, path)
    header, payload = _read_model_file(path)
    assert header["format_version"] == MODEL_FORMAT_VERSION == 3
    assert header["layer_dims"] == [40, 500, 400, 250, 100, 7]
    assert "layers" not in header
    assert payload == b"".join(_layer_bytes(m)) == m.store.tobytes()    # w, b, then batchnorm


def test_tampered_model_rejected(tmp_path):
    m = toy_model(3)
    m.scaler = identity_scaler(3)
    path = str(tmp_path / "m.json")
    save_model(m, path)
    header, payload = _read_model_file(path)
    header["layer_dims"][1] = 99
    _write_model_file(path, header, payload)
    with pytest.raises(UnrollTunerError, match=r"m.json: a payload of \d+ bytes, layer_dims"):
        load_model(path)

    header["format_version"] = MODEL_FORMAT_VERSION + 1
    _write_model_file(path, header, payload)
    with pytest.raises(UnrollTunerError, match="m.json: format 4, expected 3$"):
        load_model(path)

    with open(path, "w") as fh:
        fh.write("not json at all {")
    with pytest.raises(UnrollTunerError, match=r"m.json: not a model file \("):
        load_model(path)


def _layer_bytes(m):
    return [getattr(layer, name).tobytes() for layer in m.layers
            for name in ("w", "b", "gamma", "beta", "running_mean", "running_var")
            if getattr(layer, name) is not None]


def test_save_load_bit_exact_with_special_values(tmp_path):
    m = toy_model(3, hidden=(4, 2))
    m.scaler = identity_scaler(3)
    m.trained = True
    m.layers[0].w[0, :4] = [-0.0, 5e-324, np.inf, -np.inf]
    m.layers[1].running_var[1] = 2.2250738585072014e-308 / 3    # subnormal
    path = str(tmp_path / "m.json")
    save_model(m, path)
    loaded = load_model(path)
    assert _layer_bytes(loaded) == _layer_bytes(m)
    assert loaded.layer_dims == m.layer_dims == (3, 4, 2, 7) and loaded.trained
    loaded.layers[0].w[...] += 1.0      # loaded arrays are writable, not views of the file buffer


def _write_payload(tmp_path, mutate):
    """Save a toy model, apply `mutate` to its header and write it back."""
    m = toy_model(3)
    m.scaler = identity_scaler(3)
    path = str(tmp_path / "m.json")
    save_model(m, path)
    header, payload = _read_model_file(path)
    mutate(header)
    _write_model_file(path, header, payload)
    return path


@pytest.mark.parametrize("mutate, message", [
    pytest.param(lambda header: header.update(layer_dims=[3, 2.5, 2, 7]),
                 r"layer_dims \[3, 2.5, 2, 7\] are not", id="fractional-dim"),
    pytest.param(lambda header: header.update(classes=[0, 2]),
                 r"classes \[0, 2\] are not", id="too-few-classes"),
    pytest.param(lambda header: header.update(classes=[0] * 7),
                 r"classes \[0, 0, 0, 0, 0, 0, 0\] are not", id="repeated-class"),
    pytest.param(lambda header: header.update(classes=[0, 2, 4, 8, 16, 32, 3]),
                 r"classes \[0, 2, 4, 8, 16, 32, 3\] are not", id="foreign-class"),
    pytest.param(lambda header: header.update(classes=[64, 32, 16, 8, 4, 2, 0]),
                 r"classes \[64, 32, 16, 8, 4, 2, 0\] are not", id="classes-reordered"),
    pytest.param(lambda header: header.update(classes=[0.0, 2, 4, 8, 16, 32, 64]),
                 r"classes \[0.0, 2, 4, 8, 16, 32, 64\] are not", id="class-float"),
    pytest.param(lambda header: header.update(trained="false"),
                 "trained 'false' is not a JSON boolean", id="trained-string"),
    pytest.param(lambda header: header.update(dropout_rates=[0.0]),
                 "1 dropout rates for 2 hidden layers", id="dropout-count"),
    pytest.param(lambda header: header.update(dropout_rates=[0.1, 1.0]),
                 r"dropout rates \[0.1, 1.0\] do not all lie", id="dropout-one"),
    pytest.param(lambda header: header.update(dropout_rates=[-0.1, 0.0]),
                 r"dropout rates \[-0.1, 0.0\] do not all lie", id="dropout-negative"),
    pytest.param(lambda header: header.update(dropout_rates=[float("nan"), 0.0]),
                 r"dropout rates \[nan, 0.0\] do not all lie", id="dropout-nan"),
    pytest.param(lambda header: header.update(dropout_rates=["0.1", 0.0]),
                 r"dropout rates \['0.1', 0.0\] do not all lie", id="dropout-string"),
    pytest.param(lambda header: header.update(dropout_rates=[True, 0.0]),
                 r"dropout rates \[True, 0.0\] do not all lie", id="dropout-bool"),
    pytest.param(lambda header: header.update(bn_eps=-1),
                 "bn_eps -1 is not 1e-05", id="bn-eps-negative"),
    pytest.param(lambda header: header.update(bn_eps=0.0),
                 "bn_eps 0.0 is not 1e-05", id="bn-eps-zero"),
    pytest.param(lambda header: header.update(bn_momentum=0.5),
                 "bn_momentum 0.5 is not 0.9", id="bn-momentum-other"),
    pytest.param(lambda header: header.pop("bn_momentum"),
                 "'bn_momentum'$", id="bn-momentum-missing"),
    pytest.param(lambda header: header["scaler"].update(stat_b=[1.0, 1.0]),
                 "3 stat_a values but 2 stat_b values", id="scaler-stat-b-short"),
    pytest.param(lambda header: header["scaler"].update(stat_a=["0.0", 0.0, 0.0]),
                 "scaler statistics must be numbers", id="scaler-stat-string"),
    pytest.param(lambda header: header["scaler"].update(stat_a=[float("nan"), 0.0, 0.0]),
                 "scaler statistics must be finite", id="scaler-stat-nan"),
    pytest.param(lambda header: header["scaler"].update(stat_b=[1.0, float("inf"), 1.0]),
                 "scaler statistics must be finite", id="scaler-stat-infinite"),
    pytest.param(lambda header: header["scaler"].update(stat_a=[0.0] * 4, stat_b=[1.0] * 4,
                                                        dropped_columns=[4]),
                 r"dropped_columns \[4\] are not distinct", id="scaler-dropped-out-of-range"),
    pytest.param(lambda header: header["scaler"].update(stat_a=[0.0] * 4, stat_b=[1.0] * 4,
                                                        dropped_columns=[-1]),
                 r"dropped_columns \[-1\] are not distinct", id="scaler-dropped-negative"),
    pytest.param(lambda header: header["scaler"].update(stat_a=[0.0] * 4, stat_b=[1.0] * 4,
                                                        dropped_columns=[1, 1]),
                 r"dropped_columns \[1, 1\] are not distinct", id="scaler-dropped-twice"),
    pytest.param(lambda header: header["scaler"].update(rescaled_columns=[3]),
                 r"rescaled_columns \[3\] are not distinct", id="scaler-rescaled-out-of-range"),
    pytest.param(lambda header: header["scaler"].update(rescaled_columns=[1.0]),
                 r"rescaled_columns \[1.0\] are not distinct", id="scaler-rescaled-float"),
    pytest.param(lambda header: header["scaler"].update(stat_a=[0.0] * 4, stat_b=[1.0] * 4),
                 "a scaler of 4 columns for 3 inputs", id="scaler-width-not-input"),
])
def test_header_that_contradicts_itself_is_corrupt_file(tmp_path, mutate, message):
    with pytest.raises(UnrollTunerError, match=f"m.json: {message}"):
        load_model(_write_payload(tmp_path, mutate))


def test_output_width_other_than_the_class_count_is_corrupt_file(tmp_path):
    """A self-consistent file, header and payload, of a six-output network."""
    dims = (3, 2, 6)
    m = mlp.MlpModel(layer_dims=dims, store=np.zeros(mlp._store_size(dims)),
                     dropout_rates=(0.0,))
    path = str(tmp_path / "m.json")
    save_model(m, path)
    with pytest.raises(UnrollTunerError, match="m.json: 6 outputs for 7 classes$"):
        load_model(path)


def test_v1_model_file_rejected(tmp_path):
    def to_v1(payload):
        payload["format_version"] = 1
        payload["layers"] = [{"w": [[0.0] * 2] * 3, "b": [0.0] * 2}]
    with pytest.raises(UnrollTunerError, match="m.json: format 1, expected 3$"):
        load_model(_write_payload(tmp_path, to_v1))


def test_v2_model_file_rejected(tmp_path):
    """A format-2 file is one JSON document with base64 arrays and no newline:
    it parses as a header of version 2."""
    m = toy_model(3)
    m.scaler = identity_scaler(3)
    path = str(tmp_path / "m.json")
    save_model(m, path)
    header, _ = _read_model_file(path)
    header["format_version"] = 2
    header["layers"] = [{name: "AAAAAAAAAAA=" for name in ("w", "b")}]
    with open(path, "w") as fh:
        json.dump(header, fh)
    with pytest.raises(UnrollTunerError, match="m.json: format 2, expected 3$"):
        load_model(path)


@pytest.mark.parametrize("bad", [
    lambda head, body: head + b"\n" + body[:-8],             # one float short
    lambda head, body: head + b"\n" + body + bytes(8),       # one extra float
    lambda head, body: head + b"\n" + body + b"\0" * 7,      # 7 stray bytes
    lambda head, body: b"{not json" + b"\n" + body,          # a header that is not JSON
    lambda head, body: b"\xff" + head + b"\n" + body,        # a non-UTF-8 header
    lambda head, body: b"",                                 # an empty file
])
def test_bad_weight_string_is_corrupt_file(tmp_path, bad):
    """`bad` rewrites the whole file from its header line and its payload."""
    m = toy_model(3)
    m.scaler = identity_scaler(3)
    path = str(tmp_path / "m.json")
    save_model(m, path)
    with open(path, "rb") as fh:
        head, _, body = fh.read().partition(b"\n")
    with open(path, "wb") as fh:
        fh.write(bad(head, body))
    with pytest.raises(UnrollTunerError, match="m.json: (a payload of|not a model file)"):
        load_model(path)


def test_failed_save_keeps_previous_model(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    old = toy_model(3, seed=1)
    old.scaler = identity_scaler(3)
    save_model(old, str(path))
    before = path.read_bytes()
    m = toy_model(3, seed=2)
    m.scaler = identity_scaler(3)

    def unwritable(array, dtype=None):
        raise OSError("disk full")      # the save fails after writing the header
    monkeypatch.setattr(mlp.np, "ascontiguousarray", unwritable)
    with pytest.raises(OSError, match="disk full"):
        save_model(m, str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]


def test_store_and_layer_dims_cannot_be_rebound():
    m = toy_model(3)
    store, layers = m.store, m.layers
    for name, value in (("store", np.zeros_like(m.store)), ("layer_dims", [3, 4, 7]),
                        ("layers", ())):
        with pytest.raises(AttributeError, match=name):
            setattr(m, name, value)
    assert m.store is store and m.layers is layers and m.layer_dims == (3, 2, 2, 7)
    m.trained = True                    # the other fields stay settable
    assert m.trained


def test_layer_dims_cannot_be_changed_in_place():
    """The dims are a tuple: the header `save_model` writes from them always
    matches the store's layout."""
    m = toy_model(3)
    with pytest.raises(TypeError):
        m.layer_dims[1] = 4
    assert m.layer_dims == (3, 2, 2, 7)


def test_init_model_matches_scalar_draws():
    m = init_model(37, seed=99)
    rng = SplitMix64.stream(99, 0x11A9)
    for k, layer in enumerate(m.layers):
        fan_in, fan_out = m.layer_dims[k], m.layer_dims[k + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        expected = np.array([rng.uniform(-limit, limit) for _ in range(fan_in * fan_out)],
                            dtype=np.float64).reshape(fan_in, fan_out)
        assert layer.w.tobytes() == expected.tobytes()


SCALER_KEYS = ["mode", "stat_a", "stat_b", "dropped_columns", "rescaled_columns"]


@pytest.mark.parametrize("key", SCALER_KEYS)
def test_scaler_missing_key_is_corrupt_file(tmp_path, key):
    def mutate(payload):
        assert list(payload["scaler"]) == SCALER_KEYS       # saved in field order
        del payload["scaler"][key]
    with pytest.raises(UnrollTunerError, match=f"m.json: '{key}'$"):
        load_model(_write_payload(tmp_path, mutate))
