from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np
import pytest

from unroll_tuner.dataset import LabeledSample, SplitDataset
from unroll_tuner.errors import (
    CorruptFile,
    DimensionMismatch,
    EmptySplit,
    FormatVersionMismatch,
    ModelNotTrained,
)
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
    DEFAULT_DROPOUT,
    LOG_CLAMP,
    MODEL_FORMAT_VERSION,
    AdamState,
    TrainConfig,
    _flatten,
    adam_step,
    adam_update,
    forward,
    init_model,
    load_model,
    loss_and_gradients,
    one_hot,
    param_views,
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
    split = SplitDataset(train=rows[:n_train], valid=rows[n_train:n_train + n_valid],
                         test=rows[n_train + n_valid:])
    scaler = fit_scaler([r.features.to_list() for r in split.train])
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
    assert m.layer_dims == [37, 500, 400, 250, 100, 7]
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
    with pytest.raises(DimensionMismatch):
        forward(m, np.zeros((2, 5)))


def test_batchnorm_train_mode_statistics():
    m = toy_model(3, hidden=(16,))
    rng = np.random.default_rng(2)
    x = rng.normal(loc=5.0, scale=3.0, size=(64, 3))
    _, cache = forward(m, x, train=True)
    xhat = cache["xhat"][0]
    assert np.abs(xhat.mean(axis=0)).max() < 1e-6
    assert np.abs(xhat.var(axis=0) - 1.0).max() < 1e-4


def test_dropout_train_expectation_matches_infer():
    """Inverted dropout: E[train-mode activation] == infer-mode activation."""
    m = toy_model(3, hidden=(16,), dropout=(0.3,))
    m.bn_momentum = 0.0       # running stats mirror the last batch exactly
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
    adam_update(w, g, m1, v1, t=1, scratch=np.empty((2, 1)))
    # hand evaluation: m=0.1, v=0.001, m_hat=1, v_hat=1, step=lr*1/(1+eps)
    expected = 1.0 - 1e-3 * (1.0 / (1.0 + ADAM_EPS))
    assert w[0] == pytest.approx(expected, abs=1e-15)


def test_adam_zero_gradient_no_drift():
    m = toy_model(2)
    params = _flatten(m)
    state = AdamState.for_params(params)
    before = params.copy()
    before_w = [l.w.copy() for l in m.layers]
    state.grad[:] = 0.0
    adam_step(params, state, 1)
    assert np.abs(params - before).max() < 1e-12
    for b, l in zip(before_w, m.layers):
        assert np.abs(l.w - b).max() < 1e-12


def test_adam_deterministic():
    outs = []
    for _ in range(2):
        m = toy_model(2, seed=9)
        params = _flatten(m)
        state = AdamState.for_params(params)
        state.grad[:] = 0.25
        adam_step(params, state, 1)
        outs.append([l.w.copy() for l in m.layers])
    for a, b in zip(*outs):
        assert np.array_equal(a, b)


def test_flatten_makes_trained_arrays_views_of_one_buffer():
    m = init_model(5, seed=1, hidden=(4, 3), dropout=(0.0, 0.0))
    values = [[getattr(l, n).copy() for n in ("w", "b", "gamma", "beta")
               if getattr(l, n) is not None] for l in m.layers]
    params = _flatten(m)
    assert params.size == sum(a.size for layer in values for a in layer)
    start = 0
    for layer, before in zip(m.layers, values):
        arrays = [getattr(layer, n) for n in ("w", "b", "gamma", "beta")
                  if getattr(layer, n) is not None]
        for array, old in zip(arrays, before):      # layout: layer by layer, w, b, gamma, beta
            assert array.base is params and array.shape == old.shape
            assert np.array_equal(array, old)
            assert np.array_equal(params[start:start + array.size], old.ravel())
            start += array.size
    params[:] = 7.0
    assert all(np.all(l.w == 7.0) and np.all(l.b == 7.0) for l in m.layers)
    assert m.layers[0].running_mean.base is None           # running stats stay apart


def test_training_leaves_model_arrays_views_of_one_buffer():
    split, scaler = cluster_split(n_rows=60, seed=3)
    m = init_model(scaler.output_width, seed=1, hidden=(8,), dropout=(0.0,))
    m.scaler = scaler
    m, _ = train(m, split, TrainConfig(seed=1, max_epochs=2))
    bases = {id(getattr(l, n).base) for l in m.layers for n in ("w", "b", "gamma", "beta")
             if getattr(l, n) is not None}
    assert len(bases) == 1


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
    names = ("w", "b", "gamma", "beta")
    flat = init_model(38, seed=99)
    ref = init_model(38, seed=99)
    ref_arrays = [{n: getattr(l, n) for n in names if getattr(l, n) is not None}
                  for l in ref.layers]
    ref_m = [{n: np.zeros_like(a) for n, a in layer.items()} for layer in ref_arrays]
    ref_v = [{n: np.zeros_like(a) for n, a in layer.items()} for layer in ref_arrays]
    params = _flatten(flat)
    assert params.size > 5 * ADAM_CHUNK          # several slices and a partial one
    state = AdamState.for_params(params)
    rng = np.random.default_rng(99)
    for t in range(1, 6):
        grad = state.grad
        grad[:] = rng.normal(scale=10.0 ** -t, size=params.size)
        grad[::7] = 0.0
        adam_step(params, state, t)
        for k, layer in enumerate(param_views(flat, grad)):
            for n, g in layer.items():
                _reference_adam_update(ref_arrays[k][n], g, ref_m[k][n], ref_v[k][n], t)
    for k, layer in enumerate(flat.layers):
        for n in ref_arrays[k]:
            assert getattr(layer, n).tobytes() == ref_arrays[k][n].tobytes()
    moments = [np.concatenate([a.ravel() for layer in ms for a in layer.values()])
               for ms in (ref_m, ref_v)]
    assert state.m.tobytes() == moments[0].tobytes()
    assert state.v.tobytes() == moments[1].tobytes()


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
        dh = da * (cache["relu"][k] > 0.0)
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
    grad = np.full(sum(getattr(l, n).size for l in m.layers for n in ("w", "b", "gamma", "beta")
                       if getattr(l, n) is not None), np.nan)
    loss, grads = loss_and_gradients(m, x, y, np.random.default_rng(5), grad)
    ref_loss, ref_grads = _reference_loss_and_gradients(ref, x, y, np.random.default_rng(5))
    assert loss == ref_loss
    assert not np.isnan(grad).any()         # every slot of the buffer is written
    for got, want in zip(grads, ref_grads):
        assert sorted(got) == sorted(want)
        for name in want:
            assert np.shares_memory(got[name], grad)
            assert got[name].tobytes() == want[name].tobytes()
    for a, b in zip(m.layers[:-1], ref.layers[:-1]):
        assert a.running_mean.tobytes() == b.running_mean.tobytes()
        assert a.running_var.tobytes() == b.running_var.tobytes()


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
    x_valid = scaler.transform_matrix([r.features.to_list() for r in split.valid])
    y_valid = one_hot([r.label for r in split.valid])
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
    split = SplitDataset(train=[], valid=[], test=[])
    m = toy_model(2)
    m.scaler = fit_scaler([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(EmptySplit):
        train(m, split)


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
    m.layers[-1].w *= 3.0       # strictly increasing rescale of the logits
    m.layers[-1].b *= 3.0
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
    """Infer-mode `forward` as first written, with a new array per operation."""
    a = x
    for layer in m.layers[:-1]:
        z = a @ layer.w + layer.b
        xhat = (z - layer.running_mean) / np.sqrt(layer.running_var + m.bn_eps)
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
        layer.running_mean = rng.normal(size=layer.b.shape)
        layer.running_var = rng.uniform(0.1, 4.0, size=layer.b.shape)
        layer.gamma = rng.normal(size=layer.b.shape)
        layer.beta = rng.normal(size=layer.b.shape)
    m.scaler, m.trained = scaler, True
    expected = _reference_infer(m, _reference_transform(scaler, rows))
    for _ in range(2):                             # the second call reuses the scaler's arrays
        assert predict_probs(m, rows).tobytes() == expected.tobytes()
    for row in rows[::15].tolist():     # one row multiplies in another order than a batch
        one = _reference_infer(m, _reference_transform(scaler, [row]))
        assert predict_probs(m, [row]).tobytes() == one.tobytes()


def test_predict_requires_training():
    m = toy_model(2)
    m.scaler = identity_scaler(2)
    with pytest.raises(ModelNotTrained):
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
    rng = np.random.default_rng(9)
    queries = rng.normal(size=(100, 2)) * 10
    for q in queries:
        fv = Point(tuple(q))
        assert predict_class(loaded, fv) == predict_class(m, fv)


def test_model_file_lists_architecture(tmp_path):
    import json
    m = init_model(40, seed=0)
    m.scaler = identity_scaler(40)
    path = str(tmp_path / "arch.json")
    save_model(m, path)
    payload = json.load(open(path))
    assert payload["layer_dims"] == [40, 500, 400, 250, 100, 7]


def test_tampered_model_rejected(tmp_path):
    import json
    m = toy_model(3)
    m.scaler = identity_scaler(3)
    path = str(tmp_path / "m.json")
    save_model(m, path)
    payload = json.load(open(path))
    payload["layer_dims"][1] = 99
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(CorruptFile):
        load_model(path)

    payload["format_version"] = MODEL_FORMAT_VERSION + 1
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(FormatVersionMismatch):
        load_model(path)

    with open(path, "w") as fh:
        fh.write("not json at all {")
    with pytest.raises(CorruptFile):
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
    assert loaded.layer_dims == m.layer_dims and loaded.trained
    loaded.layers[0].w += 1.0       # loaded arrays are writable, not views of the file buffer


def _write_payload(tmp_path, mutate):
    import json
    m = toy_model(3)
    m.scaler = identity_scaler(3)
    path = str(tmp_path / "m.json")
    save_model(m, path)
    payload = json.load(open(path))
    mutate(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def test_v1_model_file_rejected(tmp_path):
    def to_v1(payload):
        payload["format_version"] = 1
        payload["layers"] = [{"w": [[0.0] * 2] * 3, "b": [0.0] * 2}]
    with pytest.raises(FormatVersionMismatch):
        load_model(_write_payload(tmp_path, to_v1))


@pytest.mark.parametrize("bad", [
    lambda text: text[:-1],                   # cut inside a base64 quantum
    lambda text: text[:-16],                  # 36 bytes: not whole float64s
    lambda text: base64.b64encode(base64.b64decode(text)[:-8]).decode(),   # one float short
    lambda text: "!!" + text[2:],             # not base64
    lambda text: [0.0] * 6,                   # a v1-style list
])
def test_bad_weight_string_is_corrupt_file(tmp_path, bad):
    def mutate(payload):
        payload["layers"][0]["w"] = bad(payload["layers"][0]["w"])
    with pytest.raises(CorruptFile):
        load_model(_write_payload(tmp_path, mutate))


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
    with pytest.raises(CorruptFile):
        load_model(_write_payload(tmp_path, mutate))
