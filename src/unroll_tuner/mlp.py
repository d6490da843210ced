"""From-scratch MLP classifier over unrolling-factor classes.

Architecture: input -> 500 -> 400 -> 250 -> 100 -> 7, each hidden layer as
dense -> batchnorm -> ReLU -> (inverted) dropout, softmax output, uniform
fan-based weight init, cross-entropy loss trained with ADAM in batches of
100, early stopping on validation loss with patience 10 keeping the best
epoch's snapshot.  numpy supplies the matrix arithmetic; all learning logic
lives here.

Inference has one routine, `_infer`, for a batch (`forward(train=False)`)
and for one row (`predict_class`, which keeps the row 1-D): each layer does
the batchnorm arithmetic in place after its matmul, in train mode's order,
so a row gets the bits of a one-row batch.  Train mode and backpropagation
also write their temporaries in place; every result keeps its bits.

`train` runs BLAS on one thread (`_one_blas_thread`, numpy's bundled
OpenBLAS) and, when the process may use a second CPU, submits to a
one-worker `concurrent.futures.ThreadPoolExecutor` the work that does not
feed the calling thread's next operation: the dropout masks, in layer
order; each layer's weight and bias gradient, while the caller carries the
gradient back to the layer below; and every other ADAM slice.  No matmul is
split between threads, and each call waits for the futures it submitted
before it returns, so the bits are those of one thread.  Limits: another
CPU kernel, or a numpy without its bundled OpenBLAS, may still move the
last bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import UnrollTunerError
from .featurize import FeatureVector, Scaler, ScalerMode
from .rng import SplitMix64
from .schedule import UNROLL_FACTORS

if TYPE_CHECKING:
    from concurrent.futures import Executor, Future

MODEL_FORMAT_VERSION = 3
DEFAULT_HIDDEN = (500, 400, 250, 100)
DEFAULT_DROPOUT = (0.12, 0.10, 0.04, 0.07)
N_CLASSES = len(UNROLL_FACTORS)
LOG_CLAMP = 1e-12
# batchnorm: running statistics decay and the variance floor
BN_MOMENTUM = 0.9
BN_EPS = 1e-5
# ADAM hyperparameters (Kingma & Ba's defaults)
ADAM_LR = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_CHUNK = 1 << 16      # elements per ADAM update slice


@dataclass
class TrainConfig:
    batch_size: int = 100
    patience: int = 10
    max_epochs: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2: batchnorm needs two rows")
        if self.max_epochs <= 0:
            raise ValueError("max_epochs must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass(frozen=True)
class Layer:
    """One layer's arrays, each a view of its model's store."""
    w: np.ndarray
    b: np.ndarray
    gamma: np.ndarray | None = None          # batchnorm params; None on the output layer
    beta: np.ndarray | None = None
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None


_STORED = tuple(f.name for f in fields(Layer))


def _layout(dims: tuple[int, ...]):
    """The store's layout, which is also the model file's payload: (layer
    index, array name, shape) in store order, layer by layer, w, b, then
    gamma, beta, running_mean and running_var on hidden layers."""
    for k in range(len(dims) - 1):
        for name in _STORED if k < len(dims) - 2 else ("w", "b"):
            yield k, name, (dims[k], dims[k + 1]) if name == "w" else (dims[k + 1],)


def _store_size(dims: tuple[int, ...]) -> int:
    return sum(math.prod(shape) for _, _, shape in _layout(dims))


def _views(dims: tuple[int, ...], flat: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Per layer, name -> the view of `flat`, a buffer laid out like the
    store, that holds that array."""
    views, start = [{} for _ in dims[1:]], 0
    for k, name, shape in _layout(dims):
        views[k][name] = flat[start:start + math.prod(shape)].reshape(shape)
        start += math.prod(shape)
    return views


@dataclass
class MlpModel:
    """`store` is one flat float64 array laid out like the model file's
    payload (`_layout`); every array of `layers` is a view of it, so
    `layer_dims`, `store` and `layers` are fixed at construction."""
    layer_dims: tuple[int, ...]
    store: np.ndarray
    dropout_rates: tuple[float, ...]
    scaler: Scaler | None = None
    trained: bool = False
    layers: tuple[Layer, ...] = field(init=False, repr=False)

    def __post_init__(self):
        size = _store_size(self.layer_dims)
        if self.store.shape != (size,):
            raise ValueError(f"a store of shape {self.store.shape}, layer_dims "
                             f"{self.layer_dims} need {size} floats")
        self.layers = tuple(Layer(**named) for named in _views(self.layer_dims, self.store))

    def __setattr__(self, name, value):
        if name in ("layer_dims", "store", "layers") and name in self.__dict__:
            raise AttributeError(f"MlpModel.{name} is fixed at construction")
        super().__setattr__(name, value)

    @property
    def input_width(self) -> int:
        return self.layer_dims[0]

    @property
    def n_hidden(self) -> int:
        return len(self.layer_dims) - 2


def init_model(input_width: int, seed: int,
               hidden: tuple[int, ...] = DEFAULT_HIDDEN,
               dropout: tuple[float, ...] = DEFAULT_DROPOUT) -> MlpModel:
    """Uniform weight init in [-limit, limit], limit = sqrt(6/(fan_in+fan_out))."""
    if input_width < 1:
        raise ValueError("input_width must be >= 1")
    if len(dropout) != len(hidden):
        raise ValueError("one dropout rate per hidden layer")
    if any(not 0.0 <= r < 1.0 for r in dropout):
        raise ValueError("dropout rates must lie in [0, 1)")
    dims = (input_width, *hidden, N_CLASSES)
    m = MlpModel(layer_dims=dims, store=np.zeros(_store_size(dims)),
                 dropout_rates=tuple(dropout))
    rng = SplitMix64.stream(seed, 0x11A9)
    for layer in m.layers:
        fan_in, fan_out = layer.w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        layer.w[...] = rng.uniform_array(fan_in * fan_out, -limit, limit).reshape(fan_in, fan_out)
        if layer.gamma is not None:
            layer.gamma[...] = 1.0
            layer.running_var[...] = 1.0
    return m


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, of one row or of a batch of rows; `out`
    may be `logits` itself."""
    out = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _input(m: MlpModel, x) -> np.ndarray:
    """`x` (one row or a batch) as float64, checked against the input width."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != m.input_width:
        raise UnrollTunerError(f"batch width {x.shape[-1]} != input width {m.input_width}")
    return x


def _infer(m: MlpModel, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Infer-mode propagation of one row (1-D) or a batch (2-D) of scaled
    inputs: batchnorm with the running statistics, no dropout.  Returns the
    probabilities and the output layer's input, each shaped like `a`'s rows.

    Everything after each matmul is written in place, and the batchnorm
    divisor is read from the store on every call, so a write to the store
    shows in the next prediction.  A row and a batch get the same bits per
    row: numpy runs `(k,) @ (k, n)` and `(1, k) @ (k, n)` as one gemv.
    """
    for layer in m.layers[:-1]:
        z = a @ layer.w
        z += layer.b
        z -= layer.running_mean
        z /= np.sqrt(layer.running_var + BN_EPS)
        z *= layer.gamma
        z += layer.beta
        a = np.maximum(z, 0.0, out=z)
    logits = a @ m.layers[-1].w
    logits += m.layers[-1].b
    return softmax(logits, out=logits), a


class _InlineExecutor:
    """The executor of one-CPU training and of callers that pass none:
    `submit` runs the call at once, so a failure raises there, and returns
    the call's completed Future."""

    def submit(self, fn, *args) -> Future:
        # imported here, so a process that never trains does not load it
        from concurrent.futures import Future
        future = Future()
        future.set_result(fn(*args))
        return future


_INLINE = _InlineExecutor()


def _join(futures) -> None:
    """Wait for every future, then re-raise the first failure among them."""
    for error in [future.exception() for future in futures]:
        if error is not None:
            raise error


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy's wheel, if this process has loaded it; else None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):       # not loaded, or another build
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block's BLAS calls on one thread, then restore the count: a
    threaded GEMM may sum in another order and move the last bits."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _dropout_mask(rng: np.random.Generator, mask: np.ndarray, rate: float) -> np.ndarray:
    """`(rng.random(mask.shape) >= rate) / (1 - rate)`, written into `mask`."""
    rng.random(out=mask)
    return np.divide(mask >= rate, 1.0 - rate, out=mask)


def forward(m: MlpModel, batch: np.ndarray, train: bool = False,
            dropout_rng: np.random.Generator | None = None,
            helper: Executor | None = None):
    """Propagate a (rows x input_width) batch; returns (probs, cache).

    Train mode uses batch statistics for batchnorm (updating the running
    stats), applies inverted dropout and caches what backpropagation reads;
    infer mode (`_infer`) uses running statistics and no dropout, so repeated
    calls are identical, and its cache holds only the output layer's input.

    Train mode submits every hidden layer's dropout mask to `helper` (inline
    when None) before the first matmul, in layer order, so `dropout_rng`'s
    stream is drawn as it would be layer by layer; all of them are done
    when this returns.
    """
    x = _input(m, batch)
    if x.ndim == 1:
        x = x[None, :]
    if not train:
        probs, a = _infer(m, x)
        return probs, {"inputs": [a]}
    if dropout_rng is None and any(rate > 0.0 for rate in m.dropout_rates):
        raise ValueError("train-mode forward with dropout needs a generator")
    helper = helper or _INLINE
    masks = []
    try:
        for width, rate in zip(m.layer_dims[1:], m.dropout_rates):
            masks.append(helper.submit(_dropout_mask, dropout_rng,
                                       np.empty((x.shape[0], width)), rate)
                         if rate > 0.0 else None)
        cache = {"inputs": [], "xhat": [], "std": [], "mask": []}
        a = x
        for k, layer in enumerate(m.layers[:-1]):
            z = a @ layer.w
            z += layer.b
            cache["inputs"].append(a)
            # z.mean(axis=0) and z.var(axis=0) in numpy's own order (mean,
            # subtract, square, add.reduce, divide), with the centred batch kept
            mu = z.mean(axis=0)
            xhat = z - mu
            var = np.add.reduce(np.square(xhat, out=z), axis=0)
            var /= z.shape[0]
            for running, batch_stat in ((layer.running_mean, mu), (layer.running_var, var)):
                running *= BN_MOMENTUM          # in place: the store keeps them
                running += (1 - BN_MOMENTUM) * batch_stat
            std = np.sqrt(var + BN_EPS)
            xhat /= std
            h = np.multiply(xhat, layer.gamma, out=z)
            h += layer.beta
            a = np.maximum(h, 0.0, out=h)
            mask = masks[k].result() if masks[k] else None
            if mask is not None:
                a *= mask
            cache["xhat"].append(xhat)
            cache["std"].append(std)
            cache["mask"].append(mask)
        cache["inputs"].append(a)
        logits = a @ m.layers[-1].w
        logits += m.layers[-1].b
        return softmax(logits, out=logits), cache
    finally:
        _join(filter(None, masks))


def _cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of the one-hot rows `y` under `probs`."""
    return float(-(y * np.log(np.maximum(probs, LOG_CLAMP))).sum() / probs.shape[0])


def _weight_gradient(inputs: np.ndarray, dz: np.ndarray, g: dict[str, np.ndarray]) -> None:
    np.matmul(inputs.T, dz, out=g["w"])
    np.sum(dz, axis=0, out=g["b"])


def loss_and_gradients(m: MlpModel, batch: np.ndarray, one_hot: np.ndarray,
                       dropout_rng: np.random.Generator | None = None,
                       grad: np.ndarray | None = None, helper: Executor | None = None):
    """Mean cross-entropy and its gradient with respect to the store.

    The gradient goes into `grad`, a flat buffer laid out like the store (a
    new one when None); the returned per-layer dicts of gradients are its
    views.  The running statistics are not trained: their slots get zeros,
    which leave them unchanged under ADAM.

    `helper` (inline when None) draws the dropout masks and computes each
    layer's weight and bias gradient while this thread carries `dz` back
    to the layer below; all of its work is done when this returns.
    """
    helper = helper or _INLINE
    gradients = []
    try:
        y = np.asarray(one_hot, dtype=np.float64)
        probs, cache = forward(m, batch, True, dropout_rng, helper)
        if y.shape != probs.shape:
            raise UnrollTunerError(f"labels {y.shape} vs probs {probs.shape}")
        loss = _cross_entropy(probs, y)

        if grad is None:
            grad = np.empty_like(m.store)
        grads = _views(m.layer_dims, grad)
        dz = np.subtract(probs, y, out=probs)              # d loss / d logits
        dz /= probs.shape[0]
        for k in range(len(m.layers) - 1, -1, -1):
            if k < m.n_hidden:      # back through dropout, ReLU and batchnorm, in place
                grads[k]["running_mean"].fill(0.0)
                grads[k]["running_var"].fill(0.0)
                dh = dz @ m.layers[k + 1].w.T          # d loss / d a, then / d h
                if cache["mask"][k] is not None:
                    dh *= cache["mask"][k]
                # the layer's output is positive where h is and the mask is
                # not 0, and where the mask is 0, dh already is
                dh *= cache["inputs"][k + 1] > 0.0
                xhat, std = cache["xhat"][k], cache["std"][k]
                t = dh * xhat
                np.sum(t, axis=0, out=grads[k]["gamma"])
                np.sum(dh, axis=0, out=grads[k]["beta"])
                dxhat = dh
                dxhat *= m.layers[k].gamma
                # (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / std
                mean_dxhat = dxhat.mean(axis=0)
                t = np.multiply(xhat, np.multiply(dxhat, xhat, out=t).mean(axis=0), out=t)
                dxhat -= mean_dxhat
                dxhat -= t
                dxhat /= std
                dz = dxhat                  # a new array: the helper may still read the old dz
            gradients.append(helper.submit(_weight_gradient, cache["inputs"][k], dz, grads[k]))
        return loss, grads
    finally:
        _join(gradients)


@dataclass
class AdamState:
    grad: np.ndarray        # the step's gradient, scratch once the step has read it;
    m: np.ndarray           # first and second moments; these three are laid out like
    v: np.ndarray           # the store
    scratch: np.ndarray     # (2, ADAM_CHUNK or fewer): per thread, a temporary of one
                            # chunk; [0] for even chunks, [1] for the helper's odd ones

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        # one block, not three: three separate frees let malloc trim the heap, and
        # the next command in the process faulted those pages back in
        grad, m, v = np.zeros((3, params.size))
        return cls(grad=grad, m=m, v=v, scratch=np.empty((2, min(ADAM_CHUNK, params.size))))


def adam_update(param: np.ndarray, grad: np.ndarray, m1: np.ndarray, v1: np.ndarray,
                t: int, scratch: np.ndarray) -> None:
    """One in-place ADAM step with bias correction (t counts from 1).

    `scratch` (an array shaped like `param`) and then `grad`, once it has
    been read, hold the temporaries of `param -= lr * m_hat / (sqrt(v_hat)
    + eps)`, computed in that order, so each element gets the same bits
    whichever arrays it is updated with; `grad` holds no gradient after.
    """
    a, b = scratch, grad
    m1 *= ADAM_BETA1
    m1 += np.multiply(grad, 1 - ADAM_BETA1, out=a)
    v1 *= ADAM_BETA2
    np.multiply(grad, 1 - ADAM_BETA2, out=a)
    v1 += np.multiply(a, grad, out=a)
    np.sqrt(np.divide(v1, 1 - ADAM_BETA2 ** t, out=a), out=a)       # sqrt(v_hat)
    a += ADAM_EPS
    np.divide(m1, 1 - ADAM_BETA1 ** t, out=b)                       # m_hat, over grad
    b *= ADAM_LR
    b /= a
    param -= b


def adam_step(params: np.ndarray, state: AdamState, t: int,
              helper: Executor | None = None) -> None:
    """One ADAM step on the flat buffer `params` (a model's store, see
    `train`) from the gradient in `state.grad`, which it uses up as scratch.
    A zero gradient leaves an element's bits as they are.

    The flat buffers are updated in an even number of equal slices (within
    one element) of at most ADAM_CHUNK elements, so the scratch arrays stay
    small and each slice's arrays stay in cache.  Every other slice goes to
    `helper` (inline when None), with its own scratch, so each thread gets
    half the work; all of them are done when this returns.
    """
    if t < 1:
        raise ValueError("ADAM step counter starts at 1")
    helper = helper or _INLINE
    n = 2 * -(-params.size // (2 * ADAM_CHUNK))
    bounds = [params.size * k // n for k in range(n + 1)]
    chunks = []
    for k, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        part = slice(start, stop)
        chunks.append((params[part], state.grad[part], state.m[part], state.v[part], t,
                       state.scratch[k % 2, :stop - start]))
    updates = []
    try:
        for args in chunks[1::2]:       # submitted first, so both threads start at once
            updates.append(helper.submit(adam_update, *args))
        for args in chunks[::2]:
            adam_update(*args)
    finally:
        _join(updates)


def one_hot(labels) -> np.ndarray:
    index = {c: i for i, c in enumerate(UNROLL_FACTORS)}
    out = np.zeros((len(labels), N_CLASSES))
    for row, label in enumerate(labels):
        if label not in index:
            raise UnrollTunerError(f"label {label} not in {UNROLL_FACTORS}")
        out[row, index[label]] = 1.0
    return out


def _evaluate(m: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    probs, _ = forward(m, x, train=False)
    loss = _cross_entropy(probs, y)
    acc = float((probs.argmax(axis=1) == y.argmax(axis=1)).mean())
    return loss, acc


def train(m: MlpModel, split, cfg: TrainConfig | None = None):
    """Fit on split.train with early stopping on split.valid, each a
    `dataset.Corpus` of raw feature rows.

    Returns (model, history); the model carries the parameters of the epoch
    with the lowest validation loss, not the last one.  The scaler must
    already be attached and fitted on the training rows only.

    ADAM steps the whole store.  The running statistics get a zero
    gradient, so only `forward` changes them.

    BLAS runs on one thread for the call, and a one-worker
    `ThreadPoolExecutor` takes part of each step when a second CPU is usable
    (see the module docstring); on one CPU the same tasks run inline.  The
    thread count is restored and the executor shut down when the call
    returns or raises.

    History holds one dict per epoch run: `epoch`, `train_loss` (the
    row-weighted mean of that epoch's mini-batch losses, each taken before
    its ADAM step; NaN if no batch ran), and `valid_loss` and `valid_acc`
    (the validation split scored after the epoch).
    """
    cfg = cfg or TrainConfig()
    if not len(split.train) or not len(split.valid):
        raise UnrollTunerError("train and valid splits must be non-empty")
    if m.scaler is None:
        raise UnrollTunerError("attach a fitted scaler before training")

    x_train = m.scaler.transform_matrix(split.train.x)
    y_train = one_hot(split.train.y)
    x_valid = m.scaler.transform_matrix(split.valid.x)
    y_valid = one_hot(split.valid.y)
    if x_train.shape[1] != m.input_width:
        raise UnrollTunerError(
            f"scaler emits {x_train.shape[1]} columns, model expects {m.input_width}")

    shuffle_rng = SplitMix64.stream(cfg.seed, 0x7A13)
    dropout_rng = np.random.Generator(np.random.PCG64(cfg.seed ^ 0xD20B0))
    state = AdamState.for_params(m.store)
    history: list[dict] = []
    best_loss = float("inf")
    best = m.store.copy()
    stall = 0
    t = 0
    n = x_train.shape[0]
    if len(os.sched_getaffinity(0)) > 1:
        # imported here, so a process that never trains does not load it
        from concurrent.futures import ThreadPoolExecutor
        executor = ThreadPoolExecutor(1, thread_name_prefix="mlp-helper")
    else:
        executor = contextlib.nullcontext(_INLINE)
    with _one_blas_thread(), executor as helper:
        for epoch in range(cfg.max_epochs):
            order = list(range(n))
            shuffle_rng.shuffle(order)
            loss_sum, rows = 0.0, 0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                if len(idx) < 2:
                    continue      # batchnorm needs at least two rows
                t += 1
                loss, _ = loss_and_gradients(m, x_train[idx], y_train[idx], dropout_rng,
                                             state.grad, helper)
                adam_step(m.store, state, t, helper)
                loss_sum += loss * len(idx)
                rows += len(idx)
            valid_loss, valid_acc = _evaluate(m, x_valid, y_valid)
            history.append({"epoch": epoch,
                            "train_loss": loss_sum / rows if rows else float("nan"),
                            "valid_loss": valid_loss, "valid_acc": valid_acc})
            if valid_loss < best_loss:
                best_loss = valid_loss
                best[...] = m.store
                stall = 0
            else:
                stall += 1
                if stall >= cfg.patience:
                    break
    m.store[...] = best
    m.trained = True
    return m, history


def _scaler(m: MlpModel) -> Scaler:
    if not m.trained:
        raise UnrollTunerError("model has not been trained")
    if m.scaler is None:
        raise UnrollTunerError("model has no attached scaler")
    return m.scaler


def predict_probs(m: MlpModel, rows) -> np.ndarray:
    """Probabilities of a batch of raw feature rows, with BLAS on one thread."""
    x = _scaler(m).transform_matrix(rows)
    with _one_blas_thread():
        probs, _ = forward(m, x, train=False)
    return probs


def predict_class(m: MlpModel, fv: FeatureVector) -> int:
    """Best unrolling factor for one feature vector (argmax, lowest-index
    ties).  The row stays 1-D from the scaler to the softmax, and its
    probabilities are those of `predict_probs(m, [fv.to_list()])[0]`."""
    probs, _ = _infer(m, _input(m, _scaler(m).transform(fv.to_list())))
    return UNROLL_FACTORS[int(probs.argmax())]


# --- persistence ---------------------------------------------------------------

def _scaler_to_obj(s: Scaler | None):
    return None if s is None else {**asdict(s), "mode": s.mode.value}


def _scaler_from_obj(obj) -> Scaler | None:
    if obj is None:
        return None
    values = {f.name: tuple(obj[f.name]) for f in fields(Scaler) if f.name != "mode"}
    return Scaler(mode=ScalerMode(obj["mode"]), **values)


def save_model(m: MlpModel, path: str) -> None:
    """Model file format 3: one line of compact JSON (the header), then the
    payload, the store's little-endian float64 bytes, so weights round-trip
    bit for bit.  The header holds no offsets: the store's layout follows
    from `layer_dims`.

    The file is written beside `path` and renamed over it, so a failed save
    leaves any previous model intact.
    """
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "mlp",
        "classes": list(UNROLL_FACTORS),
        "layer_dims": list(m.layer_dims),
        "dropout_rates": list(m.dropout_rates),
        "bn_momentum": BN_MOMENTUM,
        "bn_eps": BN_EPS,
        "trained": m.trained,
        "scaler": _scaler_to_obj(m.scaler),
    }
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            # compact JSON escapes every newline inside a string
            fh.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
            fh.write(np.ascontiguousarray(m.store, "<f8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_model(path: str) -> MlpModel:
    """Read a file written by `save_model`.  Another format version (a
    format-2 file is one JSON document, so it reads as a header), a
    malformed header, one that contradicts itself or the package (classes
    other than UNROLL_FACTORS, an output width other than N_CLASSES, a
    `trained` that is not a JSON boolean, dropout rates that do not fit
    `layer_dims` or lie outside [0, 1), batchnorm values other than
    BN_MOMENTUM and BN_EPS, a scaler whose statistics, columns or output
    width do not fit) or a payload of the wrong length raises
    UnrollTunerError.  The payload is read once, straight into the model's
    store."""
    with open(path, "rb") as fh:
        head = fh.readline()
        try:
            header = json.loads(head.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UnrollTunerError(f"{path}: not a model file ({exc})") from exc
        if not isinstance(header, dict):
            raise UnrollTunerError(f"{path}: not a model file (header is not a JSON object)")
        if header.get("format_version") != MODEL_FORMAT_VERSION:
            raise UnrollTunerError(
                f"{path}: format {header.get('format_version')!r}, "
                f"expected {MODEL_FORMAT_VERSION}")
        try:
            dims = header["layer_dims"]
            if (not isinstance(dims, list) or len(dims) < 2
                    or any(type(d) is not int or d < 1 for d in dims)):
                raise ValueError(f"layer_dims {dims} are not two or more positive integers")
            dims = tuple(dims)
            classes = header["classes"]
            if classes != list(UNROLL_FACTORS) or any(type(c) is not int for c in classes):
                raise ValueError(f"classes {classes!r} are not {list(UNROLL_FACTORS)}")
            if dims[-1] != N_CLASSES:
                raise ValueError(f"{dims[-1]} outputs for {N_CLASSES} classes")
            trained = header["trained"]
            if type(trained) is not bool:
                raise ValueError(f"trained {trained!r} is not a JSON boolean")
            dropout_rates = tuple(header["dropout_rates"])
            if len(dropout_rates) != len(dims) - 2:
                raise ValueError(f"{len(dropout_rates)} dropout rates for "
                                 f"{len(dims) - 2} hidden layers")
            if any(type(r) not in (int, float) or not 0.0 <= r < 1.0 for r in dropout_rates):
                raise ValueError(f"dropout rates {list(dropout_rates)} do not all lie in [0, 1)")
            for key, value in (("bn_momentum", BN_MOMENTUM), ("bn_eps", BN_EPS)):
                if header[key] != value:
                    raise ValueError(f"{key} {header[key]!r} is not {value!r}")
            scaler = _scaler_from_obj(header.get("scaler"))
            if scaler is not None and scaler.output_width != dims[0]:
                raise ValueError(f"a scaler of {scaler.output_width} columns for "
                                 f"{dims[0]} inputs")
            # checked before allocating, so a header cannot ask for more
            # memory than its file holds
            size = _store_size(dims)
            payload_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
            if payload_bytes != 8 * size:
                raise ValueError(f"a payload of {payload_bytes} bytes, layer_dims "
                                 f"{list(dims)} need {size} floats")
            store = np.empty(size, dtype="<f8")
            if fh.readinto(store) != store.nbytes:
                raise ValueError("the payload ended early")
        except (KeyError, ValueError, TypeError) as exc:
            raise UnrollTunerError(f"{path}: {exc}") from exc
    return MlpModel(
        layer_dims=dims,
        store=store.astype(np.float64, copy=False),    # no copy on little-endian hosts
        dropout_rates=dropout_rates,
        scaler=scaler,
        trained=trained,
    )
