"""From-scratch MLP classifier over unrolling-factor classes.

Architecture: input -> 500 -> 400 -> 250 -> 100 -> 7, each hidden layer as
dense -> batchnorm -> ReLU -> (inverted) dropout, softmax output, uniform
fan-based weight init, cross-entropy loss trained with ADAM in batches of
100, early stopping on validation loss with patience 10 keeping the best
epoch's snapshot.  numpy supplies the matrix arithmetic; all learning logic
lives here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (
    CorruptFile,
    DimensionMismatch,
    EmptySplit,
    FormatVersionMismatch,
    LabelNotInClassSet,
    ModelNotTrained,
)
from .featurize import FeatureVector, Scaler, ScalerMode
from .rng import SplitMix64
from .schedule import UNROLL_FACTORS

MODEL_FORMAT_VERSION = 3
DEFAULT_HIDDEN = (500, 400, 250, 100)
DEFAULT_DROPOUT = (0.12, 0.10, 0.04, 0.07)
N_CLASSES = len(UNROLL_FACTORS)
LOG_CLAMP = 1e-12
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


@dataclass
class Layer:
    w: np.ndarray
    b: np.ndarray
    gamma: np.ndarray | None = None          # batchnorm params; None on the output layer
    beta: np.ndarray | None = None
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None


@dataclass
class MlpModel:
    layer_dims: list[int]
    layers: list[Layer]
    dropout_rates: tuple[float, ...]
    bn_momentum: float = 0.9
    bn_eps: float = 1e-5
    scaler: Scaler | None = None
    classes: tuple[int, ...] = UNROLL_FACTORS
    trained: bool = False

    @property
    def input_width(self) -> int:
        return self.layer_dims[0]

    @property
    def n_hidden(self) -> int:
        return len(self.layer_dims) - 2


_TRAINED = ("w", "b", "gamma", "beta")


def _trained_arrays(m: MlpModel) -> list[np.ndarray]:
    """Every array ADAM updates, in the flat layout's order: layer by layer,
    w, b, then gamma and beta on the hidden layers."""
    return [getattr(layer, name) for layer in m.layers for name in _TRAINED
            if getattr(layer, name) is not None]


def param_views(m: MlpModel, flat: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Per layer, name -> the view of `flat` that holds that trained array in
    the flat layout, shaped like the array."""
    views, start = [], 0
    for layer in m.layers:
        named = {}
        for name in _TRAINED:
            array = getattr(layer, name)
            if array is not None:
                named[name] = flat[start:start + array.size].reshape(array.shape)
                start += array.size
        views.append(named)
    return views


def _flatten(m: MlpModel) -> np.ndarray:
    """Copy the trained arrays into one flat buffer and rebind each layer's
    arrays to their views of it; returns the buffer."""
    flat = np.concatenate([array.ravel() for array in _trained_arrays(m)])
    for layer, named in zip(m.layers, param_views(m, flat)):
        for name, view in named.items():
            setattr(layer, name, view)
    return flat


def init_model(input_width: int, seed: int,
               hidden: tuple[int, ...] = DEFAULT_HIDDEN,
               dropout: tuple[float, ...] = DEFAULT_DROPOUT,
               n_classes: int = N_CLASSES) -> MlpModel:
    """Uniform weight init in [-limit, limit], limit = sqrt(6/(fan_in+fan_out))."""
    if input_width < 1:
        raise ValueError("input_width must be >= 1")
    if len(dropout) != len(hidden):
        raise ValueError("one dropout rate per hidden layer")
    if any(not 0.0 <= r < 1.0 for r in dropout):
        raise ValueError("dropout rates must lie in [0, 1)")
    dims = [input_width, *hidden, n_classes]
    rng = SplitMix64.stream(seed, 0x11A9)
    layers: list[Layer] = []
    for k in range(len(dims) - 1):
        fan_in, fan_out = dims[k], dims[k + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform_array(fan_in * fan_out, -limit, limit).reshape(fan_in, fan_out)
        layer = Layer(w=w, b=np.zeros(fan_out))
        if k < len(dims) - 2:
            layer.gamma = np.ones(fan_out)
            layer.beta = np.zeros(fan_out)
            layer.running_mean = np.zeros(fan_out)
            layer.running_var = np.ones(fan_out)
        layers.append(layer)
    return MlpModel(layer_dims=dims, layers=layers, dropout_rates=tuple(dropout))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


def forward(m: MlpModel, batch: np.ndarray, train: bool = False,
            dropout_rng: np.random.Generator | None = None):
    """Propagate a (rows x input_width) batch; returns (probs, cache).

    Train mode uses batch statistics for batchnorm (updating the running
    stats), applies inverted dropout and caches what backpropagation reads;
    infer mode uses running statistics and no dropout, so repeated calls are
    identical, and its cache holds only the output layer's input.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != m.input_width:
        raise DimensionMismatch(f"batch width {x.shape[1]} != input width {m.input_width}")
    if not train:
        a = x
        for layer in m.layers[:-1]:
            # the train-mode arithmetic, in the same order, in place
            z = a @ layer.w
            z += layer.b
            z -= layer.running_mean
            z /= np.sqrt(layer.running_var + m.bn_eps)
            a = layer.gamma * z
            a += layer.beta
            np.maximum(a, 0.0, out=a)
        logits = a @ m.layers[-1].w + m.layers[-1].b
        return softmax(logits), {"inputs": [a]}
    cache = {"inputs": [], "xhat": [], "std": [], "relu": [], "mask": []}
    a = x
    for k, layer in enumerate(m.layers[:-1]):
        z = a @ layer.w + layer.b
        cache["inputs"].append(a)
        mu = z.mean(axis=0)
        var = z.var(axis=0)
        layer.running_mean = m.bn_momentum * layer.running_mean + (1 - m.bn_momentum) * mu
        layer.running_var = m.bn_momentum * layer.running_var + (1 - m.bn_momentum) * var
        std = np.sqrt(var + m.bn_eps)
        xhat = (z - mu) / std
        h = layer.gamma * xhat + layer.beta
        a = np.maximum(h, 0.0)
        rate = m.dropout_rates[k]
        if rate > 0.0:
            if dropout_rng is None:
                raise ValueError("train-mode forward with dropout needs a generator")
            mask = (dropout_rng.random(a.shape) >= rate) / (1.0 - rate)
            a = a * mask
        else:
            mask = None
        cache["xhat"].append(xhat)
        cache["std"].append(std)
        cache["relu"].append(h)
        cache["mask"].append(mask)
    cache["inputs"].append(a)
    logits = a @ m.layers[-1].w + m.layers[-1].b
    return softmax(logits), cache


def loss_and_gradients(m: MlpModel, batch: np.ndarray, one_hot: np.ndarray,
                       dropout_rng: np.random.Generator | None = None,
                       grad: np.ndarray | None = None):
    """Mean cross-entropy and its gradient with respect to every trained array.

    The gradient goes into `grad`, a flat buffer in the layout of
    `param_views` (a new one when None); the returned per-layer dicts of W,
    b, gamma and beta gradients are its views.
    """
    y = np.asarray(one_hot, dtype=np.float64)
    probs, cache = forward(m, batch, train=True, dropout_rng=dropout_rng)
    if y.shape != probs.shape:
        raise DimensionMismatch(f"labels {y.shape} vs probs {probs.shape}")
    n = probs.shape[0]
    loss = float(-(y * np.log(np.maximum(probs, LOG_CLAMP))).sum() / n)

    if grad is None:
        grad = np.empty(sum(array.size for array in _trained_arrays(m)))
    grads = param_views(m, grad)
    dz = (probs - y) / n                              # d loss / d logits
    for k in range(len(m.layers) - 1, -1, -1):
        if k < m.n_hidden:      # back through dropout, ReLU and batchnorm
            da = dz @ m.layers[k + 1].w.T
            if cache["mask"][k] is not None:
                da = da * cache["mask"][k]
            dh = da * (cache["relu"][k] > 0.0)
            xhat, std = cache["xhat"][k], cache["std"][k]
            np.sum(dh * xhat, axis=0, out=grads[k]["gamma"])
            np.sum(dh, axis=0, out=grads[k]["beta"])
            dxhat = dh * m.layers[k].gamma
            dz = (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0)) / std
        np.matmul(cache["inputs"][k].T, dz, out=grads[k]["w"])
        np.sum(dz, axis=0, out=grads[k]["b"])
    return loss, grads


@dataclass
class AdamState:
    grad: np.ndarray        # the step's gradient; these three are flat like the parameters
    m: np.ndarray           # first and second moments
    v: np.ndarray
    scratch: np.ndarray     # (2, ADAM_CHUNK or fewer): the temporaries of one chunk

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        # one block, not three: three separate frees let malloc trim the heap, and
        # the next command in the process faulted those pages back in
        grad, m, v = np.zeros((3, params.size))
        return cls(grad=grad, m=m, v=v, scratch=np.empty((2, min(ADAM_CHUNK, params.size))))


def adam_update(param: np.ndarray, grad: np.ndarray, m1: np.ndarray, v1: np.ndarray,
                t: int, scratch: np.ndarray) -> None:
    """One in-place ADAM step with bias correction (t counts from 1).

    `scratch` (two arrays shaped like `param`) holds the temporaries of
    `param -= lr * m_hat / (sqrt(v_hat) + eps)`, computed in that order, so
    each element gets the same bits whichever arrays it is updated with.
    """
    a, b = scratch
    m1 *= ADAM_BETA1
    m1 += np.multiply(grad, 1 - ADAM_BETA1, out=a)
    v1 *= ADAM_BETA2
    np.multiply(grad, 1 - ADAM_BETA2, out=a)
    v1 += np.multiply(a, grad, out=a)
    np.sqrt(np.divide(v1, 1 - ADAM_BETA2 ** t, out=a), out=a)       # sqrt(v_hat)
    a += ADAM_EPS
    np.divide(m1, 1 - ADAM_BETA1 ** t, out=b)                       # m_hat
    b *= ADAM_LR
    b /= a
    param -= b


def adam_step(params: np.ndarray, state: AdamState, t: int) -> None:
    """One ADAM step on the flat parameter buffer `params` (see `train`)
    from the gradient in `state.grad`.

    The flat buffers are updated in slices of ADAM_CHUNK elements, so the
    scratch arrays stay small and each slice's arrays stay in cache.
    """
    if t < 1:
        raise ValueError("ADAM step counter starts at 1")
    n = params.size
    for start in range(0, n, ADAM_CHUNK):
        part = slice(start, start + ADAM_CHUNK)
        adam_update(params[part], state.grad[part], state.m[part], state.v[part], t,
                    state.scratch[:, :min(ADAM_CHUNK, n - start)])


def one_hot(labels, classes: tuple[int, ...] = UNROLL_FACTORS) -> np.ndarray:
    index = {c: i for i, c in enumerate(classes)}
    out = np.zeros((len(labels), len(classes)))
    for row, label in enumerate(labels):
        if label not in index:
            raise LabelNotInClassSet(f"label {label} not in {classes}")
        out[row, index[label]] = 1.0
    return out


def _evaluate(m: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    probs, _ = forward(m, x, train=False)
    loss = float(-(y * np.log(np.maximum(probs, LOG_CLAMP))).sum() / x.shape[0])
    acc = float((probs.argmax(axis=1) == y.argmax(axis=1)).mean())
    return loss, acc


def _snapshot(m: MlpModel, params: np.ndarray):
    """Copies of everything a training step changes."""
    return params.copy(), [(l.running_mean.copy(), l.running_var.copy())
                           for l in m.layers[:-1]]


def _restore(m: MlpModel, params: np.ndarray, snapshot) -> None:
    saved, stats = snapshot
    params[...] = saved
    for layer, (mean, var) in zip(m.layers, stats):
        layer.running_mean, layer.running_var = mean, var


def train(m: MlpModel, split, cfg: TrainConfig | None = None):
    """Fit on split.train with early stopping on split.valid.

    Returns (model, history); the model carries the parameters of the epoch
    with the lowest validation loss, not the last one.  The scaler must
    already be attached and fitted on the training rows only.

    Training first gathers the trained arrays (w, b, gamma, beta) into one
    flat buffer; afterwards the model's arrays are views of it.

    History holds one dict per epoch run: `epoch`, `train_loss` (the
    row-weighted mean of that epoch's mini-batch losses, each taken before
    its ADAM step; NaN if no batch ran), and `valid_loss` and `valid_acc`
    (the validation split scored after the epoch).
    """
    cfg = cfg or TrainConfig()
    if not split.train or not split.valid:
        raise EmptySplit("train and valid splits must be non-empty")
    if m.scaler is None:
        raise ModelNotTrained("attach a fitted scaler before training")

    x_train = m.scaler.transform_matrix([r.features.to_list() for r in split.train])
    y_train = one_hot([r.label for r in split.train], m.classes)
    x_valid = m.scaler.transform_matrix([r.features.to_list() for r in split.valid])
    y_valid = one_hot([r.label for r in split.valid], m.classes)
    if x_train.shape[1] != m.input_width:
        raise DimensionMismatch(
            f"scaler emits {x_train.shape[1]} columns, model expects {m.input_width}")

    shuffle_rng = SplitMix64.stream(cfg.seed, 0x7A13)
    dropout_rng = np.random.Generator(np.random.PCG64(cfg.seed ^ 0xD20B0))
    params = _flatten(m)
    state = AdamState.for_params(params)
    history: list[dict] = []
    best_loss = float("inf")
    best = _snapshot(m, params)
    stall = 0
    t = 0
    n = x_train.shape[0]
    for epoch in range(cfg.max_epochs):
        order = list(range(n))
        shuffle_rng.shuffle(order)
        loss_sum, rows = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if len(idx) < 2:
                continue      # batchnorm needs at least two rows
            t += 1
            loss, _ = loss_and_gradients(m, x_train[idx], y_train[idx], dropout_rng, state.grad)
            adam_step(params, state, t)
            loss_sum += loss * len(idx)
            rows += len(idx)
        valid_loss, valid_acc = _evaluate(m, x_valid, y_valid)
        history.append({"epoch": epoch,
                        "train_loss": loss_sum / rows if rows else float("nan"),
                        "valid_loss": valid_loss, "valid_acc": valid_acc})
        if valid_loss < best_loss:
            best_loss = valid_loss
            best = _snapshot(m, params)
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break
    _restore(m, params, best)
    m.trained = True
    return m, history


def predict_probs(m: MlpModel, rows) -> np.ndarray:
    if not m.trained:
        raise ModelNotTrained("model has not been trained")
    if m.scaler is None:
        raise ModelNotTrained("model has no attached scaler")
    x = m.scaler.transform_matrix(rows)
    probs, _ = forward(m, x, train=False)
    return probs


def predict_class(m: MlpModel, fv: FeatureVector) -> int:
    """Best unrolling factor for one feature vector (argmax, lowest-index ties)."""
    probs = predict_probs(m, [fv.to_list()])
    return m.classes[int(probs[0].argmax())]


# --- persistence ---------------------------------------------------------------

def _scaler_to_obj(s: Scaler | None):
    return None if s is None else {**asdict(s), "mode": s.mode.value}


def _scaler_from_obj(obj) -> Scaler | None:
    if obj is None:
        return None
    values = {f.name: tuple(obj[f.name]) for f in fields(Scaler) if f.name != "mode"}
    return Scaler(mode=ScalerMode(obj["mode"]), **values)


_STORED = (*_TRAINED, "running_mean", "running_var")


def _stored_shapes(dims: list[int]) -> list[dict[str, tuple[int, ...]]]:
    """Per layer, stored array name -> shape, in payload order: layer by
    layer, w, b, then gamma, beta, running_mean and running_var on hidden
    layers."""
    shapes = []
    for k in range(len(dims) - 1):
        names = _STORED if k < len(dims) - 2 else ("w", "b")
        shapes.append({name: (dims[k], dims[k + 1]) if name == "w" else (dims[k + 1],)
                       for name in names})
    return shapes


def save_model(m: MlpModel, path: str) -> None:
    """Model file format 3: one line of compact JSON (the header), then the
    payload, every stored array's little-endian float64 bytes in payload
    order, so weights round-trip bit for bit.  The header holds no offsets:
    the arrays' shapes follow from `layer_dims`.

    The file is written beside `path` and renamed over it, so a failed save
    leaves any previous model intact.
    """
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "mlp",
        "classes": list(m.classes),
        "layer_dims": list(m.layer_dims),
        "dropout_rates": list(m.dropout_rates),
        "bn_momentum": m.bn_momentum,
        "bn_eps": m.bn_eps,
        "trained": m.trained,
        "scaler": _scaler_to_obj(m.scaler),
    }
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            # compact JSON escapes every newline inside a string
            fh.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
            for layer, named in zip(m.layers, _stored_shapes(m.layer_dims)):
                for name in named:
                    fh.write(np.ascontiguousarray(getattr(layer, name), "<f8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_model(path: str) -> MlpModel:
    """Read a file written by `save_model`.  Another format version (a
    format-2 file is one JSON document, so it reads as a header) raises
    FormatVersionMismatch; a malformed header or a payload of the wrong
    length raises CorruptFile."""
    with open(path, "rb") as fh:
        data = fh.read()
    head, _, payload = data.partition(b"\n")
    try:
        header = json.loads(head.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptFile(f"{path}: not a model file ({exc})") from exc
    if not isinstance(header, dict):
        raise CorruptFile(f"{path}: not a model file (header is not a JSON object)")
    if header.get("format_version") != MODEL_FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"{path}: format {header.get('format_version')!r}, "
            f"expected {MODEL_FORMAT_VERSION}")
    try:
        dims = [int(d) for d in header["layer_dims"]]
        if len(dims) < 2 or min(dims) < 1:
            raise ValueError(f"layer_dims {dims} name no layers")
        shapes = _stored_shapes(dims)
        size = sum(math.prod(shape) for named in shapes for shape in named.values())
        if len(payload) != 8 * size:
            raise ValueError(f"payload of {len(payload)} bytes, layer_dims {dims} "
                             f"need {8 * size}")
        # one aligned, writable copy; each array is a view of it
        flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
        layers, start = [], 0
        for named in shapes:
            arrays = {}
            for name, shape in named.items():
                arrays[name] = flat[start:start + math.prod(shape)].reshape(shape)
                start += math.prod(shape)
            layers.append(Layer(**arrays))
        model = MlpModel(
            layer_dims=dims,
            layers=layers,
            dropout_rates=tuple(header["dropout_rates"]),
            bn_momentum=header["bn_momentum"],
            bn_eps=header["bn_eps"],
            scaler=_scaler_from_obj(header.get("scaler")),
            classes=tuple(header["classes"]),
            trained=bool(header.get("trained")),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
    return model
