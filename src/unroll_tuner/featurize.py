"""Fixed-width feature extraction for scheduled programs.

The vector describes the post-transform nest: per-level spans and
data-loaded-per-level, static op counts, the element type, and which
schedule commands touched which levels.  Levels are zero-padded to
MAX_DEPTH=7 so every program maps to the same input width; the unroll factor
itself is never a feature (it is the training label).

data_loaded_per_level(L) = sum over the body's loads of the product of the
extents of the loop variables the access uses at depth >= L; an access with
no variable at depth >= L is loop-invariant there (hoistable above L) and
contributes 0.  For a square matmul this gives (3M^2, M^2 + 2M, 2M) across
the three levels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import UnrollTunerError
from .ir import BinOpKind, DataType, Program, load_iterator_sets, op_histogram
from .schedule import UNROLL_FACTORS, ScheduledProgram, new_schedule

MAX_DEPTH = 7

DTYPE_CODES = {
    DataType.Int32: 0,
    DataType.Int64: 1,
    DataType.Float32: 2,
    DataType.Float64: 3,
}

RESCALE_DIVISOR = 1000.0


def _csv(stem: str, width: int = 1):
    """A field of `width` CSV columns: `stem` itself, or `<stem>0`.. if wider."""
    return field(metadata={"stem": stem, "width": width})


@dataclass(frozen=True)
class FeatureVector:
    """One corpus row; the fields in order make the CSV columns, all integers."""

    depth: int = _csv("depth")
    span: tuple[int, ...] = _csv("span", MAX_DEPTH)
    data_loaded: tuple[int, ...] = _csv("load", MAX_DEPTH)
    load_count: int = _csv("loads")
    store_count: int = _csv("stores")
    leaf_count: int = _csv("leaves")
    add_count: int = _csv("add")
    sub_count: int = _csv("sub")
    mul_count: int = _csv("mul")
    div_count: int = _csv("div")
    dtype_flag: int = _csv("dtype")
    tile_applied: tuple[int, ...] = _csv("tile", MAX_DEPTH)
    tile_factor: tuple[int, ...] = _csv("tilef", MAX_DEPTH)
    interchange_applied: int = _csv("interch")
    parallel_flag: tuple[int, ...] = _csv("par", MAX_DEPTH)

    def to_list(self) -> list[int]:
        values = []
        for name, _, width in _LAYOUT:
            if width == 1:
                values.append(getattr(self, name))
            else:
                values.extend(getattr(self, name))
        return values


def _layout() -> tuple[tuple[tuple[str, int, int], ...], tuple[str, ...]]:
    """(field name, first column, width) per field, and the column names."""
    layout, columns = [], []
    for f in fields(FeatureVector):
        stem, width = f.metadata["stem"], f.metadata["width"]
        layout.append((f.name, len(columns), width))
        columns += [stem] if width == 1 else [f"{stem}{k}" for k in range(width)]
    return tuple(layout), tuple(columns)


_LAYOUT, FEATURE_COLUMNS = _layout()
CSV_HEADER = ",".join(FEATURE_COLUMNS + ("label",))

# Only the data-loaded columns reach magnitudes ~1e5; they get pre-divided
# by RESCALE_DIVISOR before the scaler is fitted.
RESCALE_COLUMNS = next(tuple(range(start, start + width))
                       for name, start, width in _LAYOUT if name == "data_loaded")


def _pad(values, fill=0) -> tuple:
    vals = tuple(values)
    return vals + (fill,) * (MAX_DEPTH - len(vals))


def data_loaded_per_level(sp: ScheduledProgram | Program) -> list[int]:
    """Words loaded per loop level of the current (post-transform) nest."""
    if isinstance(sp, Program):
        sp = new_schedule(sp)
    level_by_name = {it.name: pos for pos, it in enumerate(sp.loops)}
    out = [0] * MAX_DEPTH
    for names, accesses in load_iterator_sets(sp.base):
        levels = sorted({level_by_name[var] for it_name in names
                         for var, _ in sp.index_exprs[it_name].terms})
        # Deepest used level first: `words` becomes the product of the used
        # extents at or below `level`, and it is what the loads move at
        # every level from just below the next shallower used one to `level`.
        words = accesses
        for j in range(len(levels) - 1, -1, -1):
            level = levels[j]
            words *= sp.loops[level].extent
            for lvl in range(levels[j - 1] + 1 if j else 0, level + 1):
                out[lvl] += words
    return out


def extract_features(sp: ScheduledProgram | Program) -> FeatureVector:
    if isinstance(sp, Program):
        sp = new_schedule(sp)
    if sp.depth > MAX_DEPTH:
        raise UnrollTunerError(f"nest depth {sp.depth} exceeds {MAX_DEPTH} after tiling")
    p = sp.base
    hist = op_histogram(p)
    tile_applied = [0] * MAX_DEPTH
    tile_factor = [0] * MAX_DEPTH
    for pos, it in enumerate(sp.loops):
        if it.name in sp.tile_factors:
            tile_applied[pos] = 1
            tile_factor[pos] = sp.tile_factors[it.name]
    parallel = [0] * MAX_DEPTH
    if sp.parallel_level is not None:
        parallel[sp.parallel_level] = 1
    return FeatureVector(
        depth=sp.depth,
        span=_pad(it.extent for it in sp.loops),
        data_loaded=tuple(data_loaded_per_level(sp)),
        load_count=hist.loads,
        store_count=1,
        # every BinOp has two children, so a tree has one more leaf than ops
        leaf_count=sum(hist.ops.values()) + 1,
        add_count=hist.ops[BinOpKind.Add],
        sub_count=hist.ops[BinOpKind.Sub],
        mul_count=hist.ops[BinOpKind.Mul],
        div_count=hist.ops[BinOpKind.Div],
        dtype_flag=DTYPE_CODES[p.dtype],
        tile_applied=tuple(tile_applied),
        tile_factor=tuple(tile_factor),
        interchange_applied=int(sp.interchange_applied),
        parallel_flag=tuple(parallel),
    )


# --- scaling -----------------------------------------------------------------

class ScalerMode(enum.Enum):
    Standardize = "standardize"
    Normalize = "normalize"


@dataclass(frozen=True)
class Scaler:
    """Column scaler fitted on the training split only.

    Columns in `rescaled_columns` are divided by RESCALE_DIVISOR before any
    statistic is computed or applied; constant columns carry no information
    and are dropped.  Every statistic is a finite number.
    """

    mode: ScalerMode
    stat_a: tuple[float, ...]      # per-column mean (standardize) or min (normalize)
    stat_b: tuple[float, ...]      # per-column std  (standardize) or max (normalize)
    dropped_columns: tuple[int, ...]
    rescaled_columns: tuple[int, ...] = RESCALE_COLUMNS

    def __post_init__(self):
        width = len(self.stat_a)
        if len(self.stat_b) != width:
            raise ValueError(f"{width} stat_a values but {len(self.stat_b)} stat_b values")
        if any(type(v) not in (int, float) for v in (*self.stat_a, *self.stat_b)):
            raise ValueError("scaler statistics must be numbers")
        if not all(math.isfinite(v) for v in (*self.stat_a, *self.stat_b)):
            raise ValueError("scaler statistics must be finite")
        for name in ("dropped_columns", "rescaled_columns"):
            columns = getattr(self, name)
            if len(set(columns)) != len(columns) or any(
                    type(c) is not int or not 0 <= c < width for c in columns):
                raise ValueError(f"{name} {list(columns)} are not distinct columns "
                                 f"of {width}")

    @property
    def output_width(self) -> int:
        return len(self.stat_a) - len(self.dropped_columns)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The per-column pre-divisor (RESCALE_DIVISOR on the rescaled
        columns, an exact 1 elsewhere), stat_a, the divisor (with zeros
        replaced by 1) and the kept columns, as arrays built once."""
        a = np.asarray(self.stat_a)
        b = np.asarray(self.stat_b)
        spread = b if self.mode is ScalerMode.Standardize else b - a
        dropped = set(self.dropped_columns)
        keep = np.array([c for c in range(len(a)) if c not in dropped], dtype=np.intp)
        rescale = np.ones(len(a))
        rescale[np.array(self.rescaled_columns, dtype=np.intp)] = RESCALE_DIVISOR
        return rescale, a, np.where(spread == 0.0, 1.0, spread), keep

    def _scale(self, x: np.ndarray) -> np.ndarray:
        """Scale `x`, a new float64 row (1-D) or batch (2-D), in place, and
        return its kept columns."""
        if x.shape[-1] != len(self.stat_a):
            raise UnrollTunerError(f"expected {len(self.stat_a)} columns, got {x.shape[-1]}")
        rescale, a, divisor, keep = self._arrays
        x /= rescale
        x -= a
        x /= divisor
        return x[keep] if x.ndim == 1 else x[:, keep]

    def transform_matrix(self, rows) -> np.ndarray:
        x = np.array(rows, dtype=np.float64)
        return self._scale(x[None, :] if x.ndim == 1 else x)

    def transform(self, row) -> np.ndarray:
        """One row, kept 1-D: the bits of `transform_matrix([row])[0]`."""
        x = np.array(row, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError(f"expected one row, got an array of shape {x.shape}")
        return self._scale(x)


def fit_scaler(train_x, mode: ScalerMode = ScalerMode.Standardize) -> Scaler:
    """Fit on `train_x`, the training rows' raw features (rows x columns)."""
    x = np.array(train_x, dtype=np.float64)
    if not len(x):
        raise UnrollTunerError("cannot fit a scaler on an empty training set")
    rescale = tuple(c for c in RESCALE_COLUMNS if c < x.shape[1])
    x[:, rescale] /= RESCALE_DIVISOR
    lo, hi = x.min(axis=0), x.max(axis=0)
    # A column is constant when its extremes agree: the float std of equal
    # values need not be exactly 0, and scaling by it would amplify noise.
    dropped = tuple(int(c) for c in np.nonzero(hi == lo)[0])
    if len(dropped) == x.shape[1]:
        raise UnrollTunerError("no feature column varies across the training set")
    if mode is ScalerMode.Standardize:
        a, b = x.mean(axis=0), x.std(axis=0)
    else:
        a, b = lo, hi
    return Scaler(
        mode=mode,
        stat_a=tuple(float(v) for v in a),
        stat_b=tuple(float(v) for v in b),
        dropped_columns=dropped,
        rescaled_columns=rescale,
    )


# --- CSV row encoding ----------------------------------------------------------

def encode_csv_row(fv: FeatureVector, label: int) -> str:
    if label not in UNROLL_FACTORS:
        raise UnrollTunerError(f"label {label} not in {UNROLL_FACTORS}")
    return ",".join(map(str, fv.to_list() + [label]))
