"""Fixed-width feature extraction for scheduled programs.

The vector describes the post-transform nest: per-level spans and
data-loaded-per-level, static op counts, the element type, and which
schedule commands touched which levels.  Levels are zero-padded to
MAX_DEPTH=7 so every program maps to the same input width; the unroll factor
itself is never a feature (it is the training label).

data_loaded_per_level(L) = sum over Load accesses of the product of the
extents of the loop variables the access uses at depth >= L; an access with
no variable at depth >= L is loop-invariant there (hoistable above L) and
contributes 0.  For a square matmul this gives (3M^2, M^2 + 2M, 2M) across
the three levels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DepthExceedsMax, EmptyTrainingSet, LabelNotInClassSet
from .ir import AccessMode, BinOpKind, DataType, Program, load_accesses, op_histogram
from .schedule import UNROLL_FACTORS, ScheduledProgram, new_schedule

MAX_DEPTH = 7

DTYPE_CODES = {
    DataType.Int32: 0,
    DataType.Int64: 1,
    DataType.Float32: 2,
    DataType.Float64: 3,
}

FEATURE_COLUMNS = (
    ("depth",)
    + tuple(f"span{k}" for k in range(MAX_DEPTH))
    + tuple(f"load{k}" for k in range(MAX_DEPTH))
    + ("loads", "stores", "leaves", "add", "sub", "mul", "div", "dtype")
    + tuple(f"tile{k}" for k in range(MAX_DEPTH))
    + tuple(f"tilef{k}" for k in range(MAX_DEPTH))
    + ("interch",)
    + tuple(f"par{k}" for k in range(MAX_DEPTH))
)

CSV_HEADER = ",".join(FEATURE_COLUMNS + ("label",))

# Only the data-loaded columns reach magnitudes ~1e5; they get pre-divided
# by 1000 before the scaler is fitted.
RESCALE_COLUMNS = tuple(range(1 + MAX_DEPTH, 1 + 2 * MAX_DEPTH))
RESCALE_DIVISOR = 1000.0


@dataclass(frozen=True)
class FeatureVector:
    depth: int
    span: tuple[int, ...]
    data_loaded: tuple[int, ...]
    load_count: int
    store_count: int
    leaf_count: int
    add_count: int
    sub_count: int
    mul_count: int
    div_count: int
    dtype_flag: int
    tile_applied: tuple[int, ...]
    tile_factor: tuple[int, ...]
    interchange_applied: int
    parallel_flag: tuple[int, ...]

    def to_list(self) -> list:
        return (
            [self.depth]
            + list(self.span)
            + list(self.data_loaded)
            + [self.load_count, self.store_count, self.leaf_count,
               self.add_count, self.sub_count, self.mul_count, self.div_count,
               self.dtype_flag]
            + list(self.tile_applied)
            + list(self.tile_factor)
            + [self.interchange_applied]
            + list(self.parallel_flag)
        )

    @classmethod
    def from_list(cls, values) -> "FeatureVector":
        if len(values) != len(FEATURE_COLUMNS):
            raise ValueError(f"expected {len(FEATURE_COLUMNS)} values, got {len(values)}")
        d = MAX_DEPTH
        v = list(values)
        return cls(
            depth=v[0],
            span=tuple(v[1:1 + d]),
            data_loaded=tuple(v[1 + d:1 + 2 * d]),
            load_count=v[1 + 2 * d],
            store_count=v[2 + 2 * d],
            leaf_count=v[3 + 2 * d],
            add_count=v[4 + 2 * d],
            sub_count=v[5 + 2 * d],
            mul_count=v[6 + 2 * d],
            div_count=v[7 + 2 * d],
            dtype_flag=v[8 + 2 * d],
            tile_applied=tuple(v[9 + 2 * d:9 + 3 * d]),
            tile_factor=tuple(v[9 + 3 * d:9 + 4 * d]),
            interchange_applied=v[9 + 4 * d],
            parallel_flag=tuple(v[10 + 4 * d:10 + 5 * d]),
        )


def _pad(values, fill=0) -> tuple:
    vals = tuple(values)
    return vals + (fill,) * (MAX_DEPTH - len(vals))


def data_loaded_per_level(sp: ScheduledProgram | Program) -> list[int]:
    """Words loaded per loop level of the current (post-transform) nest."""
    if isinstance(sp, Program):
        sp = new_schedule(sp)
    level_by_name = {it.name: pos for pos, it in enumerate(sp.loops)}
    extent_by_name = {it.name: it.extent for it in sp.loops}
    out = [0] * MAX_DEPTH
    for acc in load_accesses(sp.base):
        used: set[str] = set()
        for it_name in acc.iterator_names:
            used |= sp.index_exprs[it_name].variables()
        levels = sorted(level_by_name[name] for name in used)
        for lvl in range(sp.depth):
            deeper = [sp.loops[k].name for k in levels if k >= lvl]
            if deeper:
                out[lvl] += math.prod(extent_by_name[name] for name in deeper)
    return out


def extract_features(sp: ScheduledProgram | Program) -> FeatureVector:
    if isinstance(sp, Program):
        sp = new_schedule(sp)
    if sp.depth > MAX_DEPTH:
        raise DepthExceedsMax(f"nest depth {sp.depth} exceeds {MAX_DEPTH} after tiling")
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
        load_count=hist.count(AccessMode.Load),
        store_count=1,
        # every BinOp has two children, so a tree has one more leaf than ops
        leaf_count=sum(hist.count(k) for k in BinOpKind) + 1,
        add_count=hist.count(BinOpKind.Add),
        sub_count=hist.count(BinOpKind.Sub),
        mul_count=hist.count(BinOpKind.Mul),
        div_count=hist.count(BinOpKind.Div),
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
    and are dropped.
    """

    mode: ScalerMode
    stat_a: tuple[float, ...]      # per-column mean (standardize) or min (normalize)
    stat_b: tuple[float, ...]      # per-column std  (standardize) or max (normalize)
    dropped_columns: tuple[int, ...]
    rescaled_columns: tuple[int, ...] = RESCALE_COLUMNS

    @property
    def output_width(self) -> int:
        return len(self.stat_a) - len(self.dropped_columns)

    def transform_matrix(self, rows) -> np.ndarray:
        x = np.asarray(rows, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != len(self.stat_a):
            raise ValueError(f"expected {len(self.stat_a)} columns, got {x.shape[1]}")
        x = x.copy()
        x[:, self.rescaled_columns] /= RESCALE_DIVISOR
        a = np.asarray(self.stat_a)
        b = np.asarray(self.stat_b)
        if self.mode is ScalerMode.Standardize:
            scaled = (x - a) / np.where(b == 0.0, 1.0, b)
        else:
            span = b - a
            scaled = (x - a) / np.where(span == 0.0, 1.0, span)
        dropped = set(self.dropped_columns)
        keep = [c for c in range(x.shape[1]) if c not in dropped]
        return scaled[:, keep]

    def transform(self, row) -> np.ndarray:
        return self.transform_matrix([row])[0]


def fit_scaler(train_rows, mode: ScalerMode = ScalerMode.Standardize) -> Scaler:
    rows = list(train_rows)
    if not rows:
        raise EmptyTrainingSet("cannot fit a scaler on an empty training set")
    x = np.asarray(rows, dtype=np.float64)
    x = x.copy()
    rescale = tuple(c for c in RESCALE_COLUMNS if c < x.shape[1])
    x[:, rescale] /= RESCALE_DIVISOR
    if mode is ScalerMode.Standardize:
        a = x.mean(axis=0)
        b = x.std(axis=0)
        dropped = tuple(int(c) for c in np.nonzero(b == 0.0)[0])
    else:
        a = x.min(axis=0)
        b = x.max(axis=0)
        dropped = tuple(int(c) for c in np.nonzero(b - a == 0.0)[0])
    return Scaler(
        mode=mode,
        stat_a=tuple(float(v) for v in a),
        stat_b=tuple(float(v) for v in b),
        dropped_columns=dropped,
        rescaled_columns=rescale,
    )


# --- CSV row encoding ----------------------------------------------------------

def _format_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def encode_csv_row(fv: FeatureVector, label: int) -> str:
    if label not in UNROLL_FACTORS:
        raise LabelNotInClassSet(f"label {label} not in {UNROLL_FACTORS}")
    return ",".join([_format_value(v) for v in fv.to_list()] + [str(label)])


def parse_csv_row(text: str) -> tuple[FeatureVector, int]:
    parts = text.strip().split(",")
    if len(parts) != len(FEATURE_COLUMNS) + 1:
        raise ValueError(f"expected {len(FEATURE_COLUMNS) + 1} fields, got {len(parts)}")
    label = _parse_value(parts[-1])
    if label not in UNROLL_FACTORS:
        raise LabelNotInClassSet(f"label {parts[-1]} not in {UNROLL_FACTORS}")
    return FeatureVector.from_list([_parse_value(v) for v in parts[:-1]]), int(label)
