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
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import DepthExceedsMax, EmptyTrainingSet, LabelNotInClassSet
from .ir import AccessMode, BinOpKind, DataType, Program, load_iterator_sets, op_histogram
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

    @classmethod
    def from_list(cls, values) -> "FeatureVector":
        if len(values) != len(FEATURE_COLUMNS):
            raise ValueError(f"expected {len(FEATURE_COLUMNS)} values, got {len(values)}")
        return cls(**{name: values[start] if width == 1 else tuple(values[start:start + width])
                      for name, start, width in _LAYOUT})


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
    extent_by_name = {it.name: it.extent for it in sp.loops}
    out = [0] * MAX_DEPTH
    for names, accesses in load_iterator_sets(sp.base):
        used: set[str] = set()
        for it_name in names:
            used |= sp.index_exprs[it_name].variables()
        levels = sorted(level_by_name[name] for name in used)
        for lvl in range(sp.depth):
            deeper = [sp.loops[k].name for k in levels if k >= lvl]
            if deeper:
                out[lvl] += accesses * math.prod(extent_by_name[name] for name in deeper)
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

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """stat_a, the divisor (with zeros replaced by 1), the kept columns
        and the rescaled columns, as arrays built once."""
        a = np.asarray(self.stat_a)
        b = np.asarray(self.stat_b)
        spread = b if self.mode is ScalerMode.Standardize else b - a
        dropped = set(self.dropped_columns)
        keep = np.array([c for c in range(len(a)) if c not in dropped], dtype=np.intp)
        rescaled = np.array(self.rescaled_columns, dtype=np.intp)
        return a, np.where(spread == 0.0, 1.0, spread), keep, rescaled

    def transform_matrix(self, rows) -> np.ndarray:
        x = np.array(rows, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != len(self.stat_a):
            raise ValueError(f"expected {len(self.stat_a)} columns, got {x.shape[1]}")
        a, divisor, keep, rescaled = self._arrays
        x[:, rescaled] /= RESCALE_DIVISOR
        x -= a
        x /= divisor
        return x[:, keep]

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

def encode_csv_row(fv: FeatureVector, label: int) -> str:
    if label not in UNROLL_FACTORS:
        raise LabelNotInClassSet(f"label {label} not in {UNROLL_FACTORS}")
    return ",".join(map(str, fv.to_list() + [label]))


def parse_csv_row(text: str) -> tuple[FeatureVector, int]:
    parts = text.strip().split(",")
    if len(parts) != len(FEATURE_COLUMNS) + 1:
        raise ValueError(f"expected {len(FEATURE_COLUMNS) + 1} fields, got {len(parts)}")
    # every cell is an integer; int() raises ValueError on any other text
    label = int(parts[-1])
    if label not in UNROLL_FACTORS:
        raise LabelNotInClassSet(f"label {parts[-1]} not in {UNROLL_FACTORS}")
    return FeatureVector.from_list([int(v) for v in parts[:-1]]), label
