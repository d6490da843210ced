from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_program
from unroll_tuner.dataset import LabeledSample, load_csv, save_csv
from unroll_tuner.benchmarks import blur, mmxm, rgb_gray, smm
from unroll_tuner.errors import UnrollTunerError
from unroll_tuner.featurize import (
    CSV_HEADER,
    FEATURE_COLUMNS,
    MAX_DEPTH,
    RESCALE_COLUMNS,
    RESCALE_DIVISOR,
    ScalerMode,
    data_loaded_per_level,
    encode_csv_row,
    extract_features,
    fit_scaler,
)
from unroll_tuner.generator import GenConfig, gen_program, gen_schedules
from unroll_tuner.ir import BinOp, Constant, load_accesses, load_iterator_sets, walk_expr
from unroll_tuner.schedule import Parallelize, Tile2, new_schedule, schedule_program


# --- data-loaded-per-level: closed-form load counts -----------------------------

@pytest.mark.parametrize("msize", [4, 64])
def test_mmxm_formula(msize):
    assert data_loaded_per_level(mmxm(msize))[:3] == [
        3 * msize**2, msize**2 + 2 * msize, 2 * msize]


@pytest.mark.parametrize("msize", [4, 64, 256])
def test_smm_formula(msize):
    assert data_loaded_per_level(smm(msize))[:2] == [2 * msize**2, 2 * msize]


@pytest.mark.parametrize("isize", [4, 64])
def test_rgb_gray_formula(isize):
    assert data_loaded_per_level(rgb_gray(isize))[:2] == [3 * isize**2, 3 * isize]


@pytest.mark.parametrize("isize", [4, 64])
def test_blur_formula(isize):
    assert data_loaded_per_level(blur(isize))[:3] == [
        3 * isize**3, 3 * isize**2, 3 * isize]


def test_constant_body_loads_nothing():
    p = make_program("konst", [("i0", 8), ("i1", 4)], Constant(1.0),
                     ("i0", "i1"), [])
    fv = extract_features(p)
    assert fv.data_loaded == (0,) * MAX_DEPTH
    assert fv.load_count == 0


def test_load_and_leaf_counts_match_a_body_walk():
    # both counts come from the op histogram, not from walking the body
    cfg = GenConfig(seed=21)
    for index in range(200):
        p = gen_program(cfg, index)
        fv = extract_features(p)
        assert fv.load_count == len(load_accesses(p))
        assert fv.leaf_count == sum(not isinstance(n, BinOp) for n in walk_expr(p.body))


def distinct_subtuple_loads(p, level: int) -> int:
    """Brute-force oracle: enumerate the nest and count, per Load access, the
    distinct value tuples of its iterators at depth >= level (0 when the
    access uses none of them)."""
    total = 0
    names = [it.name for it in p.iterators]
    extents = [it.extent for it in p.iterators]
    for acc in load_accesses(p):
        deep = sorted({names.index(n) for n in acc.iterator_names if names.index(n) >= level})
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
        total += len(seen)
    return total


def test_data_loaded_matches_enumeration_oracle():
    cfg = GenConfig(seed=3, depth_range=(1, 3), extent_choices=(2, 4),
                    max_inputs=3, max_leaves=8)
    for index in range(40):
        p = gen_program(cfg, index)
        measured = data_loaded_per_level(p)
        for level in range(len(p.iterators)):
            assert measured[level] == distinct_subtuple_loads(p, level), (index, level)


def _per_access_data_loaded(sp) -> list[int]:
    """data_loaded_per_level as one pass per Load access, before the
    accesses' iterator sets were memoized per program."""
    level_by_name = {it.name: pos for pos, it in enumerate(sp.loops)}
    extent_by_name = {it.name: it.extent for it in sp.loops}
    out = [0] * MAX_DEPTH
    for acc in load_accesses(sp.base):
        used: set[str] = set()
        for it_name in acc.iterator_names:
            used |= {name for name, _ in sp.index_exprs[it_name].terms}
        levels = sorted(level_by_name[name] for name in used)
        for lvl in range(sp.depth):
            deeper = [sp.loops[k].name for k in levels if k >= lvl]
            if deeper:
                out[lvl] += math.prod(extent_by_name[name] for name in deeper)
    return out


def test_data_loaded_matches_per_access_loop():
    cfg = GenConfig(seed=99)
    shared = 0
    for index in range(150):
        p = gen_program(cfg, index)
        sets = load_iterator_sets(p)
        assert load_iterator_sets(p) is sets                  # memoized per program
        assert sum(n for _, n in sets) == len(load_accesses(p))
        shared += any(n > 1 for _, n in sets)
        for sp in gen_schedules(cfg, p):
            assert data_loaded_per_level(sp) == _per_access_data_loaded(sp)
    assert shared         # some program has two loads with the same iterators


def test_rgb_gray_level_y_small():
    assert data_loaded_per_level(rgb_gray(4))[1] == 12


# --- extraction ------------------------------------------------------------------

def test_extract_features_unscheduled(matmul4):
    fv = extract_features(matmul4)
    assert fv.depth == 3
    assert fv.span == (4, 4, 4, 0, 0, 0, 0)
    assert fv.load_count == 3
    assert fv.store_count == 1
    assert fv.leaf_count == 3
    assert (fv.add_count, fv.sub_count, fv.mul_count, fv.div_count) == (1, 0, 1, 0)
    assert fv.tile_applied == (0,) * 7
    assert fv.interchange_applied == 0
    assert fv.parallel_flag == (0,) * 7


def test_features_reflect_schedule(matmul4):
    sp = schedule_program(matmul4, [Tile2(0, 1, 2, 2), Parallelize(0)])
    fv = extract_features(sp)
    assert fv.depth == 5
    assert fv.span == (2, 2, 2, 2, 4, 0, 0)
    assert fv.tile_applied == (1, 1, 1, 1, 0, 0, 0)
    assert fv.tile_factor == (2, 2, 2, 2, 0, 0, 0)
    assert fv.parallel_flag == (1, 0, 0, 0, 0, 0, 0)
    # data_loaded recomputed from the transformed nest, not stale
    assert fv.data_loaded != extract_features(matmul4).data_loaded
    assert fv.data_loaded[0] == 3 * 4 * 4   # all loads vary below the outermost block


def test_depth_exceeds_max_rejected():
    p = make_program("deep", [(f"i{k}", 2) for k in range(4)], Constant(1.0),
                     tuple(f"i{k}" for k in range(4)), [])
    sp = schedule_program(p, [Tile2(0, 1, 2, 2), Tile2(2, 3, 2, 2)])
    with pytest.raises(UnrollTunerError, match="^nest depth 8 exceeds 7 after tiling$"):
        extract_features(sp)


def test_unroll_never_in_features(vecadd):
    from unroll_tuner.schedule import apply_unroll
    sp = new_schedule(vecadd)
    assert extract_features(apply_unroll(sp, 8)) == extract_features(sp)


# --- scaler ------------------------------------------------------------------------

def test_constant_columns_dropped():
    rows = [[1.0, 2.0, 5.0], [1.0, 3.0, 6.0], [1.0, 4.0, 7.0]]
    scaler = fit_scaler(rows, ScalerMode.Standardize)
    assert 0 in scaler.dropped_columns
    assert scaler.output_width == 2


def test_standardize_train_statistics():
    rng = np.random.default_rng(0)
    rows = rng.uniform(0, 50, size=(40, len(FEATURE_COLUMNS)))
    scaler = fit_scaler(rows.tolist())
    out = scaler.transform_matrix(rows.tolist())
    assert np.abs(out.mean(axis=0)).max() < 1e-9
    assert np.abs(out.std(axis=0) - 1.0).max() < 1e-9


def test_transform_matches_hand_computed():
    rows = [[2.0, 10.0], [4.0, 20.0], [6.0, 30.0]]
    scaler = fit_scaler(rows)
    mean = [4.0, 20.0]
    std = [math.sqrt(8 / 3), math.sqrt(200 / 3)]
    got = scaler.transform([2.0, 10.0])
    assert got == pytest.approx([(2 - mean[0]) / std[0], (10 - mean[1]) / std[1]], abs=1e-12)


def test_normalize_mode():
    rows = [[0.0, 5.0], [10.0, 5.0], [5.0, 5.0]]
    scaler = fit_scaler(rows, ScalerMode.Normalize)
    assert scaler.dropped_columns == (1,)
    assert scaler.transform([10.0, 5.0])[0] == 1.0
    assert scaler.transform([0.0, 5.0])[0] == 0.0


def test_rescale_columns_divided_before_fit(matmul4):
    fv = extract_features(mmxm(256))
    rows = [fv.to_list(), extract_features(mmxm(128)).to_list()]
    scaler = fit_scaler(rows)
    for col in RESCALE_COLUMNS:
        assert col in scaler.rescaled_columns
    # a data_loaded stat reflects the /1000: 3*256^2 / 1000 vs raw
    col = RESCALE_COLUMNS[0]
    assert scaler.stat_a[col] == pytest.approx((3 * 256**2 / 1000 + 3 * 128**2 / 1000) / 2)


@pytest.mark.parametrize("mode", list(ScalerMode))
def test_transform_bits_match_dividing_only_the_rescaled_columns(mode):
    """The pre-divisor is exactly 1 outside the rescaled columns, so the
    transform has the bits of dividing those columns alone, also for a
    scaler that rescales no column."""
    rng = np.random.default_rng(4)
    rows = rng.integers(0, 10**6, size=(60, len(FEATURE_COLUMNS))).astype(np.float64)
    rows[:, 3] = 7.0                                   # a dropped constant column
    fitted = fit_scaler(rows[:40].tolist(), mode)
    for scaler in (fitted, replace(fitted, rescaled_columns=())):
        x = rows.copy()
        x[:, list(scaler.rescaled_columns)] /= RESCALE_DIVISOR
        a, b = np.array(scaler.stat_a), np.array(scaler.stat_b)
        spread = b if mode is ScalerMode.Standardize else b - a
        expected = ((x - a) / np.where(spread == 0.0, 1.0, spread))[
            :, [c for c in range(x.shape[1]) if c not in scaler.dropped_columns]]
        assert scaler.transform_matrix(rows.tolist()).tobytes() == expected.tobytes()


@pytest.mark.parametrize("mode", list(ScalerMode))
def test_transform_row_bits_match_transform_matrix(mode):
    """A row stays 1-D through the scaler and gets a batch row's bits."""
    rng = np.random.default_rng(6)
    rows = rng.integers(0, 10**6, size=(50, len(FEATURE_COLUMNS))).astype(np.float64)
    rows[:, 8] = 3.0                                   # a dropped constant column
    scaler = fit_scaler(rows[:30].tolist(), mode)
    for row in rows.astype(int).tolist():              # integer cells, as FeatureVector gives
        got = scaler.transform(row)
        assert got.shape == (scaler.output_width,)
        assert got.tobytes() == scaler.transform_matrix([row])[0].tobytes()
    with pytest.raises(UnrollTunerError, match="^expected 45 columns, got 44$"):
        scaler.transform(rows[0, :-1].tolist())
    with pytest.raises(ValueError):
        scaler.transform(rows[:2].tolist())


def test_empty_training_set():
    with pytest.raises(UnrollTunerError, match="^cannot fit a scaler on an empty training set$"):
        fit_scaler([])


@pytest.mark.parametrize("mode", list(ScalerMode))
def test_column_whose_values_all_agree_is_dropped(mode):
    """Copies of one sample: a rescaled load column's float std is not
    exactly 0, but its extremes agree, so it is dropped in both modes."""
    row = extract_features(mmxm(64)).to_list()
    rows = [row[:-1] + [k % 2] for k in range(12)]      # only the last column varies
    assert np.std(np.array(rows, dtype=np.float64)[:, 8] / RESCALE_DIVISOR) != 0.0
    scaler = fit_scaler(rows, mode)
    assert scaler.output_width == 1
    assert scaler.dropped_columns == tuple(range(len(FEATURE_COLUMNS) - 1))


def test_no_varying_column_is_an_error():
    row = extract_features(mmxm(64)).to_list()
    for mode in ScalerMode:
        with pytest.raises(UnrollTunerError, match="^no feature column varies"):
            fit_scaler([row] * 12, mode)


# --- CSV rows ------------------------------------------------------------------------

def test_header_shape():
    assert CSV_HEADER.startswith("depth,span0")
    assert CSV_HEADER.endswith("par6,label")
    assert len(CSV_HEADER.split(",")) == len(FEATURE_COLUMNS) + 1 == 46


def test_header_literal():
    assert CSV_HEADER == (
        "depth,span0,span1,span2,span3,span4,span5,span6,"
        "load0,load1,load2,load3,load4,load5,load6,"
        "loads,stores,leaves,add,sub,mul,div,dtype,"
        "tile0,tile1,tile2,tile3,tile4,tile5,tile6,"
        "tilef0,tilef1,tilef2,tilef3,tilef4,tilef5,tilef6,"
        "interch,par0,par1,par2,par3,par4,par5,par6,label"
    )
    # the data-loaded columns are the ones rescaled before the scaler fit
    assert RESCALE_COLUMNS == tuple(range(8, 15))


def test_encode_final_field_is_label(matmul4):
    row = encode_csv_row(extract_features(matmul4), 16)
    assert row.split(",")[-1] == "16"


def test_encode_parse_roundtrip(matmul4, tmp_path):
    fv = extract_features(schedule_program(matmul4, [Tile2(0, 1, 2, 2)]))
    path = str(tmp_path / "corpus.csv")
    save_csv([LabeledSample(fv, 8)], path)
    loaded = load_csv(path)
    assert loaded.x.tolist() == [fv.to_list()]
    assert loaded.y.tolist() == [8]


def test_label_not_in_class_set(matmul4):
    with pytest.raises(UnrollTunerError, match=r"^label 5 not in \(0, 2, 4"):
        encode_csv_row(extract_features(matmul4), 5)
