from __future__ import annotations

import numpy as np
import pytest

from unroll_tuner.featurize import MAX_DEPTH
from unroll_tuner.generator import GenConfig, gen_program, gen_schedules, generate
from unroll_tuner.ir import Constant, walk_expr, validate_program
from unroll_tuner.rng import SplitMix64
from unroll_tuner.schedule import validate_schedule


def test_splitmix_reference_sequence():
    # splitmix64(seed=0) reference outputs (Steele et al. constants)
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix_streams_independent():
    a = [SplitMix64.stream(1, 0).next_u64() for _ in range(4)]
    b = [SplitMix64.stream(1, 1).next_u64() for _ in range(4)]
    assert a != b
    assert a == [SplitMix64.stream(1, 0).next_u64() for _ in range(4)]


@pytest.mark.parametrize("seed", [0, 99, 2**63, 2**64 - 1, 0xDEADBEEFCAFEF00D])
@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_uniform_array_matches_scalar_draws(seed, n):
    vec, scalar = SplitMix64(seed), SplitMix64(seed)
    got = vec.uniform_array(n, -0.25, 0.75)
    expected = np.array([scalar.uniform(-0.25, 0.75) for _ in range(n)], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == expected.tobytes()
    assert vec.next_u64() == scalar.next_u64()


def test_same_seed_index_identical_program():
    cfg = GenConfig(seed=7)
    assert gen_program(cfg, 3) == gen_program(cfg, 3)
    assert gen_program(cfg, 3) != gen_program(cfg, 4)


def test_generated_programs_all_validate():
    cfg = GenConfig(seed=42)
    for index in range(1000):
        report = validate_program(gen_program(cfg, index))
        assert report.ok, (index, report.violations)


def test_depth_range_respected():
    cfg = GenConfig(seed=1, depth_range=(2, 2))
    assert all(len(gen_program(cfg, i).iterators) == 2 for i in range(50))


def test_load_heavy_bias():
    from unroll_tuner.ir import Access

    cfg = GenConfig(seed=9)
    loads = consts = 0
    for index in range(200):
        for node in walk_expr(gen_program(cfg, index).body):
            if isinstance(node, Constant):
                consts += 1
            elif isinstance(node, Access):
                loads += 1
    assert loads >= consts


def test_schedules_count_and_empty_first(matmul4):
    cfg = GenConfig(seed=3, schedules_per_program=10)
    schedules = gen_schedules(cfg, matmul4)
    assert len(schedules) == 10
    assert schedules[0].applied == ()
    assert all(validate_schedule(sp).ok for sp in schedules)


def test_no_transforms_allowed_gives_empty_schedules(matmul4):
    cfg = GenConfig(seed=3, allowed_transforms=())
    schedules = gen_schedules(cfg, matmul4)
    assert all(sp.applied == () for sp in schedules)


def test_tile_factors_are_powers_of_two():
    cfg = GenConfig(seed=13)
    for index in range(100):
        p = gen_program(cfg, index)
        for sp in gen_schedules(cfg, p):
            for name, f in sp.tile_factors.items():
                assert 2 <= f <= 128 and (f & (f - 1)) == 0


def test_class_conformance_depth_and_unroll_absent():
    cfg = GenConfig(seed=21)
    for index in range(100):
        p = gen_program(cfg, index)
        for sp in gen_schedules(cfg, p):
            assert sp.depth <= MAX_DEPTH
            assert sp.unroll == 0


def test_corpus_is_pure_function_of_seed():
    from unroll_tuner.textfmt import program_to_text

    def corpus(seed):
        cfg = GenConfig(seed=seed)
        return [
            program_to_text(p, sp.applied)
            for p, schedules in generate(cfg, 10)
            for sp in schedules
        ]

    assert corpus(5) == corpus(5)
    assert corpus(5) != corpus(6)


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(depth_range=(0, 3))
    with pytest.raises(ValueError):
        GenConfig(depth_range=(1, 5))
    with pytest.raises(ValueError):
        GenConfig(extent_choices=(3,))
    with pytest.raises(ValueError):
        GenConfig(schedules_per_program=0)
    with pytest.raises(ValueError):
        GenConfig(allowed_transforms=("skew",))
