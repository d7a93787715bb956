import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aded import (
    ConfigError,
    RngStream,
    SearchSpace,
    ShapeError,
    SpaceError,
    clip_to_bounds,
    init_population,
)
from aded.benchmarks import BATTERY_IDS, lookup


class TestSearchSpace:
    def test_basic_properties(self):
        space = SearchSpace.cube(-1.0, 1.0, 2)
        assert space.dim == 2
        assert space.diagonal() == pytest.approx(np.sqrt(8.0))
        assert space.contains([0.0, 0.0])
        assert not space.contains([0.0, 1.5])

    def test_degenerate_width_rejected(self):
        with pytest.raises(SpaceError):
            SearchSpace(np.array([0.0, 0.0]), np.array([0.0, 1.0]))

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(SpaceError):
            SearchSpace(np.array([0.0]), np.array([1.0, 2.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(SpaceError):
            SearchSpace(np.array([0.0]), np.array([np.inf]))


class TestRngStream:
    def test_identical_seed_identical_sequence(self):
        a = RngStream(42).random(100)
        b = RngStream(42).random(100)
        assert (a == b).all()

    def test_pinned_first_draws(self):
        # regression pin: the stream must be stable across platforms/releases
        expected = {
            0: [0.014067035665647709, 0.2577672456246177, 0.47156538101528966,
                0.0914196711073687, 0.9791345000654033, 0.25608390326933783,
                0.9355927732570025, 0.190052634671396],
            7: [0.46881748695593284, 0.42614583623918467, 0.3629817008336008,
                0.23735390900821418, 0.1387354645954474, 0.5119864514475558,
                0.30276261687107764, 0.9859501081563495],
            123456789: [0.5612297928721389, 0.9733538579378513, 0.7687918518749585,
                        0.9997772187558118, 0.7034768319793396, 0.7683283329881369,
                        0.7337396113130942, 0.5506659604172909],
        }
        for seed, draws in expected.items():
            assert RngStream(seed).random(8).tolist() == draws


class TestInitPopulation:
    def test_bounds_containment(self):
        space = SearchSpace.cube(-1.0, 1.0, 2)
        x = init_population(space, 4, RngStream(7))
        assert x.shape == (4, 2)
        for row in x:
            assert space.contains(row)

    def test_too_small_population_rejected(self):
        with pytest.raises(ConfigError):
            init_population(SearchSpace.cube(-1.0, 1.0, 2), 3, RngStream(0))

    def test_seeded_runs_bitwise_identical(self):
        space = SearchSpace.cube(-5.0, 5.0, 3)
        a = init_population(space, 10, RngStream(42))
        b = init_population(space, 10, RngStream(42))
        assert (a == b).all()

    def test_inside_bounds_for_whole_battery(self):
        for benchmark_id in BATTERY_IDS:
            space = lookup(benchmark_id).space()
            x = init_population(space, 8, RngStream(11))
            assert (x >= space.lows).all() and (x <= space.highs).all(), benchmark_id


class TestClipToBounds:
    def test_identity_inside(self):
        space = SearchSpace.cube(0.0, 1.0, 1)
        assert clip_to_bounds([0.5], space).tolist() == [0.5]

    def test_clamps_both_ends(self):
        space = SearchSpace.cube(-1.0, 1.0, 2)
        assert clip_to_bounds([2.0, -3.0], space).tolist() == [1.0, -1.0]

    def test_boundary_is_feasible(self):
        space = SearchSpace.cube(0.0, 1.0, 1)
        assert clip_to_bounds([1.0], space).tolist() == [1.0]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            clip_to_bounds([1.0, 2.0], SearchSpace.cube(0.0, 1.0, 1))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
    @settings(max_examples=50)
    def test_idempotent(self, values):
        space = SearchSpace.cube(-2.0, 3.0, 3)
        once = clip_to_bounds(values, space)
        assert (clip_to_bounds(once, space) == once).all()


class TestPublicSurface:
    def test_every_exported_name_resolves_and_none_is_a_module(self):
        import aded

        assert len(aded.__all__) == len(set(aded.__all__))
        modules = [name for name in aded.__all__
                   if isinstance(getattr(aded, name), types.ModuleType)]
        assert modules == []
