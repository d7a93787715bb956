import hashlib
import itertools
import json

import numpy as np
import pytest

from aded import DomainError, ShapeError, analytic_front, lookup
from aded.benchmarks import (
    BATTERY_IDS,
    BenchmarkSpec,
    CATALOG,
    MULTI_OBJECTIVE,
    SINGLE_OBJECTIVE,
    UnknownBenchmarkError,
)
from aded.harness import cmd_list_benchmarks
from aded.moo import pareto_dominates

# test_catalog_digest, recorded before single- and multi-objective functions
# shared one spec class; re-recorded when the dltz1 front became a triangular
# lattice of distinct points
CATALOG_DIGEST = "0ba788ba3893781e7c920344e9b1cbc091e3fa94887a8df37aaa63979ae09fdf"


def grid_min(spec, points_per_axis=101):
    """Brute-force oracle: exhaustive scan over an axis-aligned grid, as one
    batch (a row has the same value alone and in any batch)."""
    space = spec.space()
    assert space.dim in (1, 2)
    axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in space.as_pairs()]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, space.dim)
    return float(spec.evaluate(grid).min())


class TestCatalog:
    def test_counts(self):
        assert len(BATTERY_IDS) == 22
        assert set(SINGLE_OBJECTIVE) - set(BATTERY_IDS) == {"sphere", "sinusoidal"}
        assert set(MULTI_OBJECTIVE) == {"zdt1", "zdt2", "dltz1", "mo_demo"}

    def test_lookup_known(self):
        spec = lookup("rastrigin")
        space = spec.space()
        assert (space.lows == -5.12).all() and (space.highs == 5.12).all()
        assert lookup("eggholder").known_optimum == pytest.approx(-959.6407)

    def test_lookup_unknown_lists_ids(self):
        with pytest.raises(UnknownBenchmarkError, match="rastrigin"):
            lookup("zdt99")

    def test_optimum_attainment_for_every_argmin(self):
        for benchmark_id, spec in SINGLE_OBJECTIVE.items():
            assert spec.known_optimum is not None, benchmark_id
            assert spec.argmin_examples, benchmark_id
            for argmin in spec.argmin_examples:
                value = spec.evaluate(argmin)
                assert value == pytest.approx(spec.known_optimum, abs=1e-4), (
                    f"{benchmark_id} at {argmin} gave {value}"
                )

    def test_grid_never_beats_stated_optimum(self):
        for benchmark_id, spec in SINGLE_OBJECTIVE.items():
            observed = grid_min(spec)
            assert observed >= spec.known_optimum - 1e-6, benchmark_id

    def test_catalog_digest(self):
        """One sha256 over what the catalog says about each function: the
        listing's kind, dim_rule, default dim and optimum, the argmins, the
        box at the default dim and at each dim 1-8 (or the error a refused
        dim raises), and the analytic front at k = 7 (or its error)."""
        listing = {e["id"]: e for e in json.loads(cmd_list_benchmarks("json"))}
        digest = hashlib.sha256()
        for benchmark_id, spec in CATALOG.items():
            e = listing[benchmark_id]
            digest.update(repr((benchmark_id, e["kind"], e["dim_rule"], e["dim"],
                                e["optimum"])).encode())
            for argmin in getattr(spec, "argmin_examples", []):
                digest.update(argmin.tobytes())
            for dim in (None, *range(1, 9)):
                try:
                    space = spec.space(dim)
                except Exception as exc:
                    digest.update(f"{dim}:{type(exc).__name__}".encode())
                else:
                    digest.update(space.lows.tobytes() + space.highs.tobytes())
            try:
                digest.update(analytic_front(benchmark_id, 7).tobytes())
            except Exception as exc:
                digest.update(type(exc).__name__.encode())
        assert digest.hexdigest() == CATALOG_DIGEST


class TestPointValues:
    def test_rastrigin_origin(self):
        assert lookup("rastrigin").evaluate([0.0, 0.0]) == 0.0

    def test_ackley_origin(self):
        assert lookup("ackley").evaluate([0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_mccormick(self):
        value = lookup("mccormick").evaluate([-0.54719, -1.54719])
        assert value == pytest.approx(-1.9133, abs=1e-4)

    def test_goldstein_price(self):
        assert lookup("goldstein_price").evaluate([0.0, -1.0]) == pytest.approx(3.0, abs=1e-9)

    def test_sinusoidal(self):
        assert lookup("sinusoidal").evaluate([-np.pi / 2, -np.pi / 2]) == pytest.approx(-2.0)

    def test_sphere_any_dim(self):
        assert lookup("sphere").evaluate([1.0, 2.0, 3.0]) == 14.0

    def test_rosenbrock_chain(self):
        assert lookup("rosenbrock").evaluate([1.0, 1.0, 1.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            lookup("booth").evaluate([1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            lookup("rosenbrock").evaluate([1.0])

    def test_non_finite_input(self):
        with pytest.raises(DomainError):
            lookup("sphere").evaluate([np.nan, 0.0])

    def test_out_of_bounds_probe_is_allowed(self):
        # engines probe near edges before repair; evaluators must stay total
        assert np.isfinite(lookup("eggholder").evaluate([600.0, -600.0]))


class TestSymmetry:
    @pytest.mark.parametrize("benchmark_id", ["sphere", "rastrigin", "ackley", "matyas", "drop_wave"])
    def test_coordinate_permutation_invariance(self, benchmark_id):
        rng = np.random.default_rng(3)
        space = lookup(benchmark_id).space()
        for _ in range(25):
            x = rng.uniform(space.lows, space.highs)
            assert lookup(benchmark_id).evaluate(x) == pytest.approx(
                lookup(benchmark_id).evaluate(x[::-1]), rel=1e-12, abs=1e-12
            )


class TestMultiObjective:
    def test_zdt1_anchor_points(self):
        n = 30
        assert lookup("zdt1").evaluate(np.zeros(n)).tolist() == [0.0, 1.0]
        x = np.zeros(n)
        x[0] = 1.0
        assert lookup("zdt1").evaluate(x).tolist() == [1.0, 0.0]

    def test_zdt1_all_ones(self):
        # g = 1 + 9*29/29 = 10, f2 = 10 - sqrt(10)
        objs = lookup("zdt1").evaluate(np.ones(30))
        assert objs[0] == 1.0
        assert objs[1] == pytest.approx(10.0 - np.sqrt(10.0), rel=1e-12)

    def test_zdt2_midpoint(self):
        front = analytic_front("zdt2", 3)
        assert front[1].tolist() == [0.5, 0.75]

    def test_zdt1_front_endpoints(self):
        front = analytic_front("zdt1", 2)
        assert front.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_dltz1_front_sums_to_half(self):
        front = analytic_front("dltz1", 210)
        assert front.shape == (210, 3)
        assert np.allclose(front.sum(axis=1), 0.5, atol=1e-12)

    @pytest.mark.parametrize("k", [7, 210, 1000])
    def test_dltz1_front_distinct_with_its_vertices_and_no_gap(self, k):
        front = analytic_front("dltz1", k)
        assert front.shape == (k, 3)
        assert len(np.unique(front, axis=0)) == k
        assert (front >= 0.0).all()
        assert np.allclose(front.sum(axis=1), 0.5, atol=1e-12)
        assert {tuple(v) for v in 0.5 * np.eye(3)} <= {tuple(p) for p in front}
        # every point of the smallest triangular lattice of order n with k
        # points lies within one lattice spacing of the front
        n = next(n for n in range(1, k) if (n + 1) * (n + 2) // 2 >= k)
        i, j = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n)
        lattice = 0.5 * np.column_stack([i, j, n - i - j]) / n
        gaps = np.sqrt(((lattice[:, None, :] - front[None]) ** 2).sum(axis=-1)).min(axis=1)
        assert gaps.max() <= 0.5 * np.sqrt(2.0) / n * (1 + 1e-9)

    def test_dltz1_optimum_surface(self):
        # tail variables at 0.5 zero out the distance term
        x = np.array([0.3, 0.7, 0.5, 0.5, 0.5, 0.5, 0.5])
        objs = lookup("dltz1").evaluate(x)
        assert objs.sum() == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("benchmark_id", ["zdt1", "zdt2", "dltz1"])
    def test_fronts_mutually_nondominated(self, benchmark_id):
        front = analytic_front(benchmark_id, 64)
        for i in range(len(front)):
            for j in range(len(front)):
                if i != j:
                    assert not pareto_dominates(front[i], front[j])

    def test_front_for_unsupported_id(self):
        with pytest.raises(UnknownBenchmarkError):
            analytic_front("mo_demo", 10)
        with pytest.raises(UnknownBenchmarkError):
            analytic_front("sphere", 10)

    def test_mo_demo_shape(self):
        objs = lookup("mo_demo").evaluate([0.0, 0.0])
        assert objs.shape == (2,)


class TestForresterDerivedMinimum:
    def test_dense_scan_confirms_stored_argmin(self):
        spec = lookup("forrester")
        xs = np.linspace(0.0, 1.0, 100001)
        values = (6 * xs - 2) ** 2 * np.sin(12 * xs - 4)
        assert values.min() >= spec.known_optimum - 1e-6
        assert abs(xs[values.argmin()] - spec.argmin_examples[0][0]) < 1e-4


class TestDeVilliersGlasser02Variant:
    def test_grid_oracle_confirms_boundary_minimum(self):
        spec = lookup("devilliersglasser02")
        assert grid_min(spec) == pytest.approx(74.0)
        assert spec.evaluate([1.0, 1.0]) == 74.0


def probe_points(spec, seed, n_inside=1000):
    """Seeded points inside the box, up to 16 box corners, and the inside
    points scaled by 3 (mostly outside the box, where probes may land)."""
    space = spec.space()
    rng = np.random.default_rng(seed)
    inside = rng.uniform(space.lows, space.highs, size=(n_inside, space.dim))
    corners = np.array([np.where(bits, space.highs, space.lows)
                        for bits in itertools.islice(itertools.product((0, 1), repeat=space.dim), 16)])
    return np.vstack([inside, corners, 3.0 * inside])


# sha256 prefixes of the one-point values at probe_points(spec, i), with i
# the catalog position, recorded from the one-point-at-a-time evaluators
# that preceded the batch protocol. The 11 functions whose values moved in
# the last bit when their powers became NumPy array powers were re-recorded
# then: bukin_n6, cross_in_tray, levy_n13, himmelblau, matyas,
# three_hump_camel, six_hump_camel, beale, goldstein_price,
# devilliersglasser02 and mo_demo.
ONE_POINT_VALUES = {
    "sphere": "48c8c0ca38fa6a5266af0b3c",
    "sinusoidal": "779e0cc416b2a9afe489f464",
    "ackley": "c5ae21efc052737cad0dea7c",
    "bukin_n6": "a60de6fdd083cef68b30dbb6",
    "rastrigin": "c7ec38661c1e3ce6d9c41956",
    "cross_in_tray": "23d98724007809d280b412d4",
    "levy_n13": "e16fddbec8467703b20bbfd2",
    "eggholder": "b6f7e221bcb02d657aa1be0f",
    "schaffer_n2": "0c59becb30bbb867afbdc65f",
    "schwefel": "131458644838ac7579fb8a4b",
    "shubert": "2c2c7bb80bab23936669592e",
    "drop_wave": "500b6fda7114fe07e6380410",
    "himmelblau": "4c1c75cfcd987a794fa746c2",
    "booth": "d7359587ae3c749733101cfa",
    "matyas": "c9ec232afd6ea3cf414c308c",
    "mccormick": "19366a86f54c29db26ea846a",
    "three_hump_camel": "374c0f9f56584389d99d36ac",
    "six_hump_camel": "bfd5965ba1b34cc81a08510f",
    "rosenbrock": "d6a9ed31d41e27dcea8d246b",
    "dixon_price": "3184f1d20a841006b8319090",
    "beale": "cb62e562a0183b6725b46720",
    "goldstein_price": "ab9496a45738dc0303c99e9c",
    "forrester": "139c86d5d251cb37936f0725",
    "devilliersglasser02": "073cae2a1a7fa193da073939",
    "zdt1": "1fa608dc26e5221bbb4cd5b3",
    "zdt2": "ca0ca9e8093350ff7ad4cc7e",
    "dltz1": "d052b536efd1adebb6bf9539",
    "mo_demo": "18ab2a239e5e694d851e3ff8",
}


class TestBatchEvaluation:
    @pytest.mark.parametrize("position,benchmark_id", list(enumerate(CATALOG)))
    def test_one_point_values_unchanged(self, position, benchmark_id):
        spec = CATALOG[benchmark_id]
        values = np.array([spec.evaluate(x) for x in probe_points(spec, position)], dtype=float)
        digest = hashlib.sha256(values.tobytes()).hexdigest()[:24]
        assert digest == ONE_POINT_VALUES[benchmark_id]

    @pytest.mark.parametrize("position,benchmark_id", list(enumerate(CATALOG)))
    def test_batch_rows_equal_one_point_calls(self, position, benchmark_id):
        spec = CATALOG[benchmark_id]
        points = probe_points(spec, 100 + position, n_inside=200)
        batch = spec.evaluate(points)
        rows = np.array([spec.evaluate(x) for x in points], dtype=float)
        assert batch.shape == rows.shape
        assert batch.tobytes() == rows.tobytes()

    def test_batch_shapes_and_marker(self):
        for spec in CATALOG.values():
            assert spec.evaluate.batched is True
            points = probe_points(spec, 0, n_inside=3)
            expected = (len(points),) if spec.n_objectives == 1 else (len(points), spec.n_objectives)
            assert spec.evaluate(points).shape == expected
        assert isinstance(lookup("sphere").evaluate([1.0, 2.0]), float)
        assert lookup("zdt1").evaluate(np.zeros(30)).shape == (2,)

    @pytest.mark.parametrize("benchmark_id,width", [("booth", 3), ("rosenbrock", 1), ("dltz1", 6)])
    def test_wrong_batch_width(self, benchmark_id, width):
        with pytest.raises(ShapeError):
            lookup(benchmark_id).evaluate(np.zeros((4, width)))

    def test_space_and_evaluate_share_the_width_rule(self):
        for benchmark_id, good, bad in (("dltz1", 7, 5), ("zdt1", 5, 1), ("booth", 2, 3),
                                        ("rosenbrock", 3, 1)):
            spec = lookup(benchmark_id)
            assert spec.space(good).dim == good
            assert np.all(np.isfinite(spec.evaluate(np.full(good, 0.5))))
            with pytest.raises(ShapeError):
                spec.space(bad)
            with pytest.raises(ShapeError):
                spec.evaluate(np.full(bad, 0.5))

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ShapeError):
            lookup("sphere").evaluate(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("benchmark_id", ["sphere", "zdt1"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row(self, benchmark_id, bad):
        spec = lookup(benchmark_id)
        points = np.zeros((5, spec.dim))
        points[3, 1] = bad
        with pytest.raises(DomainError, match="row 3"):
            spec.evaluate(points)

    def test_evaluator_with_wrong_batch_output(self):
        spec = BenchmarkSpec("scalar_only", lambda x: 1.0, "fixed-2d", ((0.0, 1.0), (0.0, 1.0)))
        # a point is evaluated as a one-row batch, so it fails like a batch does
        with pytest.raises(ShapeError):
            spec.evaluate([0.5, 0.5])
        with pytest.raises(ShapeError):
            spec.evaluate(np.zeros((3, 2)))
