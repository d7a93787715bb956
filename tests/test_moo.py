import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aded import (
    ConfigError,
    DomainError,
    EngineConfig,
    LocalSearchBudget,
    ScheduleParams,
    SearchSpace,
    ShapeError,
    nondominated_filter,
    pareto_dominates,
    run_aded_mo,
    scalarize,
)
from aded import moo
from aded.benchmarks import lookup
from aded.moo import _admit, _archive_add

objective_vectors = st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=2)


class TestParetoDominates:
    def test_strictly_better_everywhere(self):
        assert pareto_dominates([1.0, 2.0], [2.0, 3.0])

    def test_incomparable(self):
        assert not pareto_dominates([1.0, 3.0], [3.0, 1.0])
        assert not pareto_dominates([3.0, 1.0], [1.0, 3.0])

    def test_equal_vectors_do_not_dominate(self):
        assert not pareto_dominates([1.0, 2.0], [1.0, 2.0])

    def test_weak_improvement_suffices(self):
        assert pareto_dominates([1.0, 2.0], [1.0, 2.5])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pareto_dominates([1.0], [1.0, 2.0])

    @given(objective_vectors)
    @settings(max_examples=60)
    def test_irreflexive(self, a):
        assert not pareto_dominates(a, a)

    @given(objective_vectors, objective_vectors)
    @settings(max_examples=120)
    def test_asymmetric(self, a, b):
        if pareto_dominates(a, b):
            assert not pareto_dominates(b, a)

    @given(objective_vectors, objective_vectors, objective_vectors)
    @settings(max_examples=200)
    def test_transitive(self, a, b, c):
        if pareto_dominates(a, b) and pareto_dominates(b, c):
            assert pareto_dominates(a, c)


class TestScalarize:
    def test_weighted_sum(self):
        assert scalarize([2.0, 4.0], [0.5, 0.5]) == 3.0

    def test_identity_weight(self):
        assert scalarize([7.25], [1.0]) == 7.25

    def test_zero_weights_rejected(self):
        with pytest.raises(ConfigError):
            scalarize([1.0, 2.0], [0.0, 0.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            scalarize([1.0, 2.0], [0.5, -0.5])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            scalarize([1.0, 2.0], [1.0])

    @given(objective_vectors, objective_vectors)
    @settings(max_examples=120)
    def test_preserves_dominance_direction(self, a, b):
        weights = [0.3, 0.7]
        if pareto_dominates(a, b):
            assert scalarize(a, weights) <= scalarize(b, weights)


def brute_force_front(points):
    points = np.asarray(points, dtype=float)
    keep = []
    for i, p in enumerate(points):
        dominated = any(
            pareto_dominates(q, p) for j, q in enumerate(points) if j != i
        )
        if not dominated:
            keep.append(i)
    return keep


class TestNondominatedFilter:
    def test_singleton(self):
        assert nondominated_filter([[1.0, 2.0]]).tolist() == [0]

    def test_three_point_example(self):
        idx = nondominated_filter([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0]])
        assert idx.tolist() == [0, 1]

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pts = rng.uniform(0, 1, size=(50, 2))
            assert nondominated_filter(pts).tolist() == brute_force_front(pts)

    def test_three_objectives(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, size=(40, 3))
        assert nondominated_filter(pts).tolist() == brute_force_front(pts)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(60, 2))
        first = nondominated_filter(pts)
        again = nondominated_filter(pts[first])
        assert again.tolist() == list(range(first.size))

    def test_duplicates_survive(self):
        idx = nondominated_filter([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert idx.tolist() == [0, 1]


class TestAdmission:
    def test_later_dominating_trial_does_not_evict(self):
        assert _admit(np.array([[2.0, 2.0], [1.0, 1.0]])).tolist() == [True, True]

    def test_trial_dominated_by_earlier_admitted_is_refused(self):
        assert _admit(np.array([[1.0, 1.0], [2.0, 2.0]])).tolist() == [True, False]

    def test_trial_dominated_only_by_a_refused_trial_is_refused(self):
        # trial 1 is refused (trial 0 dominates it); trial 2 is refused
        # because trial 0 dominates it too
        objs = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert _admit(objs).tolist() == [True, False, False]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, 3), min_size=k, max_size=k), min_size=1, max_size=12)))
    def test_matches_sequential_admission(self, rows):
        # small integer objectives make ties, duplicates and chains common
        objs = np.array(rows, dtype=float)
        admitted = []
        for i, o in enumerate(objs):
            admitted.append(not any(admitted[j] and pareto_dominates(objs[j], o)
                                    for j in range(i)))
        assert _admit(objs).tolist() == admitted


def sequential_archive(points, objs):
    """One point at a time: refuse a point that an archived point dominates or
    equals; otherwise evict what it dominates and append it."""
    archive = []
    for x, o in zip(points, objs):
        if any((a == o).all() or pareto_dominates(a, o) for _, a in archive):
            continue
        archive = [(v, a) for v, a in archive if not pareto_dominates(o, a)] + [(x, o)]
    return archive


class TestArchive:
    def test_matches_one_at_a_time_insertion(self):
        # small integer objectives make ties, repeats and chains common
        rng = np.random.default_rng(0)
        for k in (1, 2, 3):
            arch_x, arch_obj = np.empty((0, 1)), np.empty((0, k))
            inserted_x, inserted_obj = [], []
            for _ in range(40):
                m = int(rng.integers(1, 8))
                new_obj = rng.integers(0, 4, size=(m, k)).astype(float)
                new_x = rng.uniform(size=(m, 1))
                arch_x, arch_obj = _archive_add(arch_x, arch_obj, new_x, new_obj)
                inserted_x.extend(new_x)
                inserted_obj.extend(new_obj)
                expected = sequential_archive(inserted_x, inserted_obj)
                assert arch_x.tolist() == [v.tolist() for v, _ in expected]
                assert arch_obj.tolist() == [a.tolist() for _, a in expected]

    def test_returned_front_survives_nondominated_filter(self):
        spec = lookup("zdt1")
        result = run_aded_mo(spec.evaluate, spec.space(), mo_cfg(seed=1), [0.5, 0.5])
        objs = np.array([o for _, o in result.front])
        assert nondominated_filter(objs).tolist() == list(range(len(objs)))


def mo_cfg(**kwargs):
    defaults = dict(
        population_size=20,
        max_generations=15,
        seed=0,
        schedule=ScheduleParams(initial_f=1.0, initial_cr=0.9),
        local_search=LocalSearchBudget(enabled=True, max_iterations=5, probability=0.2),
        stagnation_limit=15,
    )
    defaults.update(kwargs)
    return EngineConfig(**defaults)


class TestRunAdedMo:
    def test_zdt1_front_mutually_nondominated(self):
        spec = lookup("zdt1")
        result = run_aded_mo(spec.evaluate, spec.space(), mo_cfg(), [0.5, 0.5])
        front = [objs for _, objs in result.front]
        assert len(front) >= 1
        for i, a in enumerate(front):
            for j, b in enumerate(front):
                if i != j:
                    assert not pareto_dominates(a, b)

    def test_histories_and_counts(self):
        spec = lookup("zdt1")
        calls = 0

        def audited(x):
            nonlocal calls
            calls += 1
            return spec.evaluate(x)

        result = run_aded_mo(audited, spec.space(), mo_cfg(seed=3), [0.5, 0.5])
        assert result.n_evaluations == calls
        assert len(result.front_size_history) >= 1
        assert result.front_size_history[-1] == len(result.front)

    def test_deterministic(self):
        spec = lookup("zdt2")
        a = run_aded_mo(spec.evaluate, spec.space(), mo_cfg(seed=5), [0.5, 0.5])
        b = run_aded_mo(spec.evaluate, spec.space(), mo_cfg(seed=5), [0.5, 0.5])
        assert len(a.front) == len(b.front)
        for (xa, oa), (xb, ob) in zip(a.front, b.front):
            assert (xa == xb).all() and (oa == ob).all()

    def test_pull_pairs_distinct(self, monkeypatch):
        drawn = []
        draw_distinct = moo.draw_distinct

        def recording(*args):
            drawn.append(draw_distinct(*args))
            return drawn[-1]

        monkeypatch.setattr(moo, "draw_distinct", recording)
        spec = lookup("zdt1")
        cfg = mo_cfg(seed=1)
        run_aded_mo(spec.evaluate, spec.space(), cfg, [0.5, 0.5])
        assert drawn
        for pulls in drawn:
            assert pulls.shape == (cfg.population_size, 2)
            assert (pulls[:, 0] != pulls[:, 1]).all()
            assert ((pulls >= 0) & (pulls < cfg.population_size)).all()

    def test_best_scalarized_is_front_minimum(self):
        spec = lookup("zdt1")
        weights = [0.4, 0.6]
        result = run_aded_mo(spec.evaluate, spec.space(), mo_cfg(seed=2), weights)
        values = [scalarize(objs, weights) for _, objs in result.front]
        assert result.best_scalarized[1] == pytest.approx(min(values))

    def test_convex_quadratic_pair_front_on_segment(self):
        # f1 = |x|^2, f2 = |x - c|^2: the Pareto set is the segment [0, c]
        c = np.array([1.0, 1.0])

        def objectives(x):
            return np.array([float(np.sum(x * x)), float(np.sum((x - c) ** 2))])

        space = SearchSpace.cube(-2.0, 2.0, 2)
        cfg = mo_cfg(
            population_size=30,
            max_generations=25,
            stagnation_limit=25,
            local_search=LocalSearchBudget(enabled=True, max_iterations=15, probability=1.0),
            seed=1,
        )
        result = run_aded_mo(objectives, space, cfg, [0.5, 0.5])
        for x, _ in result.front:
            # distance from x to the segment parametrized by t in [0, 1]
            t = np.clip(np.dot(x, c) / np.dot(c, c), 0.0, 1.0)
            assert np.linalg.norm(x - t * c) < 1e-2

    def test_invalid_weights_rejected(self):
        spec = lookup("zdt1")
        for weights in ([0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
            with pytest.raises(ConfigError):
                run_aded_mo(spec.evaluate, spec.space(), mo_cfg(), weights)

    def test_mo_demo_runs(self):
        spec = lookup("mo_demo")
        result = run_aded_mo(spec.evaluate, spec.space(), mo_cfg(seed=4), [0.5, 0.5])
        assert len(result.front) >= 1

    def test_raising_objective_reports_generation(self):
        def raising(x):
            raise ValueError("boom")

        with pytest.raises(DomainError, match=r"generation 0, individual 0: boom"):
            run_aded_mo(raising, SearchSpace.cube(0.0, 1.0, 2), mo_cfg(), [0.5, 0.5])

    def test_non_finite_objective_reports_generation(self):
        def nan_second(x):
            return np.array([float(np.sum(x)), np.nan])

        with pytest.raises(DomainError, match=r"nan.*generation 0"):
            run_aded_mo(nan_second, SearchSpace.cube(0.0, 1.0, 2), mo_cfg(), [0.5, 0.5])
