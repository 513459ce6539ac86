"""SPSA and the quasi-Newton driver."""

import numpy as np
import pytest

from vqemb.optimize import (
    NonFiniteObjectiveError,
    bounded_quasi_newton,
    spsa,
)


def sphere(x):
    return float(np.dot(x, x))


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


# (value, gradient) forms with analytic gradients, for the quasi-Newton driver

def sphere_vg(x):
    return sphere(x), 2.0 * np.asarray(x, dtype=float)


def rosenbrock_vg(x):
    g = np.array([
        -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
        200 * (x[1] - x[0] ** 2),
    ])
    return rosenbrock(x), g


def shifted_square_vg(x):
    return (x[0] - 2) ** 2, np.array([2 * (x[0] - 2)])


class TestSpsa:
    def test_sphere_converges(self):
        best, trace = spsa(sphere, np.ones(3), iterations=100, seed=1)
        assert np.linalg.norm(best) < 0.1

    def test_same_seed_same_trace(self):
        _, t1 = spsa(sphere, np.ones(2), iterations=30, seed=5)
        _, t2 = spsa(sphere, np.ones(2), iterations=30, seed=5)
        assert t1.values == t2.values
        assert t1.iterations == t2.iterations

    def test_returns_best_seen_not_last(self):
        best, trace = spsa(sphere, np.ones(2), iterations=50, seed=2)
        assert sphere(best) == pytest.approx(min(trace.values))

    def test_every_evaluation_recorded(self):
        _, trace = spsa(sphere, np.ones(2), iterations=25, seed=4)
        assert len(trace.values) == 50  # two evaluations per update step
        assert sorted(set(trace.iterations)) == list(range(25))

    def test_non_finite_reported(self):
        def bad(x):
            return float("nan")

        with pytest.raises(NonFiniteObjectiveError):
            spsa(bad, np.ones(2), iterations=5, seed=0)


class TestBoundedQuasiNewton:
    def test_quadratic_minimum(self):
        best, _ = bounded_quasi_newton(shifted_square_vg, [0.0])
        assert best[0] == pytest.approx(2.0, abs=1e-6)

    def test_minimum_far_from_the_start(self):
        # no box: the search walks as far as the minimum lies
        best, _ = bounded_quasi_newton(lambda x: sphere_vg(x - 10.0), [0.0])
        assert best[0] == pytest.approx(10.0, abs=1e-6)

    def test_rosenbrock(self):
        best, _ = bounded_quasi_newton(rosenbrock_vg, [-1.2, 1.0], conv_tol=1e-12)
        assert rosenbrock(best) < 1e-6

    def test_deterministic(self):
        a = bounded_quasi_newton(rosenbrock_vg, [0.0, 0.0])
        b = bounded_quasi_newton(rosenbrock_vg, [0.0, 0.0])
        assert np.array_equal(a[0], b[0])
        assert a[1].values == b[1].values

    def test_each_point_evaluated_once_in_a_row(self):
        points = []

        def counted(x):
            points.append(np.array(x))
            return rosenbrock_vg(x)

        bounded_quasi_newton(counted, [0.0, 0.0])
        assert all(not np.array_equal(a, b) for a, b in zip(points, points[1:]))

    def test_non_finite_gradient_reported(self):
        with pytest.raises(NonFiniteObjectiveError):
            bounded_quasi_newton(lambda x: (0.0, np.array([np.nan])), [0.0])


class TestTraceCsv:
    def test_csv_shape(self):
        _, trace = spsa(sphere, np.ones(2), iterations=5, seed=1)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "iteration,objective"
        assert len(lines) == 11

