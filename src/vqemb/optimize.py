"""Classical optimizers for the variational loop.

Two drivers: simultaneous-perturbation stochastic approximation (SPSA) with
the standard gain schedules, which needs only objective values, and a bounded
limited-memory quasi-Newton method (scipy L-BFGS-B), which takes a function
returning the value and its exact gradient together.  Both record an
evaluation trace and are deterministic given their seed and inputs.
``scipy.optimize`` is imported by the quasi-Newton driver when it runs, so a
process that never calls it (exact DMET, resources, SPSA) does not load it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np


class NonFiniteObjectiveError(RuntimeError):
    """The objective returned inf/nan; carries the iteration index."""

    def __init__(self, value: float, iteration: int):
        super().__init__(f"non-finite objective value {value} at iteration {iteration}")
        self.iteration = iteration


class InfeasibleIterateError(RuntimeError):
    """An accepted iterate lies outside the box bounds; carries the iterate."""

    def __init__(self, x: np.ndarray, iteration: int):
        super().__init__(f"iterate {x.tolist()} left the feasible box at iteration {iteration}")
        self.x = x
        self.iteration = iteration


@dataclass
class OptimizerTrace:
    """Objective evaluations, one row per recorded evaluation."""

    iterations: list = field(default_factory=list)
    values: list = field(default_factory=list)
    parameters: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)

    def record(self, iteration: int, value: float, params: np.ndarray, t: float):
        self.iterations.append(int(iteration))
        self.values.append(float(value))
        self.parameters.append(np.array(params, dtype=float))
        self.wall_times.append(float(t))

    def best(self) -> tuple[float, np.ndarray]:
        i = int(np.argmin(self.values))
        return self.values[i], self.parameters[i]

    def best_so_far(self) -> list[float]:
        """Running minimum of the objective series."""
        out, best = [], math.inf
        for v in self.values:
            best = min(best, v)
            out.append(best)
        return out

    def to_csv(self, include_parameters: bool = False) -> str:
        header = "iteration,objective"
        if include_parameters:
            width = len(self.parameters[0]) if self.parameters else 0
            header += "," + ",".join(f"p{i}" for i in range(width))
        rows = [header]
        for i, (it, v) in enumerate(zip(self.iterations, self.values)):
            row = f"{it},{v!r}"
            if include_parameters:
                row += "," + ",".join(repr(float(p)) for p in self.parameters[i])
            rows.append(row)
        return "\n".join(rows) + "\n"


def _checked(f, x, iteration):
    v = float(f(np.asarray(x, dtype=float)))
    if not math.isfinite(v):
        raise NonFiniteObjectiveError(v, iteration)
    return v


_SPSA_ALPHA = 0.602  # step-size decay exponent (Spall's standard gain schedule)
_SPSA_GAMMA = 0.101  # perturbation decay exponent


def spsa(
    f,
    x0,
    iterations: int = 100,
    c: float = 0.1,
    seed: int = 0,
) -> tuple[np.ndarray, OptimizerTrace]:
    """SPSA with Rademacher perturbations and gain sequences
    a_k = a / (k + 1 + A)^alpha, c_k = c / (k + 1)^gamma, A = iterations / 10.

    ``a`` is calibrated from 10 probe gradient estimates so the first update
    step has magnitude about 0.1 per component (the probes are not recorded
    in the trace).  Returns the best parameters seen across all recorded
    evaluations, not the final iterate.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if c <= 0:
        raise ValueError("perturbation scale c must be positive")
    x = np.array(x0, dtype=float)
    rng = np.random.default_rng(seed)
    A = iterations / 10.0

    magnitudes = []
    for _ in range(10):
        delta = rng.choice((-1.0, 1.0), size=x.shape)
        df = _checked(f, x + c * delta, 0) - _checked(f, x - c * delta, 0)
        magnitudes.append(abs(df) / (2.0 * c))
    mean_mag = float(np.mean(magnitudes))
    a = 0.1 * (1.0 + A) ** _SPSA_ALPHA / mean_mag if mean_mag > 1e-12 else 0.1

    trace = OptimizerTrace()
    start = time.perf_counter()
    for k in range(iterations):
        ak = a / (k + 1.0 + A) ** _SPSA_ALPHA
        ck = c / (k + 1.0) ** _SPSA_GAMMA
        delta = rng.choice((-1.0, 1.0), size=x.shape)
        x_plus, x_minus = x + ck * delta, x - ck * delta
        f_plus = _checked(f, x_plus, k)
        trace.record(k, f_plus, x_plus, time.perf_counter() - start)
        f_minus = _checked(f, x_minus, k)
        trace.record(k, f_minus, x_minus, time.perf_counter() - start)
        grad = (f_plus - f_minus) / (2.0 * ck) * delta
        x = x - ak * grad
    _, best_params = trace.best()
    return best_params, trace


def bounded_quasi_newton(
    f,
    x0,
    bounds,
    conv_tol: float = 1e-8,
    max_iter: int = 500,
) -> tuple[np.ndarray, OptimizerTrace]:
    """L-BFGS-B with box projection; ``f(x)`` returns ``(value, gradient)``.

    Terminates when the projected-gradient infinity norm or the relative
    objective change drops below ``conv_tol``.  Raises
    ``InfeasibleIterateError`` if an accepted iterate leaves the box.
    """
    x0 = np.array(x0, dtype=float)
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if lo.shape != x0.shape:
        raise ValueError("bounds length does not match parameter count")
    if (x0 < lo - 1e-12).any() or (x0 > hi + 1e-12).any():
        raise ValueError("initial point violates the bounds")

    trace = OptimizerTrace()
    start = time.perf_counter()
    state = {"k": 0, "last": None}

    def wrapped(x):
        """(value, gradient), evaluated once per distinct point in a row."""
        x = np.asarray(x, dtype=float)
        last = state["last"]
        if last is None or not np.array_equal(last[0], x):
            value, grad = f(x)
            value = float(value)
            grad = np.array(grad, dtype=float)
            if not math.isfinite(value) or not np.isfinite(grad).all():
                raise NonFiniteObjectiveError(value, state["k"])
            last = state["last"] = (x.copy(), value, grad)
        return last[1], last[2].copy()

    def callback(xk):
        if (xk < lo - 1e-9).any() or (xk > hi + 1e-9).any():
            raise InfeasibleIterateError(np.array(xk), state["k"])
        trace.record(state["k"], wrapped(xk)[0], xk, time.perf_counter() - start)
        state["k"] += 1

    v0, _ = wrapped(x0)
    trace.record(0, v0, x0, time.perf_counter() - start)
    state["k"] = 1
    # imported on first use: scipy.optimize takes a fifth of a second to load,
    # and runs without quasi-Newton VQE never need it
    from scipy.optimize import minimize

    result = minimize(
        wrapped,
        x0,
        method="L-BFGS-B",
        jac=True,
        bounds=list(zip(lo, hi)),
        callback=callback,
        options={"ftol": conv_tol, "gtol": conv_tol, "maxcor": 10, "maxiter": max_iter},
    )
    trace.record(state["k"], float(result.fun), result.x, time.perf_counter() - start)
    best_value, best_params = trace.best()
    return best_params, trace
