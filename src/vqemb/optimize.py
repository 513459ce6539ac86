"""Classical optimizers for the variational loop.

Two drivers: simultaneous-perturbation stochastic approximation (SPSA) with
the standard gain schedules, which needs only objective values, and an
unbounded limited-memory quasi-Newton method (scipy L-BFGS-B), which takes a
function returning the value and its exact gradient together.  The VQE
trains only Ry angles, so its energy is 2π-periodic in every parameter and
the quasi-Newton search needs no box.  Both record an evaluation trace and
are deterministic given their seed and inputs.
``scipy.optimize`` is imported by the quasi-Newton driver when it runs, so a
process that never calls it (exact DMET, resources, SPSA) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NonFiniteObjectiveError(RuntimeError):
    """The objective returned inf/nan; carries the iteration index."""

    def __init__(self, value: float, iteration: int):
        super().__init__(f"non-finite objective value {value} at iteration {iteration}")
        self.iteration = iteration


@dataclass
class OptimizerTrace:
    """Objective evaluations, one row per recorded evaluation."""

    iterations: list = field(default_factory=list)
    values: list = field(default_factory=list)
    parameters: list = field(default_factory=list)

    def record(self, iteration: int, value: float, params: np.ndarray):
        self.iterations.append(int(iteration))
        self.values.append(float(value))
        self.parameters.append(np.array(params, dtype=float))

    def best(self) -> tuple[float, np.ndarray]:
        i = int(np.argmin(self.values))
        return self.values[i], self.parameters[i]

    def to_csv(self) -> str:
        rows = ["iteration,objective"]
        rows += [f"{it},{v!r}" for it, v in zip(self.iterations, self.values)]
        return "\n".join(rows) + "\n"


def _checked(f, x, iteration):
    v = float(f(np.asarray(x, dtype=float)))
    if not math.isfinite(v):
        raise NonFiniteObjectiveError(v, iteration)
    return v


_SPSA_ALPHA = 0.602  # step-size decay exponent (Spall's standard gain schedule)
_SPSA_GAMMA = 0.101  # perturbation decay exponent
_SPSA_C = 0.1  # perturbation scale c


def spsa(
    f,
    x0,
    iterations: int = 100,
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
    x = np.array(x0, dtype=float)
    rng = np.random.default_rng(seed)
    A = iterations / 10.0

    magnitudes = []
    for _ in range(10):
        delta = rng.choice((-1.0, 1.0), size=x.shape)
        df = _checked(f, x + _SPSA_C * delta, 0) - _checked(f, x - _SPSA_C * delta, 0)
        magnitudes.append(abs(df) / (2.0 * _SPSA_C))
    mean_mag = float(np.mean(magnitudes))
    a = 0.1 * (1.0 + A) ** _SPSA_ALPHA / mean_mag if mean_mag > 1e-12 else 0.1

    trace = OptimizerTrace()
    for k in range(iterations):
        ak = a / (k + 1.0 + A) ** _SPSA_ALPHA
        ck = _SPSA_C / (k + 1.0) ** _SPSA_GAMMA
        delta = rng.choice((-1.0, 1.0), size=x.shape)
        x_plus, x_minus = x + ck * delta, x - ck * delta
        f_plus = _checked(f, x_plus, k)
        trace.record(k, f_plus, x_plus)
        f_minus = _checked(f, x_minus, k)
        trace.record(k, f_minus, x_minus)
        grad = (f_plus - f_minus) / (2.0 * ck) * delta
        x = x - ak * grad
    _, best_params = trace.best()
    return best_params, trace


def bounded_quasi_newton(
    f,
    x0,
    conv_tol: float = 1e-8,
    max_iter: int = 500,
) -> tuple[np.ndarray, OptimizerTrace]:
    """Unbounded L-BFGS-B; ``f(x)`` returns ``(value, gradient)``.

    Terminates when the gradient infinity norm or the relative objective
    change drops below ``conv_tol``.  Trace row 0 is the start, each later
    row an accepted iterate, and the last row the result.  The name is older
    than the unbounded search; it stays because the benchmark tracer wraps
    the driver by it, until a change to the benchmark renames both.
    """
    trace = OptimizerTrace()

    def checked(x):
        value, grad = f(x)
        value = float(value)
        grad = np.array(grad, dtype=float)
        if not math.isfinite(value) or not np.isfinite(grad).all():
            raise NonFiniteObjectiveError(value, len(trace.values))
        if not trace.values:  # scipy's first call is at x0
            trace.record(0, value, x)
        return value, grad

    def callback(intermediate_result):
        trace.record(len(trace.values), intermediate_result.fun, intermediate_result.x)

    # imported on first use: scipy.optimize takes a fifth of a second to load,
    # and runs without quasi-Newton VQE never need it
    from scipy.optimize import minimize

    result = minimize(
        checked,
        x0,
        method="L-BFGS-B",
        jac=True,
        callback=callback,
        options={"ftol": conv_tol, "gtol": conv_tol, "maxcor": 10, "maxiter": max_iter},
    )
    trace.record(len(trace.values), float(result.fun), result.x)
    _, best_params = trace.best()
    return best_params, trace
