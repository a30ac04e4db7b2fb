"""Variational objectives and solvers for the reduced system.

Two fitting objectives over nonnegative concentrations:

  l2:  0.5*||Ax - y||^2         + 0.5*alpha*||x||^2
  l1s: sum_i sqrt(r_i^2 + eps^2) + 0.5*alpha*||x||^2,  r = Ax - y

The smoothed absolute value keeps the l1 objective differentiable; its
distance to the true l1 norm is at most n*eps, so eps = 1e-12 is
numerically invisible at data scale while the gradient stays defined at
r_i = 0.

Two solvers: a bound-constrained limited-memory quasi-Newton method
(gradient-projection Cauchy point for the active set, two-loop recursion on
the free variables, strong Wolfe line search truncated at the feasible
box), and a regularized Kaczmarz sweep over the rows of the augmented
system [A, sqrt(alpha) I] with an optional nonnegativity projection after
each sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .preprocess import ReducedSystem

__all__ = [
    "Objective",
    "SolverConfig",
    "SolverResult",
    "smoothed_l1_norm",
    "eval_l2",
    "eval_l1s",
    "project_nonneg",
    "lbfgsb",
    "kaczmarz_reg",
]

# Strong Wolfe constants and trial budget of the line search.
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
LINE_SEARCH_MAX_EVALS = 40
# Curvature pairs with s.y below this relative threshold are discarded.
CURVATURE_SKIP = 1e-12


@dataclass
class Objective:
    """One of the two fitting objectives bound to a reduced system."""

    kind: str
    system: ReducedSystem
    alpha: float
    epsilon: float = 1e-12

    def __post_init__(self):
        if self.kind not in ("l2", "l1s"):
            raise ValueError("objective kind must be 'l2' or 'l1s'")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.kind == "l1s" and self.epsilon <= 0:
            raise ValueError("the l1 smoothing epsilon must be positive")

    def evaluate(self, x: np.ndarray):
        if self.kind == "l2":
            return eval_l2(self, x)
        return eval_l1s(self, x)


def smoothed_l1_norm(v: np.ndarray, epsilon: float) -> float:
    """sum_i sqrt(v_i^2 + epsilon^2); within n*epsilon of the l1 norm."""
    v = np.asarray(v, dtype=np.float64)
    return float(np.sum(np.sqrt(v * v + epsilon * epsilon)))


def eval_l2(objective: Objective, x: np.ndarray):
    """Value and gradient of the quadratic objective."""
    a, y = objective.system.A, objective.system.y
    r = a @ x - y
    value = 0.5 * float(r @ r) + 0.5 * objective.alpha * float(x @ x)
    grad = a.T @ r + objective.alpha * x
    return value, grad

def eval_l1s(objective: Objective, x: np.ndarray):
    """Value and gradient of the smoothed-l1 objective."""
    a, y = objective.system.A, objective.system.y
    eps = objective.epsilon
    r = a @ x - y
    t = np.sqrt(r * r + eps * eps)
    value = float(np.sum(t)) + 0.5 * objective.alpha * float(x @ x)
    grad = a.T @ (r / t) + objective.alpha * x
    return value, grad


def project_nonneg(x: np.ndarray) -> np.ndarray:
    """Componentwise projection onto the nonnegative orthant."""
    return np.maximum(x, 0.0)


@dataclass
class SolverConfig:
    """Tunables shared by both solvers.

    memory/pgtol/max_iterations drive the quasi-Newton method; sweeps,
    row_order ("sequential" or "shuffled"), seed and projection ("sweep",
    "row" or "none") drive Kaczmarz. record_trace keeps per-iterate
    objective values, record_snapshots keeps a copy of x after every
    Kaczmarz sweep.
    """

    memory: int = 20
    pgtol: float = 1e-10
    max_iterations: int = 10000
    sweeps: int = 50
    row_order: str = "sequential"
    seed: int = 0
    projection: str = "sweep"
    record_trace: bool = False
    record_snapshots: bool = False

    def __post_init__(self):
        if self.memory < 1 or self.max_iterations < 1 or self.sweeps < 0:
            raise ValueError("memory, max_iterations and sweeps must be positive")
        if self.pgtol <= 0:
            raise ValueError("pgtol must be positive")
        if self.row_order not in ("sequential", "shuffled"):
            raise ValueError("row_order must be 'sequential' or 'shuffled'")
        if self.projection not in ("sweep", "row", "none"):
            raise ValueError("projection must be 'sweep', 'row' or 'none'")


@dataclass
class SolverResult:
    x: np.ndarray
    objective_value: float
    projected_gradient_norm: float
    iterations: int
    converged: bool
    snapshots: list | None = None
    objective_trace: list | None = None


def _projected_gradient(x, g, lower, upper):
    pg = g.copy()
    at_lo = x <= lower
    pg[at_lo] = np.minimum(g[at_lo], 0.0)
    at_up = x >= upper
    pg[at_up] = np.maximum(g[at_up], 0.0)
    return pg


def _cauchy_point(x, g, lower, upper, theta):
    """Minimize the theta-scaled quadratic model along P(x - t g).

    Returns the path minimizer and the active mask (variables at a bound
    there). The piecewise-linear path is walked segment by segment.
    """
    tb = np.full(x.shape, np.inf)
    pos = g > 0
    tb[pos] = (x[pos] - lower[pos]) / g[pos]
    neg = g < 0
    with np.errstate(invalid="ignore"):
        tb[neg] = (x[neg] - upper[neg]) / g[neg]
    tb[np.isnan(tb)] = np.inf  # infinite bound on a moving variable
    moving = tb > 0
    if not np.any(moving):
        return x.copy(), np.ones(x.shape, dtype=bool)

    t_cp = None
    t_prev = 0.0
    breakpoints = np.unique(tb[moving & np.isfinite(tb)])
    for t in np.append(breakpoints, np.inf):
        z = np.clip(x - t_prev * g, lower, upper) - x
        d = np.where(tb > t_prev, -g, 0.0)
        fp = float(g @ d) + theta * float(z @ d)
        fpp = theta * float(d @ d)
        if fp >= 0.0:
            t_cp = t_prev
            break
        dt = -fp / fpp if fpp > 0.0 else np.inf
        if dt < t - t_prev:
            t_cp = t_prev + dt
            break
        if not np.isfinite(t):
            t_cp = t_prev  # no curvature left along an unbounded segment
            break
        t_prev = t
    x_cp = np.clip(x - t_cp * g, lower, upper)
    active = (x_cp <= lower) | (x_cp >= upper)
    return x_cp, active


def _two_loop(g, pairs, gamma):
    q = g.copy()
    coeffs = []
    for s, yv, rho in reversed(pairs):
        a = rho * float(s @ q)
        coeffs.append(a)
        q -= a * yv
    q *= gamma
    for (s, yv, rho), a in zip(pairs, reversed(coeffs)):
        b = rho * float(yv @ q)
        q += (a - b) * s
    return q


def _max_feasible_step(x, d, lower, upper):
    steps = np.full(x.shape, np.inf)
    neg = d < 0
    with np.errstate(invalid="ignore"):
        steps[neg] = (lower[neg] - x[neg]) / d[neg]
        pos = d > 0
        steps[pos] = (upper[pos] - x[pos]) / d[pos]
    steps[np.isnan(steps)] = np.inf
    return max(float(steps.min(initial=np.inf)), 0.0)


def _checked_eval(fun, x):
    # overflow is reported as NumericalError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        f, g = fun(x)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NumericalError("non-finite objective or gradient encountered")
    return f, g


def _zoom(fun, x, d, f0, slope0, lo, hi, best, evals):
    """Strong Wolfe zoom between bracketing steps lo and hi.

    lo/hi are (a, f, g, slope) tuples; lo satisfies the sufficient-decrease
    condition. Returns (a, f, g, evals, ok).
    """
    while evals < LINE_SEARCH_MAX_EVALS:
        a_lo, f_lo, g_lo, s_lo = lo
        a_hi, f_hi = hi[0], hi[1]
        span = a_hi - a_lo
        denom = f_hi - f_lo - s_lo * span
        if denom != 0.0:
            a = a_lo - 0.5 * s_lo * span * span / denom
        else:
            a = a_lo + 0.5 * span
        left, right = min(a_lo, a_hi), max(a_lo, a_hi)
        if not np.isfinite(a) or a <= left or a >= right:
            a = 0.5 * (left + right)
        else:
            margin = 1e-3 * (right - left)
            a = min(max(a, left + margin), right - margin)
        if right - left <= 1e-14 * max(1.0, right):
            break  # interval exhausted
        f_a, g_a = _checked_eval(fun, x + a * d)
        evals += 1
        slope_a = float(g_a @ d)
        if f_a < best[1]:
            best = (a, f_a, g_a)
        if f_a > f0 + WOLFE_C1 * a * slope0 or f_a >= f_lo:
            hi = (a, f_a, g_a, slope_a)
        else:
            if abs(slope_a) <= -WOLFE_C2 * slope0:
                return a, f_a, g_a, evals, True
            if slope_a * span >= 0.0:
                hi = lo
            lo = (a, f_a, g_a, slope_a)
    # Budget or interval exhausted: settle for sufficient decrease alone.
    a_lo, f_lo, g_lo, _ = lo
    if a_lo > 0.0 and f_lo <= f0 + WOLFE_C1 * a_lo * slope0:
        return a_lo, f_lo, g_lo, evals, True
    return best[0], best[1], best[2], evals, False


def _wolfe_search(fun, x, d, f0, g0, slope0, amax):
    """Strong Wolfe line search on phi(a) = f(x + a d), a in (0, amax].

    A step that reaches the box boundary is accepted on sufficient decrease
    alone. Returns (a, f, g, evals, ok); ok=False after the trial budget.
    """
    best = (0.0, f0, g0)
    prev = (0.0, f0, g0, slope0)
    a = min(1.0, amax)
    evals = 0
    while evals < LINE_SEARCH_MAX_EVALS:
        f_a, g_a = _checked_eval(fun, x + a * d)
        evals += 1
        slope_a = float(g_a @ d)
        if f_a < best[1]:
            best = (a, f_a, g_a)
        if f_a > f0 + WOLFE_C1 * a * slope0 or (evals > 1 and f_a >= prev[1]):
            return _zoom(fun, x, d, f0, slope0, prev, (a, f_a, g_a, slope_a), best, evals)
        if abs(slope_a) <= -WOLFE_C2 * slope0:
            return a, f_a, g_a, evals, True
        if slope_a >= 0.0:
            return _zoom(fun, x, d, f0, slope0, (a, f_a, g_a, slope_a), prev, best, evals)
        if a >= amax:
            return a, f_a, g_a, evals, True  # pinned at the box face
        prev = (a, f_a, g_a, slope_a)
        a = min(2.0 * a, amax)
    return best[0], best[1], best[2], evals, False


def lbfgsb(objective, cfg: SolverConfig | None = None,
           lower=0.0, upper=np.inf, x0: np.ndarray | None = None) -> SolverResult:
    """Bound-constrained limited-memory quasi-Newton minimization.

    Per iteration: a gradient-projection Cauchy-point search along the
    projected steepest-descent path fixes the active set, the two-loop
    recursion on the free variables (at most cfg.memory curvature pairs,
    pairs with s.y <= 1e-12*|s||y| discarded) proposes their step while
    active variables head for their Cauchy values, and a strong Wolfe line
    search (c1 = 1e-4, c2 = 0.9) along that direction stays on the feasible
    box, so a unit step lands bound variables exactly on their bounds. The
    first iterate is scaled by 1/||g0||. Terminates when the sup norm of
    the projected gradient reaches cfg.pgtol, on the iteration budget, or
    when a line search fails after 40 trials (best iterate returned with
    converged=False).

    ``objective`` is an Objective or any callable x -> (value, gradient);
    callables require x0.
    """
    cfg = cfg or SolverConfig()
    if isinstance(objective, Objective):
        fun = objective.evaluate
        dim = objective.system.voxels
    elif callable(objective):
        fun = objective
        if x0 is None:
            raise ValueError("x0 is required for a bare objective callable")
        dim = np.asarray(x0).shape[0]
    else:
        raise TypeError("objective must be an Objective or a callable")
    lower = np.broadcast_to(np.asarray(lower, dtype=np.float64), (dim,)).copy()
    upper = np.broadcast_to(np.asarray(upper, dtype=np.float64), (dim,)).copy()
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound")
    x = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    x = np.clip(x, lower, upper)

    f, g = _checked_eval(fun, x)
    trace = [f] if cfg.record_trace else None
    pairs: list = []
    g0_norm = float(np.linalg.norm(g))
    gamma = 1.0 / g0_norm if g0_norm > 0 else 1.0
    converged = False
    iterations = 0
    while iterations < cfg.max_iterations:
        pg = _projected_gradient(x, g, lower, upper)
        if float(np.max(np.abs(pg), initial=0.0)) <= cfg.pgtol:
            converged = True
            break
        theta = 1.0 / gamma
        x_cp, active = _cauchy_point(x, g, lower, upper, theta)
        g_free = np.where(active, 0.0, g)
        # active variables head for their Cauchy values (exactly on the
        # bound at a unit step), free variables take the quasi-Newton step
        d = x_cp - x
        free_step = -_two_loop(g_free, pairs, gamma)
        d[~active] = free_step[~active]
        # zero components that would step straight out of the box
        d[((x <= lower) & (d < 0.0)) | ((x >= upper) & (d > 0.0))] = 0.0
        slope = float(d @ g)
        if slope >= -1e-12 * float(np.linalg.norm(d)) * float(np.linalg.norm(g)):
            d = -pg  # quasi-Newton direction unusable, fall back
            slope = float(d @ g)
            if slope >= 0.0:
                converged = True  # numerically stationary
                break
        amax = _max_feasible_step(x, d, lower, upper)
        if not amax > 0.0:
            break  # no feasible movement along a descent direction
        a, f_new, g_new, _, ok = _wolfe_search(fun, x, d, f, g, slope, amax)
        if not ok:
            if g_new is not None and f_new < f:
                x = np.clip(x + a * d, lower, upper)
                f, g = f_new, g_new
                if trace is not None:
                    trace.append(f)
            break  # line-search failure: report the best iterate
        x_new = np.clip(x + a * d, lower, upper)
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > CURVATURE_SKIP * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            pairs.append((s, yv, 1.0 / sy))
            if len(pairs) > cfg.memory:
                pairs.pop(0)
            gamma = sy / float(yv @ yv)
        x, f, g = x_new, f_new, g_new
        iterations += 1
        if trace is not None:
            trace.append(f)

    pg = _projected_gradient(x, g, lower, upper)
    return SolverResult(
        x=x,
        objective_value=f,
        projected_gradient_norm=float(np.max(np.abs(pg), initial=0.0)),
        iterations=iterations,
        converged=converged,
        objective_trace=trace,
    )


def kaczmarz_reg(system: ReducedSystem, alpha: float,
                 cfg: SolverConfig | None = None) -> SolverResult:
    """Regularized Kaczmarz sweeps over the augmented system.

    Each row update solves row i of [A, sqrt(alpha) I] [x; v] = y exactly:

        beta = (y_i - <a_i, x> - sqrt(alpha) v_i) / (||a_i||^2 + alpha)
        x += beta * a_i;  v_i += beta * sqrt(alpha)

    One iteration is one full loop over the rows; the nonnegativity
    projection is applied to x after every sweep (cfg.projection switches
    to per-row or none). Without projection the iteration converges to the
    l2 Tikhonov minimizer. Zero rows are skipped. Row order is sequential
    or re-shuffled per sweep from cfg.seed. A non-finite x, snapshot,
    objective or gradient raises NumericalError.
    """
    cfg = cfg or SolverConfig()
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    a_mat = system.A
    y = system.y
    n, m = a_mat.shape
    if n == 0:
        raise ValueError("system has no rows")
    sqa = float(np.sqrt(alpha))
    row_norm2 = np.einsum("ij,ij->i", a_mat, a_mat)
    usable = np.nonzero(row_norm2 > 0.0)[0]
    if usable.size == 0:
        raise ValueError("all rows of the system are zero")
    x = np.zeros(m)
    v = np.zeros(n)
    rng = np.random.default_rng(cfg.seed)
    snapshots = [] if cfg.record_snapshots else None
    denom = row_norm2 + alpha
    with np.errstate(over="ignore", invalid="ignore"):  # checked after the sweeps
        for _ in range(cfg.sweeps):
            if cfg.row_order == "shuffled":
                order = usable[rng.permutation(usable.size)]
            else:
                order = usable
            for i in order:
                ai = a_mat[i]
                beta = (y[i] - np.dot(ai, x) - sqa * v[i]) / denom[i]
                x += beta * ai
                v[i] += beta * sqa
                if cfg.projection == "row":
                    np.maximum(x, 0.0, out=x)
            if cfg.projection == "sweep":
                np.maximum(x, 0.0, out=x)
            if snapshots is not None:
                snapshots.append(x.copy())
    if not all(np.isfinite(z).all() for z in [x] + (snapshots or [])):
        raise NumericalError("Kaczmarz sweeps produced non-finite values")
    value, grad = _checked_eval(Objective("l2", system, alpha).evaluate, x)
    pg = _projected_gradient(x, grad, np.zeros(m), np.full(m, np.inf))
    return SolverResult(
        x=x,
        objective_value=value,
        projected_gradient_norm=float(np.max(np.abs(pg), initial=0.0)),
        iterations=cfg.sweeps,
        converged=True,
        snapshots=snapshots,
    )
