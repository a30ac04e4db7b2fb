"""Variational objectives and solvers for the reduced system.

Two fitting objectives over nonnegative concentrations:

  l2:  0.5*||Ax - y||^2         + 0.5*alpha*||x||^2
  l1s: sum_i sqrt(r_i^2 + eps^2) + 0.5*alpha*||x||^2,  r = Ax - y

The smoothed absolute value keeps the l1 objective differentiable; its
distance to the true l1 norm is at most n*eps, so eps = 1e-12 is
numerically invisible at data scale while the gradient stays defined at
r_i = 0. Objective.evaluate returns the value and gradient of either; the
two share the residual and the penalty and differ in the data term only.

Two solvers: a bound-constrained limited-memory quasi-Newton method
(Cauchy point for the active set, two-loop recursion on the free variables,
strong Wolfe line search truncated at the feasible box, one loop that
expands the step and then narrows the bracket it finds), and a regularized
Kaczmarz sweep over the rows of the augmented system [A, sqrt(alpha) I]
with an optional nonnegativity projection after each sweep. solve runs a
reconstruction method of the METHODS table by name.

The quasi-Newton model uses the scaled identity B = I/gamma, with gamma =
s.y / y.y from the newest accepted curvature pair (1/||g0|| before the
first). With that B the generalized Cauchy point of Byrd, Lu, Nocedal and
Zhu (SIAM J. Sci. Comput. 1995), the minimizer of the model along the
projected path P(x - t g), is the single projected step P(x - gamma g):
the model separates by coordinate, and each coordinate is convex along the
path with its minimum at t = gamma or at the bound it reaches before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .preprocess import ReducedSystem

__all__ = [
    "METHODS",
    "Objective",
    "SolverConfig",
    "SolverResult",
    "smoothed_l1_norm",
    "lbfgsb",
    "kaczmarz_reg",
    "solve",
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
        """Value and gradient at x. The objectives share r = Ax - y and the
        penalty; they differ in the data term and the weights that A^T
        applies to form its gradient: r for l2, r/t for l1s."""
        a, y = self.system.A, self.system.y
        r = a @ x - y
        if self.kind == "l2":
            data, weights = 0.5 * float(r @ r), r
        else:
            t = np.sqrt(r * r + self.epsilon * self.epsilon)
            data, weights = float(np.sum(t)), r / t
        value = data + 0.5 * self.alpha * float(x @ x)
        grad = a.T @ weights + self.alpha * x
        return value, grad


def smoothed_l1_norm(v: np.ndarray, epsilon: float) -> float:
    """sum_i sqrt(v_i^2 + epsilon^2); within n*epsilon of the l1 norm."""
    v = np.asarray(v, dtype=np.float64)
    return float(np.sum(np.sqrt(v * v + epsilon * epsilon)))


@dataclass
class SolverConfig:
    """Tunables shared by both solvers.

    memory/pgtol/max_iterations drive the quasi-Newton method; sweeps,
    row_order ("sequential" or "shuffled"), seed and projection ("sweep"
    or "none") drive Kaczmarz. record_snapshots keeps a copy of x after
    every Kaczmarz sweep.
    """

    memory: int = 20
    pgtol: float = 1e-10
    max_iterations: int = 10000
    sweeps: int = 50
    row_order: str = "sequential"
    seed: int = 0
    projection: str = "sweep"
    record_snapshots: bool = False

    def __post_init__(self):
        if self.memory < 1 or self.max_iterations < 1 or self.sweeps < 1:
            raise ValueError("memory, max_iterations and sweeps must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.pgtol <= 0:
            raise ValueError("pgtol must be positive")
        if self.row_order not in ("sequential", "shuffled"):
            raise ValueError("row_order must be 'sequential' or 'shuffled'")
        if self.projection not in ("sweep", "none"):
            raise ValueError("projection must be 'sweep' or 'none'")


@dataclass
class SolverResult:
    x: np.ndarray
    objective_value: float
    projected_gradient_norm: float
    iterations: int
    converged: bool
    snapshots: list | None = None


def _projected_gradient(x, g, lower, upper):
    pg = g.copy()
    at_lo = x <= lower
    pg[at_lo] = np.minimum(g[at_lo], 0.0)
    at_up = x >= upper
    pg[at_up] = np.maximum(g[at_up], 0.0)
    return pg


def _cauchy_point(x, g, lower, upper, gamma):
    """Generalized Cauchy point for B = I/gamma, P(x - gamma g), and the
    mask of variables at a bound there."""
    x_cp = np.clip(x - gamma * g, lower, upper)
    return x_cp, (x_cp <= lower) | (x_cp >= upper)


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


def _wolfe_search(fun, x, d, f0, g0, slope0, amax):
    """Strong Wolfe line search on phi(a) = f(x + a d), a in (0, amax].

    One loop (Nocedal and Wright, Numerical Optimization, Algorithms 3.5
    and 3.6) carries the bracket as (a, f, g, slope) tuples: lo, the lowest
    trial that meets sufficient decrease (at first the start a = 0), and
    hi, None while the step still expands. Each pass evaluates one trial.
    A trial that fails sufficient decrease, or is no lower than lo, becomes
    hi; one that meets the curvature condition is returned; any other
    becomes lo. Then, while expanding, the step doubles, and a step at amax
    (the box face) is accepted on sufficient decrease alone; once
    bracketed, the next step is a safeguarded quadratic interpolation from
    lo. When the budget or the bracketed interval runs out, a bracket's lo
    is accepted on sufficient decrease alone unless it is the start;
    otherwise the best trial is returned with ok=False. Returns
    (a, f, g, evals, ok).
    """
    best = (0.0, f0, g0)
    lo, hi = (0.0, f0, g0, slope0), None
    span = 1.0  # hi[0] - lo[0]; while expanding, hi lies toward larger steps
    a = min(1.0, amax)
    evals = 0
    while evals < LINE_SEARCH_MAX_EVALS:
        if hi is not None:
            a_lo, f_lo, _, s_lo = lo
            span = hi[0] - a_lo
            denom = hi[1] - f_lo - s_lo * span
            if denom != 0.0:
                a = a_lo - 0.5 * s_lo * span * span / denom
            else:
                a = a_lo + 0.5 * span
            left, right = min(a_lo, hi[0]), max(a_lo, hi[0])
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
        # the first trial is never compared with f0: when f0 + c1*a*slope0
        # rounds to f0, a trial level with f0 still gets the curvature test
        if f_a > f0 + WOLFE_C1 * a * slope0 or (evals > 1 and f_a >= lo[1]):
            hi = (a, f_a, g_a, slope_a)
        elif abs(slope_a) <= -WOLFE_C2 * slope0:
            return a, f_a, g_a, evals, True
        else:
            # a slope rising toward hi puts a minimizer behind the trial
            if slope_a * span >= 0.0:
                hi = lo
            lo = (a, f_a, g_a, slope_a)
        if hi is None:
            if a >= amax:
                return a, f_a, g_a, evals, True  # pinned at the box face
            a = min(2.0 * a, amax)
    a_lo, f_lo, g_lo, _ = lo
    if hi is not None and a_lo > 0.0 and f_lo <= f0 + WOLFE_C1 * a_lo * slope0:
        return a_lo, f_lo, g_lo, evals, True
    return best[0], best[1], best[2], evals, False


def lbfgsb(objective, cfg: SolverConfig | None = None,
           lower=0.0, upper=np.inf, x0: np.ndarray | None = None) -> SolverResult:
    """Bound-constrained limited-memory quasi-Newton minimization.

    Per iteration: the Cauchy point P(x - gamma g), the minimizer of the
    model with B = I/gamma along the projected steepest-descent path, fixes
    the active set; the two-loop recursion on the free variables (at most
    cfg.memory curvature pairs, pairs with s.y <= 1e-12*|s||y| discarded)
    proposes their step while active variables head for their Cauchy
    values, and a strong Wolfe line search (c1 = 1e-4, c2 = 0.9) along that
    direction stays on the feasible box, so a unit step lands bound
    variables exactly on their bounds. The first iterate is scaled by
    1/||g0||. Terminates when the sup norm of
    the projected gradient reaches cfg.pgtol, on the iteration budget, or
    when a line search fails (best iterate returned with converged=False).
    The search is one loop that doubles the step until it brackets a
    minimizer, then interpolates inside the bracket. It fails when its 40
    trials all expand without a bracket, or when the bracketed interval or
    the budget runs out while its lower end is still the start point.

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
        x_cp, active = _cauchy_point(x, g, lower, upper, gamma)
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
            if f_new < f:
                x = np.clip(x + a * d, lower, upper)
                f, g = f_new, g_new
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

    pg = _projected_gradient(x, g, lower, upper)
    return SolverResult(
        x=x,
        objective_value=f,
        projected_gradient_norm=float(np.max(np.abs(pg), initial=0.0)),
        iterations=iterations,
        converged=converged,
    )


def kaczmarz_reg(system: ReducedSystem, alpha: float,
                 cfg: SolverConfig | None = None) -> SolverResult:
    """Regularized Kaczmarz sweeps over the augmented system.

    Each row update solves row i of [A, sqrt(alpha) I] [x; v] = y exactly:

        beta = (y_i - <a_i, x> - sqrt(alpha) v_i) / (||a_i||^2 + alpha)
        x += beta * a_i;  v_i += beta * sqrt(alpha)

    One iteration is one full loop over the rows; the nonnegativity
    projection is applied to x after every sweep unless cfg.projection is
    "none". Without projection the iteration converges to the l2 Tikhonov
    minimizer. Zero rows are skipped. Row order is sequential or
    re-shuffled per sweep from cfg.seed. A non-finite x, snapshot,
    objective or gradient raises NumericalError.

    The row loop is bound by interpreter overhead, not arithmetic, so it
    keeps y, the denominators and v as Python floats and each row with its
    bound BLAS dot. Each update still does the IEEE operations of the
    formula above in its order: one ddot, then beta * a_i into a buffer and
    one add into x. Fused multiply-adds or blocks of rows would round
    differently.
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
    v = [0.0] * n
    y_list = y.tolist()
    denom = (row_norm2 + alpha).tolist()
    rows = [(i, a_mat[i], a_mat[i].dot) for i in usable.tolist()]
    step = np.empty(m)
    beta_0d = np.zeros(())  # numpy multiplies by it faster than by a Python float
    rng = np.random.default_rng(cfg.seed)
    snapshots = [] if cfg.record_snapshots else None
    with np.errstate(over="ignore", invalid="ignore"):  # checked after the sweeps
        for _ in range(cfg.sweeps):
            if cfg.row_order == "shuffled":
                order = [rows[k] for k in rng.permutation(usable.size)]
            else:
                order = rows
            for i, ai, dot in order:
                beta = (y_list[i] - float(dot(x)) - sqa * v[i]) / denom[i]
                beta_0d[()] = beta
                np.multiply(beta_0d, ai, step)
                np.add(x, step, x)
                v[i] += beta * sqa
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


# The reconstruction methods. Each row gives the Objective kind lbfgsb
# minimizes (None: regularized Kaczmarz) and the solver-section settings a
# run records beside its weight: exactly those its solver reads.
METHODS = {
    "l1-L": ("l1s", ("epsilon", "memory", "pgtol", "max_iterations")),
    "l2-L": ("l2", ("memory", "pgtol", "max_iterations")),
    "l2-K": (None, ("sweeps", "projection", "row_order", "seed")),
}


def solve(system: ReducedSystem, method: str, alpha: float, epsilon: float,
          cfg: SolverConfig) -> SolverResult:
    """Solve the reduced system with the named method of METHODS: lbfgsb on
    the row's Objective kind, or kaczmarz_reg, which ignores epsilon."""
    kind, _ = METHODS[method]
    if kind is None:
        return kaczmarz_reg(system, alpha, cfg)
    return lbfgsb(Objective(kind, system, alpha, epsilon), cfg)
