import numpy as np
import pytest

from robust_recon.errors import NumericalError
from robust_recon.preprocess import ReducedSystem
from robust_recon.solvers import (
    Objective,
    SolverConfig,
    SolverResult,
    _cauchy_point,
    _wolfe_search,
    kaczmarz_reg,
    lbfgsb,
    smoothed_l1_norm,
)


def scalar_system(a, y):
    return ReducedSystem(np.array([[float(a)]]), np.array([float(y)]))


def random_system(rng, n, m, normalized=False):
    a = rng.standard_normal((n, m))
    if normalized:
        a /= np.linalg.svd(a, compute_uv=False)[0]
    return ReducedSystem(a, rng.standard_normal(n))


def test_eval_l2_identity_example():
    system = ReducedSystem(np.eye(2), np.zeros(2))
    value, grad = Objective("l2", system, 2.0).evaluate(np.array([1.0, 1.0]))
    assert value == 3.0
    assert np.array_equal(grad, [3.0, 3.0])


def test_eval_l2_matches_normal_equations(rng):
    system = random_system(rng, 12, 7)
    a, y = system.A, system.y
    for _ in range(5):
        x = rng.standard_normal(7)
        alpha = float(rng.uniform(0.0, 2.0))
        _, grad = Objective("l2", system, alpha).evaluate(x)
        oracle = (a.T @ a) @ x - a.T @ y + alpha * x
        assert np.max(np.abs(grad - oracle)) <= 1e-10


def central_difference(objective, x, i):
    h = 1e-6 * (1.0 + abs(x[i]))
    e = np.zeros_like(x)
    e[i] = h
    f_plus, _ = objective.evaluate(x + e)
    f_minus, _ = objective.evaluate(x - e)
    return (f_plus - f_minus) / (2.0 * h)


@pytest.mark.parametrize("kind,epsilon", [("l2", 1e-12), ("l1s", 1e-6)])
def test_gradients_match_finite_differences(rng, kind, epsilon):
    system = random_system(rng, 15, 8)
    objective = Objective(kind, system, 0.37, epsilon=epsilon)
    for _ in range(20):
        x = 2.0 * rng.standard_normal(8)
        _, grad = objective.evaluate(x)
        for i in range(8):
            fd = central_difference(objective, x, i)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))


def test_eval_l1s_limit_example():
    # residual (3, -4): the smoothed value approaches |3| + |-4| = 7
    system = ReducedSystem(np.eye(2), np.zeros(2))
    objective = Objective("l1s", system, 0.0, epsilon=1e-12)
    value, _ = objective.evaluate(np.array([3.0, -4.0]))
    assert abs(value - 7.0) <= 2e-12


def test_eval_l1s_monotone_in_epsilon():
    system = ReducedSystem(np.eye(3), np.zeros(3))
    x = np.array([0.5, -2.0, 0.0])
    values = [
        Objective("l1s", system, 0.0, epsilon=eps).evaluate(x)[0]
        for eps in (1e-12, 1e-9, 1e-6, 1e-3)
    ]
    assert values == sorted(values)


def test_eval_l1s_zero_residual():
    n = 4
    target = np.array([1.0, -2.0, 3.0, 0.5])
    system = ReducedSystem(np.eye(n), target)
    objective = Objective("l1s", system, 0.0, epsilon=1e-9)
    value, grad = objective.evaluate(target)
    assert value == n * 1e-9
    assert np.array_equal(grad, np.zeros(n))


@pytest.mark.parametrize("kind", ["l2", "l1s"])
def test_objective_keeps_the_operation_order_of_each_formula(rng, kind):
    # lbfgsb iterates keep their bits only if evaluate rounds as the formulas
    # written out on their own do
    system = random_system(rng, 30, 9)
    a, y, alpha, eps = system.A, system.y, 0.37, 1e-6
    for _ in range(5):
        x = rng.standard_normal(9)
        r = a @ x - y
        if kind == "l2":
            value = 0.5 * float(r @ r) + 0.5 * alpha * float(x @ x)
            grad = a.T @ r + alpha * x
        else:
            t = np.sqrt(r * r + eps * eps)
            value = float(np.sum(t)) + 0.5 * alpha * float(x @ x)
            grad = a.T @ (r / t) + alpha * x
        got_value, got_grad = Objective(kind, system, alpha, eps).evaluate(x)
        assert got_value == value
        assert got_grad.tobytes() == grad.tobytes()


def test_objective_validation():
    system = scalar_system(1.0, 0.0)
    with pytest.raises(ValueError):
        Objective("huber", system, 0.0)
    with pytest.raises(ValueError):
        Objective("l2", system, -1.0)
    with pytest.raises(ValueError):
        Objective("l1s", system, 0.0, epsilon=0.0)


def test_smoothed_l1_bound_holds_exactly():
    for trial in range(300):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(1, 40))
        scale = float(rng.choice([1e-3, 1.0, 100.0]))
        v = scale * rng.standard_normal(n)
        if trial % 5 == 0:
            v[rng.random(n) < 0.3] = 0.0
        epsilon = float(rng.choice([1e-12, 1e-9, 1e-6]))
        gap = smoothed_l1_norm(v, epsilon) - float(np.sum(np.abs(v)))
        assert 0.0 <= gap <= n * epsilon


def test_smoothed_l1_zero_vector():
    assert smoothed_l1_norm(np.zeros(8), 1e-12) == 8e-12


def test_lbfgsb_scalar_interior_minimum():
    result = lbfgsb(Objective("l2", scalar_system(1.0, 3.0), 0.0))
    assert abs(result.x[0] - 3.0) <= 1e-8
    assert result.converged
    assert result.projected_gradient_norm <= 1e-10


def test_lbfgsb_scalar_active_bound():
    result = lbfgsb(Objective("l2", scalar_system(1.0, -2.0), 0.0))
    assert result.x[0] == 0.0
    assert result.converged
    assert result.projected_gradient_norm == 0.0


def test_lbfgsb_separable_box_matches_closed_form(rng):
    for _ in range(20):
        n = int(rng.integers(2, 12))
        c = 4.0 * rng.standard_normal(n)
        lo = rng.uniform(-3.0, 0.0, n)
        hi = lo + rng.uniform(0.5, 4.0, n)

        def quad(x, c=c):
            d = x - c
            return 0.5 * float(d @ d), d

        result = lbfgsb(quad, SolverConfig(), lower=lo, upper=hi, x0=np.zeros(n))
        assert np.max(np.abs(result.x - np.clip(c, lo, hi))) <= 1e-8


def test_lbfgsb_matches_dense_tikhonov_oracle():
    # strictly positive minimizers keep the bound inactive
    for seed in (5, 7, 0, 3):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((30, 20))
        x_true = rng.uniform(0.5, 2.0, 20)
        y = a @ x_true
        alpha = 1e-3
        oracle = np.linalg.solve(a.T @ a + alpha * np.eye(20), a.T @ y)
        assert oracle.min() > 0.0
        result = lbfgsb(Objective("l2", ReducedSystem(a, y), alpha))
        assert np.max(np.abs(result.x - oracle)) <= 1e-7 * max(1.0, np.max(np.abs(oracle)))


def test_lbfgsb_kkt_at_convergence(rng):
    # small problem scale keeps the objective's rounding floor below pgtol,
    # so most instances terminate via the projected-gradient test
    pgtol = 1e-10
    scale = 0.05
    checked = 0
    for seed in range(60, 80):
        r = np.random.default_rng(seed)
        a = scale * r.standard_normal((15, 6))
        x_signed = r.uniform(-1.5, 1.5, 6)
        system = ReducedSystem(a, a @ x_signed)
        objective = Objective("l2", system, 1e-2 * scale**2)
        result = lbfgsb(objective, SolverConfig(pgtol=pgtol))
        if not result.converged:
            continue
        checked += 1
        _, grad = objective.evaluate(result.x)
        for xi, gi in zip(result.x, grad):
            if xi > 0.0:
                assert abs(gi) <= 10.0 * pgtol
            else:
                assert gi >= -10.0 * pgtol
    assert checked >= 8


def test_lbfgsb_objective_does_not_increase_with_iterations(rng):
    system = random_system(rng, 25, 10)
    objective = Objective("l2", system, 1e-3)
    values = [lbfgsb(objective, SolverConfig(max_iterations=k)).objective_value
              for k in range(1, 16)]
    assert values[-1] < values[0]
    assert np.all(np.diff(values) <= 0.0)


def test_lbfgsb_nonnegative_and_value_consistent(rng):
    system = random_system(rng, 20, 8)
    for kind in ("l2", "l1s"):
        objective = Objective(kind, system, 1e-3)
        result = lbfgsb(objective)
        assert np.all(result.x >= 0.0)
        value, _ = objective.evaluate(result.x)
        assert result.objective_value == value


def test_lbfgsb_line_search_failure_reports_not_converged():
    def runaway(x):
        return -float(np.sum(x)), -np.ones_like(x)

    result = lbfgsb(runaway, SolverConfig(max_iterations=3), x0=np.ones(3))
    assert not result.converged


def wolfe_search_1d(phi, amax=np.inf, slope0=None):
    """_wolfe_search along d = 1 from x = 0 on phi(a) -> (value, derivative);
    returns (a, evals, ok) and the trial steps in order."""
    trials = []

    def fun(x):
        trials.append(float(x[0]))
        f, g = phi(float(x[0]))
        return f, np.array([g])

    f0, g0 = phi(0.0)
    a, _, _, evals, ok = _wolfe_search(fun, np.zeros(1), np.ones(1), f0, np.array([g0]),
                                       g0 if slope0 is None else slope0, amax)
    return (a, evals, ok), trials


def test_wolfe_search_accepts_a_unit_step_meeting_both_conditions():
    assert wolfe_search_1d(lambda a: ((a - 1.0) ** 2, 2.0 * (a - 1.0)))[0] == (1.0, 1, True)


def test_wolfe_search_expands_then_stops_pinned_at_amax():
    exit_, trials = wolfe_search_1d(lambda a: (-a, -1.0), amax=3.0)
    assert (exit_, trials) == ((3.0, 3, True), [1.0, 2.0, 3.0])


def test_wolfe_search_fails_with_the_best_step_when_expansion_spends_the_budget():
    exit_, trials = wolfe_search_1d(lambda a: (-a, -1.0))
    assert exit_ == (2.0**39, 40, False)
    assert trials == [2.0**k for k in range(40)]


def test_wolfe_search_accepts_lo_on_sufficient_decrease_when_the_budget_runs_out():
    # the slope is -1 on both sides of the step at 0.3, so no trial meets the
    # curvature condition and the bracket closes on the step from below
    exit_, trials = wolfe_search_1d(lambda a: (-a if a < 0.3 else 1.0, -1.0))
    assert exit_ == (0.2986532570071857, 40, True)
    assert trials[:3] == [1.0, 0.25, 0.390625]


def test_wolfe_search_fails_early_when_the_bracket_shrinks_onto_the_start():
    # every positive step is worse than the start, so lo stays at a = 0 and
    # the interval is exhausted before the budget
    exit_, trials = wolfe_search_1d(lambda a: (0.0 if a == 0.0 else 1.0, -1.0))
    assert exit_ == (0.0, 8, False)
    assert trials[:3] == [1.0, 0.25, 0.025]


def test_wolfe_search_tests_a_first_trial_level_with_f0_for_curvature():
    # f0 + c1*a*slope0 rounds to f0 = 1e16, so a first trial equal to f0
    # passes sufficient decrease and must not be bracketed against a = 0
    assert wolfe_search_1d(lambda a: (1e16, 0.0), slope0=-1.0)[0] == (1.0, 1, True)


def test_lbfgsb_rejects_non_finite_objective():
    def broken(x):
        return np.nan, np.zeros_like(x)

    with pytest.raises(NumericalError):
        lbfgsb(broken, x0=np.zeros(2))


def test_lbfgsb_argument_validation():
    with pytest.raises(ValueError):
        lbfgsb(lambda x: (0.0, np.zeros_like(x)))  # callable without x0
    with pytest.raises(TypeError):
        lbfgsb(object())
    with pytest.raises(ValueError):
        lbfgsb(lambda x: (0.0, np.zeros_like(x)), lower=1.0, upper=0.0, x0=np.zeros(2))


def test_lbfgsb_respects_general_boxes():
    # minimize 1/2 (x-3)^2 with x <= 1: optimum pinned at the upper bound
    result = lbfgsb(Objective("l2", scalar_system(1.0, 3.0), 0.0),
                    lower=-np.inf, upper=1.0)
    assert result.x[0] == 1.0
    assert result.converged


def _cauchy_walk(x, g, lower, upper, theta):
    """Reference: the breakpoint walk along P(x - t g) that minimizes the
    model with B = theta I segment by segment."""
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


def _random_box(rng):
    """Bounds with infinite sides, x in the box (some on a bound), a
    gradient with zero entries and gamma in [1e-4, 1e2]."""
    n = int(rng.integers(1, 25))
    lower = np.where(rng.random(n) < 0.3, -np.inf, rng.uniform(-5.0, 5.0, n))
    base = np.where(np.isfinite(lower), lower, rng.uniform(-5.0, 5.0, n))
    width = rng.exponential(2.0, n)
    width[rng.random(n) < 0.1] = 0.0
    upper = np.where(rng.random(n) < 0.3, np.inf, base + width)
    lo = np.where(np.isfinite(lower), lower, np.minimum(base, upper) - 10.0 * rng.random(n))
    hi = np.where(np.isfinite(upper), upper, lo + 10.0 * rng.random(n))
    x = lo + rng.random(n) * (hi - lo)
    r = rng.random(n)
    x = np.where((r < 0.2) & np.isfinite(lower), lower, x)
    x = np.where((r > 0.8) & np.isfinite(upper), upper, x)
    g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    g[rng.random(n) < 0.15] = 0.0
    return x, g, lower, upper, 10.0 ** rng.uniform(-4.0, 2.0)


def test_cauchy_point_matches_breakpoint_walk():
    rng = np.random.default_rng(1995)
    for _ in range(2000):
        x, g, lower, upper, gamma = _random_box(rng)
        assert np.all((lower <= x) & (x <= upper))
        x_walk, active_walk = _cauchy_walk(x, g, lower, upper, 1.0 / gamma)
        x_cp, active = _cauchy_point(x, g, lower, upper, gamma)
        # relative to the size of the operands of x - gamma g
        scale = np.abs(x) + gamma * np.abs(g)
        assert np.all(np.abs(x_cp - x_walk) <= 1e-14 * scale)
        # the walk may stop at its last breakpoint, where x - t g rounds
        # just short of the bound it heads to, and call that variable free
        heading = np.where(g > 0, lower, upper)
        near = np.abs(x_walk - heading) <= 1e-14 * np.maximum(1.0, np.abs(heading))
        assert not np.any((active != active_walk) & ~near)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(memory=0)
    with pytest.raises(ValueError):
        SolverConfig(pgtol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(row_order="alphabetical")
    with pytest.raises(ValueError):
        SolverConfig(projection="clamp")
    with pytest.raises(ValueError):
        SolverConfig(sweeps=-1)
    with pytest.raises(ValueError, match="sweeps must be positive"):
        SolverConfig(sweeps=0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        SolverConfig(seed=-1)


def test_kaczmarz_unregularized_single_row():
    result = kaczmarz_reg(scalar_system(1.0, 2.0), 0.0, SolverConfig(sweeps=1))
    assert result.x[0] == 2.0
    assert result.converged and result.iterations == 1


def test_kaczmarz_regularized_single_row_first_sweep():
    # beta = (2 - 0 - 0) / (1 + 1) = 1: x = 1 and the dual picks up sqrt(alpha)
    result = kaczmarz_reg(scalar_system(1.0, 2.0), 1.0, SolverConfig(sweeps=1))
    assert result.x[0] == 1.0


def test_kaczmarz_regularized_fixed_point():
    # after one sweep (x, v) = (1, 1) solves the augmented row exactly,
    # so the second sweep leaves the iterate untouched
    result = kaczmarz_reg(scalar_system(1.0, 2.0), 1.0, SolverConfig(sweeps=2))
    assert result.x[0] == 1.0


def test_kaczmarz_projection_modes():
    system = scalar_system(1.0, -2.0)
    keep = kaczmarz_reg(system, 0.0, SolverConfig(sweeps=1, projection="none"))
    assert keep.x[0] == -2.0
    clamped = kaczmarz_reg(system, 0.0, SolverConfig(sweeps=1, projection="sweep"))
    assert clamped.x[0] == 0.0
    with pytest.raises(ValueError):
        SolverConfig(projection="row")


def test_kaczmarz_converges_to_tikhonov_minimizer(rng):
    a = rng.standard_normal((60, 15))
    a /= np.linalg.svd(a, compute_uv=False)[0]
    x_true = rng.uniform(0.5, 2.0, 15)
    y = a @ x_true + 0.01 * rng.standard_normal(60)
    alpha = 1e-2
    oracle = np.linalg.solve(a.T @ a + alpha * np.eye(15), a.T @ y)
    system = ReducedSystem(a, y)
    result = kaczmarz_reg(system, alpha, SolverConfig(sweeps=400, projection="none"))
    rel = np.linalg.norm(result.x - oracle) / np.linalg.norm(oracle)
    assert rel < 1e-3


def test_kaczmarz_snapshots_and_nonnegativity(rng):
    system = random_system(rng, 30, 6, normalized=True)
    cfg = SolverConfig(sweeps=12, record_snapshots=True)
    result = kaczmarz_reg(system, 1e-2, cfg)
    assert len(result.snapshots) == 12
    for snap in result.snapshots:
        assert np.all(snap >= 0.0)
    assert np.array_equal(result.snapshots[-1], result.x)


def test_kaczmarz_shuffled_determinism(rng):
    system = random_system(rng, 20, 5, normalized=True)
    cfg = dict(sweeps=15, row_order="shuffled", projection="none")
    a = kaczmarz_reg(system, 1e-2, SolverConfig(seed=4, **cfg))
    b = kaczmarz_reg(system, 1e-2, SolverConfig(seed=4, **cfg))
    c = kaczmarz_reg(system, 1e-2, SolverConfig(seed=5, **cfg))
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)


def test_kaczmarz_skips_zero_rows():
    a = np.array([[0.0], [1.0]])
    y = np.array([5.0, 2.0])
    result = kaczmarz_reg(ReducedSystem(a, y), 0.0, SolverConfig(sweeps=1))
    assert result.x[0] == 2.0  # the zero row contributes nothing


def test_kaczmarz_validation():
    with pytest.raises(ValueError):
        kaczmarz_reg(ReducedSystem(np.zeros((2, 2)), np.ones(2)), 0.0)
    with pytest.raises(ValueError):
        kaczmarz_reg(scalar_system(1.0, 1.0), -0.5)


def test_kaczmarz_objective_value_is_l2_value():
    system = scalar_system(2.0, 3.0)
    result = kaczmarz_reg(system, 0.5, SolverConfig(sweeps=40))
    value, _ = Objective("l2", system, 0.5).evaluate(result.x)
    assert result.objective_value == value


def _kaczmarz_loop(system, alpha, cfg):
    """The straightforward row loop with numpy scalars, kept as an oracle
    for the bits of kaczmarz_reg: returns x and the per-sweep snapshots."""
    a_mat, y = system.A, system.y
    n, m = a_mat.shape
    sqa = float(np.sqrt(alpha))
    row_norm2 = np.einsum("ij,ij->i", a_mat, a_mat)
    usable = np.nonzero(row_norm2 > 0.0)[0]
    x = np.zeros(m)
    v = np.zeros(n)
    rng = np.random.default_rng(cfg.seed)
    snapshots = []
    denom = row_norm2 + alpha
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
        if cfg.projection == "sweep":
            np.maximum(x, 0.0, out=x)
        snapshots.append(x.copy())
    return x, snapshots


@pytest.mark.parametrize("row_order", ["sequential", "shuffled"])
@pytest.mark.parametrize("projection", ["sweep", "none"])
@pytest.mark.parametrize("alpha", [0.0, 0.37])
def test_kaczmarz_matches_plain_row_loop_bitwise(rng, row_order, projection, alpha):
    a = rng.standard_normal((40, 9)) * 10.0 ** rng.uniform(-3, 3, (40, 1))
    a[[3, 17, 31]] = 0.0  # zero rows are skipped, and shift the shuffle indices
    system = ReducedSystem(a, rng.standard_normal(40) * 5.0)
    cfg = SolverConfig(sweeps=7, row_order=row_order, projection=projection,
                       seed=11, record_snapshots=True)
    result = kaczmarz_reg(system, alpha, cfg)
    x, snapshots = _kaczmarz_loop(system, alpha, cfg)
    assert result.x.tobytes() == x.tobytes()
    assert len(result.snapshots) == len(snapshots) == 7
    for got, want in zip(result.snapshots, snapshots):
        assert got.tobytes() == want.tobytes()


def test_kaczmarz_rejects_non_finite_result():
    # finite data whose objective overflows: x stays 0, 0.5 * (1e200)^2 = inf
    with pytest.raises(NumericalError):
        kaczmarz_reg(ReducedSystem([[1e200, 1.0]], [1e200]), 0.0)
    # finite data whose first row update overflows x itself
    with pytest.raises(NumericalError):
        kaczmarz_reg(scalar_system(1e-160, 1e160), 0.0,
                     SolverConfig(sweeps=2, record_snapshots=True))


def test_solver_result_shape():
    result = SolverResult(np.zeros(2), 0.0, 0.0, 0, True)
    assert result.snapshots is None
