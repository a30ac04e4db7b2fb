import numpy as np
import pytest

from robust_recon.errors import NumericalError
from robust_recon.preprocess import ReducedSystem
from robust_recon.solvers import (
    Objective,
    SolverConfig,
    SolverResult,
    eval_l1s,
    eval_l2,
    kaczmarz_reg,
    lbfgsb,
    project_nonneg,
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
    value, grad = eval_l2(Objective("l2", system, 2.0), np.array([1.0, 1.0]))
    assert value == 3.0
    assert np.array_equal(grad, [3.0, 3.0])


def test_eval_l2_matches_normal_equations(rng):
    system = random_system(rng, 12, 7)
    a, y = system.A, system.y
    for _ in range(5):
        x = rng.standard_normal(7)
        alpha = float(rng.uniform(0.0, 2.0))
        _, grad = eval_l2(Objective("l2", system, alpha), x)
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
    value, _ = eval_l1s(objective, np.array([3.0, -4.0]))
    assert abs(value - 7.0) <= 2e-12


def test_eval_l1s_monotone_in_epsilon():
    system = ReducedSystem(np.eye(3), np.zeros(3))
    x = np.array([0.5, -2.0, 0.0])
    values = [
        eval_l1s(Objective("l1s", system, 0.0, epsilon=eps), x)[0]
        for eps in (1e-12, 1e-9, 1e-6, 1e-3)
    ]
    assert values == sorted(values)


def test_eval_l1s_zero_residual():
    n = 4
    target = np.array([1.0, -2.0, 3.0, 0.5])
    system = ReducedSystem(np.eye(n), target)
    objective = Objective("l1s", system, 0.0, epsilon=1e-9)
    value, grad = eval_l1s(objective, target)
    assert value == n * 1e-9
    assert np.array_equal(grad, np.zeros(n))


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


def test_project_nonneg():
    assert np.array_equal(project_nonneg(np.array([1.0, -2.0, 0.0])), [1.0, 0.0, 0.0])
    x = np.array([0.5, -1.0])
    assert np.array_equal(project_nonneg(project_nonneg(x)), project_nonneg(x))


def test_project_nonneg_nonexpansive(rng):
    for _ in range(100):
        x = 5.0 * rng.standard_normal(6)
        y = 5.0 * rng.standard_normal(6)
        lhs = np.linalg.norm(project_nonneg(x) - project_nonneg(y))
        assert lhs <= np.linalg.norm(x - y) + 1e-15


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


def test_lbfgsb_trace_is_monotone(rng):
    system = random_system(rng, 25, 10)
    result = lbfgsb(Objective("l2", system, 1e-3), SolverConfig(record_trace=True))
    trace = np.asarray(result.objective_trace)
    assert trace.size >= 2
    assert np.all(np.diff(trace) <= 0.0)
    assert result.objective_value == trace[-1]


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
    per_row = kaczmarz_reg(system, 0.0, SolverConfig(sweeps=1, projection="row"))
    assert per_row.x[0] == 0.0


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
    assert result.snapshots is None and result.objective_trace is None
