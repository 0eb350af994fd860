import math

import numpy as np
import pytest

from gpcquad import (
    EigenConvergenceError,
    NumericalError,
    RecurrenceCoeffs,
    compute_recurrence,
    default_delta,
    fit_cubic,
    fit_rational,
    fit_transform,
    gauss_rule,
    integrate,
    moments,
    orthonormality_error,
    select_points,
)
from gpcquad.orthopoly import eval_basis
from gpcquad.quadrature import QuadratureRule
from conftest import diagonal_data, mixture_values, random_selected_data

UNIFORM_MOMENTS = 1.0 / (np.arange(30) + 1.0)


def uniform_recurrence(n_hat):
    rec, basis = compute_recurrence(UNIFORM_MOMENTS, n_hat)
    return rec, basis


def test_gauss_rule_degree_zero_and_bad_kappa():
    rec, _ = uniform_recurrence(0)
    rule = gauss_rule(rec)
    assert rule.nodes.tolist() == [0.5] and rule.weights.tolist() == [1.0]
    # the recurrence refuses itself when it is built, so no rule is reached
    with pytest.raises(NumericalError, match="kappa_1 = -1.000000e-01 is not positive"):
        gauss_rule(RecurrenceCoeffs(gamma=np.array([0.5, 0.5]), kappa=np.array([1.0, -0.1])))


def test_gauss_rule_shape_guard():
    with pytest.raises(NumericalError, match="2 gamma but 1 kappa"):
        gauss_rule(RecurrenceCoeffs(gamma=np.array([0.5, 0.5]), kappa=np.array([1.0])))


def test_gauss_rule_maps_a_solver_failure_to_eigen_convergence_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigenConvergenceError, match="did not converge"):
        gauss_rule(uniform_recurrence(2)[0])


@pytest.mark.parametrize(
    "values, first_row, message",
    [
        ([0.2, 0.8], [1.0, 1e-5], r"^eigenvector first-row norm defect 1\.00e-10 exceeds 1e-12; "
                                  r"eigensolve unreliable$"),
        ([0.2, 0.8], [1.0, 0.0], r"^non-positive quadrature weight$"),
        ([0.5, 0.5], [0.6, 0.8], r"^quadrature nodes are not strictly increasing$"),
    ],
    ids=["norm-defect", "zero-weight", "equal-nodes"],
)
def test_gauss_rule_refuses_an_unreliable_eigensolve(monkeypatch, values, first_row, message):
    def solved(_):
        vectors = np.eye(2)
        vectors[0] = first_row
        return np.array(values), vectors

    monkeypatch.setattr(np.linalg, "eigh", solved)
    with pytest.raises(NumericalError, match=message):
        gauss_rule(uniform_recurrence(1)[0])


def test_gauss_rule_uniform_two_point():
    rec, _ = uniform_recurrence(1)
    rule = gauss_rule(rec)
    np.testing.assert_allclose(
        rule.nodes, [(3 - math.sqrt(3)) / 6, (3 + math.sqrt(3)) / 6], rtol=1e-12
    )
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], rtol=1e-12)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_integrate_constant_and_cubic_exactness():
    rec, _ = uniform_recurrence(1)
    rule = gauss_rule(rec)
    assert integrate(rule, lambda x: 1.0) == pytest.approx(1.0, abs=1e-15)
    # degree 3 <= 2*1+1: exact for the uniform density
    assert integrate(rule, lambda x: x**3) == pytest.approx(0.25, rel=1e-13)
    with pytest.raises(NumericalError):
        integrate(rule, lambda x: float("nan"))


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_exactness_against_analytic_moments(rng, variant):
    fitter = fit_cubic if variant == "cubic" else fit_rational
    for _ in range(4):
        data, transform, _ = random_selected_data(rng)
        model = fitter(data, transform=transform)
        mom = moments(model, 13)
        for n_hat in range(0, 7):
            rec, _ = compute_recurrence(mom, n_hat)
            rule = gauss_rule(rec)
            for k in range(2 * n_hat + 2):
                got = float(np.dot(rule.weights, rule.nodes**k))
                assert abs(got - mom[k]) <= 1e-10 * max(1.0, abs(mom[k]))


def test_node_interlacing_and_support_hull(rng):
    data, transform, _ = random_selected_data(rng)
    model = fit_cubic(data, transform=transform)
    mom = moments(model, 15)
    rules = [gauss_rule(compute_recurrence(mom, n)[0]) for n in range(0, 7)]
    for small, big in zip(rules, rules[1:]):
        assert np.all(small.nodes > big.nodes[:-1]) and np.all(small.nodes < big.nodes[1:])
    for rule in rules:
        assert np.all(rule.nodes > model.x[0]) and np.all(rule.nodes < model.x[-1])
        assert np.all(rule.weights > 0)


def test_orthonormality_error_uniform_and_mismatch():
    rec, basis = uniform_recurrence(1)
    rule = gauss_rule(rec)
    assert orthonormality_error(basis, rule) <= 1e-13
    rec2, basis2 = uniform_recurrence(2)
    with pytest.raises(ValueError):
        orthonormality_error(basis2, rule)


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_orthonormality_error_fitted(rng, variant):
    fitter = fit_cubic if variant == "cubic" else fit_rational
    data, transform, _ = random_selected_data(rng)
    model = fitter(data, transform=transform)
    for n_hat in (2, 4, 6):
        rec, basis = compute_recurrence(moments(model, 2 * n_hat + 1), n_hat)
        assert orthonormality_error(basis, gauss_rule(rec)) <= 1e-10


def test_uniform_rule_from_diagonal_fit():
    model = fit_cubic(diagonal_data(6))
    rec, basis = compute_recurrence(moments(model, 3), 1)
    rule = gauss_rule(rec)
    np.testing.assert_allclose(
        rule.nodes, [(3 - math.sqrt(3)) / 6, (3 + math.sqrt(3)) / 6], atol=1e-10
    )
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-10)


@pytest.mark.parametrize(
    "gamma, kappa, message",
    [
        ([0.5, np.nan, 0.5], [1.0, 0.1, 0.1], "gamma_1 = nan is not finite"),
        ([0.5, 0.5, 0.5], [1.0, 0.1, np.nan], "kappa_2 = nan is not finite"),
        ([0.5, 0.5, np.inf], [1.0, 0.1, 0.1], "gamma_2 = inf is not finite"),
        ([0.5, 0.5, 0.5], [1.0, np.inf, 0.1], "kappa_1 = inf is not finite"),
    ],
    ids=["nan-gamma", "nan-kappa", "inf-gamma", "inf-kappa"],
)
def test_gauss_rule_names_a_non_finite_coefficient(gamma, kappa, message):
    with pytest.raises(NumericalError, match=message) as info:
        gauss_rule(RecurrenceCoeffs(gamma=np.array(gamma), kappa=np.array(kappa)))
    assert type(info.value) is NumericalError


# ---------------------------------------------------------------------------
# the basis through its recurrence
# ---------------------------------------------------------------------------


def reference_orthonormality_error(basis, rule):
    """orthonormality_error from one eval_basis call per function."""
    size = basis.degree + 1
    phi = np.empty((rule.size, size))
    for i in range(size):
        phi[:, i] = eval_basis(basis, i, rule.nodes)
    v = phi.T @ (phi * rule.weights[:, None])
    return float(np.max(np.sum(np.abs(np.eye(size) - v), axis=1)))


def shifted_uniform_moments(a, b, kmax):
    k = np.arange(kmax + 1) + 1.0
    return (b**k - a**k) / (k * (b - a))


@pytest.mark.parametrize("degree", [0, 4, 10])
def test_orthonormality_error_matches_per_function_reference(rng, degree):
    cases = []
    for fitter in (fit_cubic, fit_rational) * 4:
        data, transform, _ = random_selected_data(rng)
        mom = moments(fitter(data, transform=transform), 21)
        try:
            cases.append(compute_recurrence(mom[: 2 * degree + 2], degree))
        except NumericalError:  # point masses can leave too few support points
            continue
    assert len(cases) >= 4
    # a measure on [-1, 2]: the Gauss nodes leave [0, 1]
    cases.append(compute_recurrence(shifted_uniform_moments(-1.0, 2.0, 21), degree))
    for rec, basis in cases:
        rule = gauss_rule(rec)
        # the same basis at nodes stretched to [-0.5, 1.5] and pushed to [3, 5]
        for nodes in (rule.nodes, 2.0 * rule.nodes - 0.5, 3.0 + 2.0 * rule.nodes):
            moved = QuadratureRule(nodes=nodes, weights=rule.weights)
            got = orthonormality_error(basis, moved)
            assert repr(got) == repr(reference_orthonormality_error(basis, moved))
    assert np.any(gauss_rule(cases[-1][0]).nodes < 0.0) or degree == 0


def test_orthonormality_error_is_stable_under_one_ulp_node_moves():
    # Horner on the monomial coefficients moves the degree-4 error by up to
    # 6.6e-14 under these moves, as much as the error itself
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(40):
        values = mixture_values(rng, size=20_000)
        transform, cdf = fit_transform(values, default_delta(values))
        model = fit_cubic(select_points(cdf, 200), transform=transform)
        rec, basis = compute_recurrence(moments(model, 9), 4)
        rule = gauss_rule(rec)
        base = orthonormality_error(basis, rule)
        for toward in (-np.inf, np.inf):
            moved = QuadratureRule(np.nextafter(rule.nodes, toward), rule.weights)
            worst = max(worst, abs(orthonormality_error(basis, moved) - base))
    assert worst < 2e-14
