import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpcquad import (
    EigenConvergenceError,
    JacobiMatrix,
    NumericalError,
    RecurrenceCoeffs,
    build_jacobi,
    compute_recurrence,
    fit_cubic,
    fit_rational,
    gauss_rule,
    integrate,
    moments,
    orthonormality_error,
    tridiag_eigen,
)
from gpcquad.orthopoly import eval_basis
from gpcquad.quadrature import QuadratureRule
from conftest import diagonal_data, random_selected_data

UNIFORM_MOMENTS = 1.0 / (np.arange(30) + 1.0)


def uniform_recurrence(n_hat):
    rec, basis = compute_recurrence(UNIFORM_MOMENTS, n_hat)
    return rec, basis


def test_build_jacobi_uniform_degree_one():
    rec, _ = uniform_recurrence(1)
    J = build_jacobi(rec)
    np.testing.assert_allclose(J.diag, [0.5, 0.5], atol=1e-13)
    np.testing.assert_allclose(J.offdiag, [math.sqrt(1 / 12)], rtol=1e-13)


def test_build_jacobi_degree_zero_and_bad_kappa():
    rec, _ = uniform_recurrence(0)
    J = build_jacobi(rec)
    assert J.diag.shape == (1,) and J.offdiag.shape == (0,)
    bad = RecurrenceCoeffs(gamma=np.array([0.5, 0.5]), kappa=np.array([1.0, -0.1]))
    with pytest.raises(NumericalError):
        build_jacobi(bad)


def test_tridiag_eigen_trivial_and_closed_form():
    vals, first = tridiag_eigen(JacobiMatrix(diag=np.array([0.7]), offdiag=np.array([])))
    assert vals[0] == 0.7 and first[0] == 1.0
    # 2x2: eigenvalues 1/2 -+ 1/sqrt(12), first-row squares 1/2 each
    J = JacobiMatrix(diag=np.array([0.5, 0.5]), offdiag=np.array([math.sqrt(1 / 12)]))
    vals, first = tridiag_eigen(J)
    np.testing.assert_allclose(
        vals, [0.5 - 1 / math.sqrt(12), 0.5 + 1 / math.sqrt(12)], rtol=1e-14
    )
    np.testing.assert_allclose(first**2, [0.5, 0.5], rtol=1e-13)


def test_tridiag_eigen_against_dense_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(2, 12))
        diag = rng.uniform(-2, 2, n)
        off = rng.uniform(0.05, 1.5, n - 1)
        vals, first = tridiag_eigen(JacobiMatrix(diag=diag, offdiag=off))
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        ref_vals, ref_vecs = np.linalg.eigh(dense)
        np.testing.assert_allclose(vals, ref_vals, atol=1e-12 * max(1, np.abs(diag).max()))
        np.testing.assert_allclose(first**2, ref_vecs[0] ** 2, atol=1e-11)
        assert abs((first**2).sum() - 1.0) <= 1e-12


def test_tridiag_eigen_shape_guard():
    with pytest.raises(NumericalError):
        tridiag_eigen(JacobiMatrix(diag=np.array([0.5, 0.5]), offdiag=np.array([])))


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
    # formerly: a QL convergence failure after 50 sweeps (nan), a
    # "non-positive quadrature weight" (inf gamma), or a leaked
    # RuntimeWarning from inside the QL (inf kappa)
    rec = RecurrenceCoeffs(gamma=np.array(gamma), kappa=np.array(kappa))
    with pytest.raises(NumericalError, match=message) as info:
        gauss_rule(rec)
    assert type(info.value) is NumericalError


def test_tridiag_eigen_rejects_a_non_finite_entry():
    with pytest.raises(NumericalError, match="non-finite entry"):
        tridiag_eigen(JacobiMatrix(diag=np.array([0.5, np.nan]), offdiag=np.array([0.0])))


# ---------------------------------------------------------------------------
# the list-based QL and the one-pass Horner against the array-based originals
# ---------------------------------------------------------------------------


def reference_tridiag_eigen(J):
    """The QL as it stood on numpy arrays and np.float64 scalars."""
    d = np.asarray(J.diag, dtype=float).copy()
    n = len(d)
    if len(J.offdiag) != n - 1:
        raise NumericalError(
            f"off-diagonal length {len(J.offdiag)} does not match size {n}"
        )
    e = np.zeros(n)
    e[: n - 1] = J.offdiag
    z = np.zeros(n)
    z[0] = 1.0
    for l in range(n):
        for sweep in range(50 + 1):
            m = n - 1
            for mm in range(l, n - 1):
                dd = abs(d[mm]) + abs(d[mm + 1])
                if abs(e[mm]) <= 1e-15 * dd:
                    m = mm
                    break
            if m == l:
                break
            if sweep == 50:
                raise EigenConvergenceError(
                    f"QL failed to converge for eigenvalue {l} after 50 sweeps"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    order = np.argsort(d, kind="stable")
    return d[order], z[order]


def outcome(solver, J):
    try:
        vals, first = solver(J)
    except NumericalError as exc:
        return type(exc), str(exc)
    return vals.tobytes(), first.tobytes()


@st.composite
def tridiagonals(draw):
    """Sizes 1-11 at scales 10^-300..10^300, with equal diagonals, zero
    off-diagonals and off-diagonals 1e-17 below the diagonal's scale."""
    n = draw(st.integers(1, 11))
    scale = 10.0 ** draw(st.integers(-300, 300))
    unit = st.floats(-4.0, 4.0)
    if draw(st.booleans()):
        diag = [draw(unit)] * n
    else:
        diag = draw(st.lists(unit, min_size=n, max_size=n))
    off = draw(st.lists(
        st.one_of(st.just(0.0), unit, unit.map(lambda v: v * 1e-17)),
        min_size=n - 1, max_size=n - 1,
    ))
    return JacobiMatrix(diag=np.array(diag) * scale, offdiag=np.array(off) * scale)


@settings(max_examples=400, deadline=None)
@given(tridiagonals())
@example(JacobiMatrix(diag=np.full(11, 1e300), offdiag=np.full(10, 1e283)))
@example(JacobiMatrix(diag=np.full(11, 1e-300), offdiag=np.zeros(10)))
@example(JacobiMatrix(diag=np.zeros(11), offdiag=np.full(10, 1e-300)))
def test_tridiag_eigen_matches_array_reference(J):
    assert outcome(tridiag_eigen, J) == outcome(reference_tridiag_eigen, J)


def reference_orthonormality_error(basis, rule):
    """orthonormality_error as it stood: one eval_basis call per function."""
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
