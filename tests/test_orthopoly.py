import math

import numpy as np
import pytest
from scipy.integrate import quad

from gpcquad import (
    DEGREE_CAP,
    KappaNotPositiveError,
    compute_recurrence,
    eval_basis,
    fit_cubic,
    fit_rational,
    load_basis,
    moments,
    pdf_eval,
    save_basis,
)
from gpcquad.orthopoly import basis_from_dict, basis_to_dict
from conftest import diagonal_data, random_selected_data

UNIFORM_MOMENTS = 1.0 / (np.arange(30) + 1.0)


def shifted_legendre_kappa(i):
    # kappa_i of the monic recurrence for the uniform density on [0, 1]
    return i * i / (4.0 * (4.0 * i * i - 1.0))


def test_uniform_degree_one_closed_forms():
    rec, basis = compute_recurrence(UNIFORM_MOMENTS, 1)
    assert rec.gamma[0] == pytest.approx(0.5, abs=1e-14)
    assert rec.kappa[0] == 1.0
    assert rec.kappa[1] == pytest.approx(1 / 12, rel=1e-13)
    np.testing.assert_allclose(basis.monic_coeffs[1], [-0.5, 1.0], atol=1e-14)
    # phi_1 = sqrt(12) (x - 1/2) = sqrt(3) (2x - 1)
    assert eval_basis(basis, 1, 1.0) == pytest.approx(math.sqrt(3), rel=1e-12)
    assert eval_basis(basis, 1, 0.5) == pytest.approx(0.0, abs=1e-13)


def test_uniform_norm_against_integral_oracle():
    rec, basis = compute_recurrence(UNIFORM_MOMENTS, 1)
    pi1 = np.polynomial.Polynomial(basis.monic_coeffs[1])
    val, _ = quad(lambda x: pi1(x) ** 2, 0.0, 1.0, epsabs=1e-14)
    assert val == pytest.approx(1 / 12, rel=1e-12)
    assert val == pytest.approx(rec.kappa[1] * rec.kappa[0], rel=1e-12)


def test_uniform_higher_degree_recurrence():
    rec, _ = compute_recurrence(UNIFORM_MOMENTS, 6)
    np.testing.assert_allclose(rec.gamma, 0.5, atol=1e-7)
    # the moments->recurrence map amplifies the O(eps) input rounding by
    # roughly 1e1 per level; low levels are tight, high levels drift
    for i, rel in zip(range(1, 7), (1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-7)):
        assert rec.kappa[i] == pytest.approx(shifted_legendre_kappa(i), rel=rel)


def test_phi0_is_one_and_leading_coefficients_monic(rng):
    data, transform, _ = random_selected_data(rng)
    model = fit_cubic(data, transform=transform)
    rec, basis = compute_recurrence(moments(model, 11), 5)
    assert basis.phi_coeffs[0].tolist() == [1.0]
    for i, coeffs in enumerate(basis.monic_coeffs):
        assert coeffs[-1] == 1.0
        assert len(coeffs) == i + 1
    xs = rng.uniform(0, 1, 50)
    np.testing.assert_array_equal(eval_basis(basis, 0, xs), np.ones(50))


def test_gamma0_kappa1_identities(rng):
    for fitter in (fit_cubic, fit_rational):
        data, transform, _ = random_selected_data(rng)
        model = fitter(data, transform=transform)
        m = moments(model, 5)
        rec, _ = compute_recurrence(m, 2)
        assert rec.gamma[0] == pytest.approx(m[1], rel=1e-13)
        assert rec.kappa[1] == pytest.approx(m[2] - m[1] ** 2, rel=1e-10)


def test_symmetric_density_gamma_is_center():
    # uniform density is symmetric about 1/2
    rec, _ = compute_recurrence(UNIFORM_MOMENTS, 2)
    np.testing.assert_allclose(rec.gamma, 0.5, atol=1e-12)


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_orthonormality_integral_oracle(rng, variant):
    fitter = fit_cubic if variant == "cubic" else fit_rational
    data, transform, _ = random_selected_data(rng, atoms=False, m_range=(6, 15))
    model = fitter(data, transform=transform)
    n_hat = 4
    rec, basis = compute_recurrence(moments(model, 2 * n_hat + 1), n_hat)
    polys = [np.polynomial.Polynomial(basis.phi_coeffs[i]) for i in range(n_hat + 1)]
    for i in range(n_hat + 1):
        for j in range(i, n_hat + 1):
            val = 0.0
            for piece in range(model.n - 1):
                lo, hi = model.x[piece], model.x[piece + 1]
                if model.y[piece + 1] == model.y[piece]:
                    continue
                part, _ = quad(
                    lambda x: polys[i](x) * polys[j](x) * pdf_eval(model, x),
                    lo,
                    hi,
                    epsabs=1e-12,
                    limit=200,
                )
                val += part
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)


def test_recurrence_eval_matches_horner(rng):
    data, transform, _ = random_selected_data(rng)
    model = fit_cubic(data, transform=transform)
    n_hat = 6
    rec, basis = compute_recurrence(moments(model, 2 * n_hat + 1), n_hat)
    xs = rng.uniform(0.0, 1.0, 200)
    # independent path: three-term recurrence with running normalization
    pim1, pi = np.zeros_like(xs), np.ones_like(xs)
    norm = 1.0
    for i in range(n_hat + 1):
        np.testing.assert_allclose(
            eval_basis(basis, i, xs), pi / norm, rtol=1e-10, atol=1e-10
        )
        nxt = (xs - rec.gamma[i]) * pi - rec.kappa[i] * pim1
        pim1, pi = pi, nxt
        norm *= math.sqrt(rec.kappa[min(i + 1, n_hat)]) if i < n_hat else 1.0


def test_two_point_measure_trips_kappa_error():
    # a density carried by two points has kappa_2 = 0
    a, b = 0.3, 0.7
    m = 0.5 * (a ** np.arange(8) + b ** np.arange(8))
    with pytest.raises(KappaNotPositiveError) as err:
        compute_recurrence(m, 3)
    # kappa_2 = 0 exactly; roundoff decides whether the tripwire sees it at
    # index 2 or first goes negative at index 3
    assert err.value.index in (2, 3)


def test_degree_and_moment_guards():
    with pytest.raises(ValueError):
        compute_recurrence(UNIFORM_MOMENTS, DEGREE_CAP + 1)
    with pytest.raises(ValueError):
        compute_recurrence(UNIFORM_MOMENTS[:4], 2)
    with pytest.raises(IndexError):
        _, basis = compute_recurrence(UNIFORM_MOMENTS, 1)
        eval_basis(basis, 2, 0.5)


def test_kappa_positive_at_degree_eight(rng):
    for _ in range(6):
        for fitter in (fit_cubic, fit_rational):
            data, transform, _ = random_selected_data(rng, m_range=(8, 50))
            model = fitter(data, transform=transform)
            rec, _ = compute_recurrence(moments(model, 17), 8)
            assert np.all(rec.kappa > 0)


def test_basis_json_round_trip(tmp_path, rng):
    data, transform, _ = random_selected_data(rng)
    model = fit_rational(data, transform=transform)
    rec, basis = compute_recurrence(moments(model, 9), 4)
    path = tmp_path / "basis.json"
    save_basis(rec, basis, path)
    rec2, basis2 = load_basis(path)
    np.testing.assert_array_equal(rec2.gamma, rec.gamma)
    np.testing.assert_array_equal(rec2.kappa, rec.kappa)
    for i in range(5):
        np.testing.assert_array_equal(basis2.phi_coeffs[i], basis.phi_coeffs[i])


def test_basis_document_without_phi_coeffs_is_malformed(tmp_path, rng):
    data, transform, _ = random_selected_data(rng)
    rec, basis = compute_recurrence(moments(fit_cubic(data, transform=transform), 5), 2)
    doc = basis_to_dict(rec, basis)
    del doc["phi_coeffs"]
    with pytest.raises(ValueError, match="malformed basis document"):
        basis_from_dict(doc)
