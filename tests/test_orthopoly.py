import json
import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from gpcquad import (
    DEGREE_CAP,
    InvariantViolation,
    KappaNotPositiveError,
    NumericalError,
    OrthonormalBasis,
    RecurrenceCoeffs,
    compute_recurrence,
    eval_basis,
    fit_cubic,
    fit_rational,
    load_basis,
    moments,
    pdf_eval,
    save_basis,
)
from gpcquad.orthopoly import basis_from_dict, basis_to_dict, basis_values
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
    # phi_1 = sqrt(12) (x - 1/2) = sqrt(3) (2x - 1)
    np.testing.assert_allclose(basis.phi_coeffs[1], [-math.sqrt(3), 2 * math.sqrt(3)], rtol=1e-13)
    assert eval_basis(basis, 1, 1.0) == pytest.approx(math.sqrt(3), rel=1e-12)
    assert eval_basis(basis, 1, 0.5) == pytest.approx(0.0, abs=1e-13)


def test_eval_basis_returns_a_float_for_a_0d_array():
    _, basis = compute_recurrence(UNIFORM_MOMENTS, 2)
    # a 0-d array gives a float, as a Python float does (and as in ecdf_eval)
    for x in (np.array(0.3), np.float64(0.3), 0.3):
        got = eval_basis(basis, 2, x)
        assert type(got) is float and got == eval_basis(basis, 2, np.array([0.3]))[0]
    assert eval_basis(basis, 2, np.array([0.3])).shape == (1,)


@pytest.mark.parametrize("evaluate", [lambda b, x: eval_basis(b, 2, x), basis_values],
                         ids=["eval_basis", "basis_values"])
def test_basis_refuses_non_finite_and_overflowing_points(evaluate):
    # formerly NaN gave NaN, inf gave inf, and 1e300 leaked numpy's overflow
    # RuntimeWarning before returning inf
    _, basis = compute_recurrence(UNIFORM_MOMENTS, 2)
    for x, shown, index in ((np.nan, "nan", 0), (np.inf, "inf", 0), ([0.5, -np.inf], "-inf", 1),
                            (np.array([[0.5], [np.nan]]), "nan", 1)):
        with pytest.raises(ValueError, match=rf"^cannot evaluate the basis at a non-finite point: "
                                             rf"x is {shown} at index {index}$"):
            evaluate(basis, x)
    for x, index in ((1e300, 0), ([0.5, 1e300], 1), (np.array([[0.5], [1e300]]), 1)):
        with pytest.raises(NumericalError, match=rf"^the basis overflows float64 at x = 1e\+300 \(index {index}\)$"):
            evaluate(basis, x)


def test_uniform_norm_against_integral_oracle():
    rec, basis = compute_recurrence(UNIFORM_MOMENTS, 1)
    pi1 = np.polynomial.Polynomial(basis.phi_coeffs[1]) * math.sqrt(rec.kappa[1])
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
    norms = np.sqrt(np.cumprod(rec.kappa))
    for i, coeffs in enumerate(basis.phi_coeffs):
        assert coeffs[-1] * norms[i] == pytest.approx(1.0, rel=1e-15)
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
    # independent path: Horner on the published monomial coefficients
    for i in range(n_hat + 1):
        np.testing.assert_allclose(
            eval_basis(basis, i, xs),
            np.polynomial.polynomial.polyval(xs, basis.phi_coeffs[i]),
            rtol=1e-10,
            atol=1e-10,
        )


def test_two_point_measure_trips_kappa_error():
    # a density carried by two points has kappa_2 = 0
    a, b = 0.3, 0.7
    m = 0.5 * (a ** np.arange(8) + b ** np.arange(8))
    with pytest.raises(KappaNotPositiveError) as err:
        compute_recurrence(m, 3)
    # kappa_2 = 0 exactly; roundoff decides whether the tripwire sees it at
    # index 2 or first goes negative at index 3
    assert err.value.index in (2, 3)


@pytest.mark.parametrize("m0", [0.0, -0.5, np.nan])
def test_a_total_mass_that_is_not_positive_trips_kappa_error_at_index_0(m0):
    m = UNIFORM_MOMENTS.copy()
    m[0] = m0
    with pytest.raises(KappaNotPositiveError, match="^" + re.escape(f"kappa_0 = {m0:.6e} is not positive;")) as err:
        compute_recurrence(m, 2)
    assert err.value.index == 0


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
    # every file save_basis writes loads back to the same recurrence and,
    # derived from it, the same published coefficients, bit for bit
    path = tmp_path / "basis.json"
    for fitter in (fit_cubic, fit_rational):
        data, transform, _ = random_selected_data(rng)
        model = fitter(data, transform=transform)
        for n_hat in range(DEGREE_CAP + 1):
            try:
                rec, basis = compute_recurrence(moments(model, 2 * n_hat + 1), n_hat)
            except KappaNotPositiveError:
                break
            save_basis(basis, path)
            rec2, basis2 = load_basis(path)
            assert (rec2.gamma.tobytes(), rec2.kappa.tobytes()) == (rec.gamma.tobytes(), rec.kappa.tobytes())
            assert [c.tobytes() for c in basis2.phi_coeffs] == [c.tobytes() for c in basis.phi_coeffs]


def test_basis_document_without_phi_coeffs_is_malformed(tmp_path, rng):
    data, transform, _ = random_selected_data(rng)
    _, basis = compute_recurrence(moments(fit_cubic(data, transform=transform), 5), 2)
    doc = basis_to_dict(basis)
    del doc["phi_coeffs"]
    with pytest.raises(InvariantViolation, match="malformed basis document"):
        basis_from_dict(doc)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("gamma", lambda g: g[:1], "recurrence has 1 gamma but 3 kappa coefficients"),
        ("degree", lambda d: d + 2, "degree 4 needs 5 entries in gamma and kappa, got 3"),
        ("phi_coeffs", lambda c: c[:-1], "degree 2 needs 3 entries in phi_coeffs, got 2"),
        ("phi_coeffs", lambda c: [c[0], c[1][:-1], c[2]],
         r"phi_coeffs\[1\] = \[\S+\] is not \[\S+, \S+\], the phi_1 its gamma and kappa give"),
        ("gamma", lambda g: [g[0], float("nan"), g[2]], "gamma_1 = nan is not finite"),
        ("kappa", lambda k: [k[0], -0.5, k[2]], r"kappa_1 = -5\.000000e-01 is not positive"),
        ("kappa", lambda k: [4.0, k[1], k[2]], r"kappa_0 = 4\.0 is not 1"),
        ("phi_coeffs", lambda c: [c[0], c[1], [c[2][0], np.nextafter(c[2][1], np.inf), c[2][2]]],
         r"phi_coeffs\[2\] = \[\S+, \S+, \S+\] is not \[\S+, \S+, \S+\], the phi_2 its gamma"),
    ],
    ids=["short-gamma", "degree-too-large", "short-phi-coeffs", "short-phi-entry",
         "nan-gamma", "negative-kappa", "kappa-0-not-one", "phi-entry-off-by-one-ulp"],
)
def test_basis_document_lengths_must_agree(rng, field, value, message):
    # the recurrence checks itself, and phi_coeffs must be the ones it
    # gives; a NaN gamma or a negative kappa used to load, and eval_basis
    # then leaked numpy's "invalid value encountered in sqrt"
    data, transform, _ = random_selected_data(rng)
    _, basis = compute_recurrence(moments(fit_cubic(data, transform=transform), 5), 2)
    doc = basis_to_dict(basis)
    doc[field] = value(doc[field])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match="^malformed basis document: " + message):
            basis_from_dict(doc)


@pytest.mark.parametrize(
    "text, message",
    [("[1, 2]", "expected a JSON object, got list"), ('"basis"', "expected a JSON object, got str"),
     ("not json", "{path} is not JSON: Expecting value")],
    ids=["list", "string", "not-json"],
)
def test_load_basis_refuses_a_document_that_is_not_a_json_object(tmp_path, text, message):
    # a JSON array used to raise AttributeError, and text that is not JSON a
    # JSONDecodeError that named neither the file nor the kind of document
    path = tmp_path / "basis.json"
    path.write_text(text)
    message = re.escape(message.format(path=path))
    with pytest.raises(InvariantViolation, match=f"^malformed basis document: {message}"):
        load_basis(path)
    if text != "not json":
        with pytest.raises(InvariantViolation, match=f"^malformed basis document: {message}$"):
            basis_from_dict(json.loads(text))


def test_basis_document_of_another_format_version_is_refused():
    # formerly a plain ValueError, where a model document of another version
    # raised InvariantViolation
    doc = {"format_version": 2, "degree": 0, "gamma": [0.5], "kappa": [1.0], "phi_coeffs": [[1.0]]}
    with pytest.raises(InvariantViolation, match="^unsupported basis format version 2$"):
        basis_from_dict(doc)


@pytest.mark.parametrize(
    "kappa, index, norm",
    [([1.0] + [1e-40] * 10, 9, "0.0"), ([1.0] + [1e300] * 3, 2, "inf")],
    ids=["underflow", "overflow"],
)
def test_phi_coeffs_refuse_a_norm_outside_float64(tmp_path, kappa, index, norm):
    # the recurrence checks out, but sqrt(kappa_0 ... kappa_i) leaves
    # float64's range; the underflow used to leak numpy's "divide by zero"
    # and return inf coefficients, from save_basis and load_basis too, and
    # save_basis must not leave a file behind
    basis = OrthonormalBasis(RecurrenceCoeffs(gamma=np.zeros(len(kappa)), kappa=np.array(kappa)))
    message = rf"the norm sqrt\(kappa_0 \.\.\. kappa_{index}\) = {norm} of phi_{index} is not finite and positive in float64"
    doc = {"format_version": 1, "degree": basis.degree, "gamma": basis.rec.gamma.tolist(),
           "kappa": basis.rec.kappa.tolist(), "phi_coeffs": [[1.0]] * len(kappa)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"^{message}$"):
            basis.phi_coeffs
        with pytest.raises(NumericalError, match=f"^{message}$"):
            save_basis(basis, tmp_path / "basis.json")
        assert not (tmp_path / "basis.json").exists()
        with pytest.raises(InvariantViolation, match=f"^malformed basis document: {message}$"):
            basis_from_dict(doc)


@pytest.mark.parametrize(
    "gamma, kappa, index",
    [([1e40] * 11, [1.0] * 11, 8), ([1e200, 0.0], [1.0, 1e-320], 1)],
    ids=["monic-overflow", "division-overflow"],
)
def test_phi_coeffs_refuse_coefficients_outside_float64(tmp_path, gamma, kappa, index):
    # every norm is finite and positive, but phi_index's coefficients are
    # not: the monic pi_8's (1e40)^8 overflows in the first case, and the
    # division of pi_1 by a norm of 1e-160 in the second; the first used to
    # leak numpy's "overflow encountered in multiply"
    basis = OrthonormalBasis(RecurrenceCoeffs(gamma=np.array(gamma), kappa=np.array(kappa)))
    message = f"the coefficients of phi_{index} are not finite in float64"
    doc = {"format_version": 1, "degree": basis.degree, "gamma": gamma, "kappa": kappa,
           "phi_coeffs": [[1.0]] * len(kappa)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"^{message}$"):
            basis.phi_coeffs
        with pytest.raises(NumericalError, match=f"^{message}$"):
            save_basis(basis, tmp_path / "basis.json")
        assert not (tmp_path / "basis.json").exists()
        with pytest.raises(InvariantViolation, match=f"^malformed basis document: {message}$"):
            basis_from_dict(doc)


@pytest.mark.parametrize(
    "gamma, kappa, message",
    [
        ([], [], "gamma and kappa must be non-empty 1-D arrays"),
        ([[0.5, 0.5]], [[1.0, 0.1]], "gamma and kappa must be non-empty 1-D arrays"),
        (0.5, 1.0, "gamma and kappa must be non-empty 1-D arrays"),
    ],
    ids=["empty", "two-dimensional", "scalar"],
)
def test_recurrence_checks_itself_when_built(gamma, kappa, message):
    with pytest.raises(NumericalError, match=f"^{message}$"):
        RecurrenceCoeffs(gamma=np.array(gamma), kappa=np.array(kappa))
