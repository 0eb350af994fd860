"""End-to-end sanity against known distributions: the fitted density should
track the truth to within Monte Carlo resolution, and back-transformed
moments should reproduce the sample statistics."""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from conftest import mixture_values
import gpcquad.pipeline
from gpcquad import (
    SYNTHETIC_MODEL,
    VARIANTS,
    DegenerateSamplesError,
    GpcquadError,
    NumericalError,
    cdf_original,
    compute_recurrence,
    fit_density,
    fit_variant,
    gauss_rule,
    integrate,
    moments,
    orthonormality_error,
    parse_model,
    pdf_original,
    rule_from_model,
    rules_from_model,
    sample,
    select_from_samples,
)


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_recovers_normal_cdf(variant):
    rng = np.random.default_rng(42)
    values = rng.normal(2.0, 0.5, 200_000)
    model = fit_density(values, m=45, variant=variant)
    grid = np.linspace(0.5, 3.5, 400)
    # Dvoretzky-Kiefer-Wolfowitz scale at this N is ~3e-3
    dev = np.max(np.abs(cdf_original(model, grid) - norm.cdf(grid, 2.0, 0.5)))
    assert dev < 0.01


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_recovers_uniform_pdf(variant):
    rng = np.random.default_rng(7)
    values = rng.uniform(-1.0, 3.0, 200_000)
    model = fit_density(values, m=30, variant=variant)
    interior = np.linspace(-0.8, 2.8, 200)
    np.testing.assert_allclose(pdf_original(model, interior), 0.25, rtol=0.08)


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_back_transformed_moments_match_sample_statistics(variant):
    rng = np.random.default_rng(3)
    values = np.concatenate(
        [rng.normal(-1.0, 0.4, 150_000), rng.normal(1.5, 0.8, 150_000)]
    )
    transform, points = select_from_samples(values, 45)
    m = moments(fit_variant(points, variant, transform), 2)
    mean = transform.a + transform.b * m[1]
    var = transform.b**2 * (m[2] - m[1] ** 2)
    assert mean == pytest.approx(values.mean(), abs=0.01)
    assert var == pytest.approx(values.var(), rel=0.02)


def test_rule_expectation_matches_sample_mean():
    rng = np.random.default_rng(12)
    values = rng.gamma(3.0, 2.0, 200_000)
    transform, points = select_from_samples(values, 45)
    rule = rule_from_model(fit_variant(points, "cubic", transform), 4)[3]
    mean = integrate(rule, lambda x: transform.a + transform.b * x)
    assert mean == pytest.approx(values.mean(), abs=0.05)


def test_fit_density_rejects_unknown_variant():
    values = np.random.default_rng(1).normal(size=2000)
    with pytest.raises(ValueError, match="unknown variant"):
        fit_density(values, variant="cubc")


def _support_failure_model():
    # perfbench's mixture-fine dataset at seed 4, job 25 (m = 200): the
    # moment route's degree-10 cubic rule has its lowest node at -0.679
    values = mixture_values(np.random.default_rng([4, 25]), size=20000)
    return fit_density(values, m=200, variant="cubic")


def test_rule_from_model_refuses_nodes_outside_the_support():
    model = _support_failure_model()
    assert (model.x[0], model.x[-1]) == (0.0, 1.0)
    with pytest.raises(NumericalError, match=r"node -0\.678657 lies outside .* support \[0, 1\]"):
        rule_from_model(model, 10)
    rule = rule_from_model(model, 4)[3]
    assert np.all((rule.nodes >= 0.0) & (rule.nodes <= 1.0))


def _bits(outcome):
    """Everything a rule outcome holds, as bytes; an error as its class and
    message."""
    if isinstance(outcome, GpcquadError):
        return type(outcome), str(outcome)
    mom, rec, basis, rule, eps = outcome
    return (
        mom.tobytes(), rec.gamma.tobytes(), rec.kappa.tobytes(),
        tuple(c.tobytes() for c in basis.phi_coeffs),
        rule.nodes.tobytes(), rule.weights.tobytes(), float(eps).hex(),
    )


def _outcome(chain):
    try:
        return chain()
    except GpcquadError as exc:
        return exc


def _prefix_chain(mom, degree):
    """The chain for one degree on a prefix of M_0..M_21, step by step."""
    prefix = mom[: 2 * degree + 2]
    rec, basis = compute_recurrence(prefix, degree)
    rule = gauss_rule(rec)
    return prefix, rec, basis, rule, orthonormality_error(basis, rule)


def _bit_models():
    values = sample(parse_model(SYNTHETIC_MODEL), 200_000, seed=1).values
    yield select_from_samples(values, 45)
    for j in range(4):
        values = mixture_values(np.random.default_rng([1, j]), size=20000)
        yield select_from_samples(values, 200)


@pytest.mark.parametrize("variant", VARIANTS)
def test_rules_from_model_has_the_bits_of_each_degree_alone(variant):
    degrees = (4, 10, 2)
    for transform, points in _bit_models():
        model = fit_variant(points, variant, transform)
        rules = rules_from_model(model, degrees)
        assert list(rules) == list(degrees)
        mom = moments(model, 21)
        for d in degrees:
            got = _bits(rules[d])
            assert got == _bits(_outcome(lambda: rule_from_model(model, d)))
            assert got == _bits(_outcome(lambda: _prefix_chain(mom, d)))


def test_rules_from_model_keeps_the_degrees_that_succeed():
    model = _support_failure_model()
    rules = rules_from_model(model, (4, 10))
    assert isinstance(rules[10], NumericalError)
    assert "node -0.678657 lies outside" in str(rules[10])
    rule = rules[4][3]
    assert np.all((rule.nodes >= 0.0) & (rule.nodes <= 1.0))
    assert _bits(rules[4]) == _bits(rule_from_model(model, 4))


def test_acceptance_builds_its_rules_through_the_pipeline():
    # criteria 1-7 check the route the CLI and scripts run, so none may wire
    # its own chain from samples to a rule
    source = Path(__file__).with_name("test_acceptance.py")
    private = {"compute_recurrence", "fit_transform", "default_delta", "select_points", "FITTERS"}
    found = [
        (node.lineno, name)
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        for name in (getattr(node, "id", None), getattr(node, "attr", None),
                     node.name if isinstance(node, ast.alias) else None)
        if name in private
    ]
    assert found == []


def _counting_moments(monkeypatch):
    calls = []

    def counted(model, kmax):
        calls.append(kmax)
        return moments(model, kmax)

    monkeypatch.setattr(gpcquad.pipeline, "moments", counted)
    return calls


def test_rules_from_model_takes_the_moments_once(monkeypatch):
    model = fit_density(mixture_values(np.random.default_rng(8)), m=30)
    calls = _counting_moments(monkeypatch)
    rules_from_model(model, (4, 10, 2))
    assert calls == [21]
    rule_from_model(model, 3)
    assert calls == [21, 7]


@pytest.mark.parametrize(
    "degrees, message",
    [((), "no degree given"), ((4, 11), "got 11"), ((-1, 4), "got -1")],
    ids=["empty", "above-cap", "negative"],
)
def test_rules_from_model_checks_degrees_before_any_moment(monkeypatch, degrees, message):
    model = fit_density(mixture_values(np.random.default_rng(8)), m=30)
    calls = _counting_moments(monkeypatch)
    with pytest.raises(ValueError, match=message):
        rules_from_model(model, degrees)
    assert calls == []


def test_a_moment_failure_stops_every_degree(monkeypatch):
    model = fit_density(mixture_values(np.random.default_rng(8)), m=30)
    failure = NumericalError("moments failed")

    def failing(model, kmax):
        raise failure

    monkeypatch.setattr(gpcquad.pipeline, "moments", failing)
    assert rules_from_model(model, (4, 10)) == {4: failure, 10: failure}
    with pytest.raises(NumericalError, match="moments failed"):
        rule_from_model(model, 4)


@pytest.mark.parametrize("degree", [4.5, 4.0, True, "4"], ids=["fraction", "float", "bool", "str"])
def test_degrees_must_be_integers(monkeypatch, degree):
    model = fit_density(mixture_values(np.random.default_rng(8)), m=30)
    calls = _counting_moments(monkeypatch)
    message = rf"degree must be an integer, got {degree!r}$"
    with pytest.raises(ValueError, match=message):
        rule_from_model(model, degree)
    with pytest.raises(ValueError, match=message):
        rules_from_model(model, (4, degree))
    with pytest.raises(ValueError, match=message):
        compute_recurrence(moments(model, 11), degree)
    assert calls == []


def test_numpy_integer_degrees_are_accepted():
    model = fit_density(mixture_values(np.random.default_rng(8)), m=30)
    assert _bits(rule_from_model(model, np.int64(4))) == _bits(rule_from_model(model, 4))
    rules = rules_from_model(model, (np.int32(2), 4))
    assert _bits(rules[2]) == _bits(rule_from_model(model, 2))


@pytest.mark.parametrize(
    "values, message",
    [
        (np.array([]), r"need at least 2 samples, got 0$"),
        (np.array([1.5]), r"need at least 2 samples, got 1$"),
        (np.zeros((1000, 2)), r"samples must be a 1-D array, got shape \(1000, 2\)$"),
        (np.ones((3, 2)), r"samples must be a 1-D array, got shape \(3, 2\)$"),
        (np.array(2.0), r"samples must be a 1-D array, got shape \(\)$"),
    ],
    ids=["empty", "one", "two-columns", "ones-3x2", "0-d"],
)
@pytest.mark.parametrize("delta", [None, 0.1], ids=["default-delta", "delta"])
def test_sample_arrays_must_be_1d_with_two_values(values, message, delta):
    with pytest.raises(DegenerateSamplesError, match=message):
        fit_density(values, m=10, delta=delta)
    with pytest.raises(DegenerateSamplesError, match=message):
        select_from_samples(values, 10, delta)
