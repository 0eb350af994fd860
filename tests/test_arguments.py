"""One contract for every integer argument of the public API: a bool, a float
or a string raises the argument's documented error naming it, and so does a
value outside its range; a numpy integer gives the bits of the same int."""

import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest

from gpcquad import (
    DEGREE_CAP,
    M_MAX,
    MOMENT_CAP,
    SYNTHETIC_MODEL,
    SelectionError,
    compute_recurrence,
    default_delta,
    draw_samples,
    eval_basis,
    fit_cubic,
    fit_rational,
    fit_transform,
    moments,
    moments_cubic,
    moments_rational,
    numeric_moment_oracle,
    parse_model,
    rules_from_model,
    sample,
    select_points,
)

BASIS_DEGREE = 4

# argument: (call(fixtures, value), name in the message, lo, hi or None, error)
ARGUMENTS = {
    "sample count": (lambda f, v: sample(f.surrogate, v, 1), "count", 0, None, ValueError),
    "sample seed": (lambda f, v: sample(f.surrogate, 64, v), "seed", 0, None, ValueError),
    "draw_samples count": (lambda f, v: draw_samples(f.cubic, v, 1), "count", 0, None, ValueError),
    "draw_samples seed": (lambda f, v: draw_samples(f.cubic, 64, v), "seed", 0, None, ValueError),
    "select_points m": (lambda f, v: select_points(f.cdf, v), "m", 2, M_MAX, SelectionError),
    "rules_from_model degrees": (
        lambda f, v: rules_from_model(f.cubic, (2, v)), "degree", 0, DEGREE_CAP, ValueError),
    "compute_recurrence degree": (
        lambda f, v: compute_recurrence(f.moments, v), "degree", 0, DEGREE_CAP, ValueError),
    "moments kmax": (lambda f, v: moments(f.rational, v), "kmax", 0, MOMENT_CAP, ValueError),
    "moments_cubic kmax": (lambda f, v: moments_cubic(f.cubic, v), "kmax", 0, MOMENT_CAP, ValueError),
    "moments_rational kmax": (
        lambda f, v: moments_rational(f.rational, v), "kmax", 0, MOMENT_CAP, ValueError),
    "numeric_moment_oracle k": (
        lambda f, v: numeric_moment_oracle(f.rational, v), "k", 0, None, ValueError),
    "eval_basis i": (
        lambda f, v: eval_basis(f.basis, v, f.x), "basis index", 0, BASIS_DEGREE, IndexError),
}


@pytest.fixture(scope="module")
def fixtures():
    values = np.random.default_rng(27).normal(size=2000)
    transform, cdf = fit_transform(values, default_delta(values))
    points = select_points(cdf, 20)
    cubic = fit_cubic(points, transform)
    mom = moments(cubic, 2 * DEGREE_CAP + 1)
    return SimpleNamespace(
        surrogate=parse_model(SYNTHETIC_MODEL), cdf=cdf, cubic=cubic,
        rational=fit_rational(points, transform), moments=mom,
        basis=compute_recurrence(mom, BASIS_DEGREE)[1], x=np.linspace(0.0, 1.0, 7),
    )


def _bits(obj):
    """Every value obj holds, as bytes, through tuples, dicts and dataclasses."""
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, field.name) for field in dataclasses.fields(obj)]
    if isinstance(obj, dict):
        obj = list(obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(_bits(item) for item in obj)
    return np.asarray(obj).dtype.str, np.asarray(obj).tobytes()


@pytest.mark.parametrize("argument", ARGUMENTS)
def test_integer_argument_contract(fixtures, argument):
    call, name, lo, hi, error = ARGUMENTS[argument]
    for value in (True, np.True_, 4.0, "4"):
        with pytest.raises(error, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
            call(fixtures, value)
    outside = [lo - 1] if hi is None else [lo - 1, hi + 1]
    for value in outside:
        bound = f"at least {lo}" if hi is None else rf"within \[{lo}, {hi}\]"
        with pytest.raises(error, match=rf"^{name} must be {bound}, got {value}$"):
            call(fixtures, value)
    assert _bits(call(fixtures, np.int64(4))) == _bits(call(fixtures, 4))
