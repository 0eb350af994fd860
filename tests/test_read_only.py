"""A checked value stays checked: the arrays of a point set, a density model
and a recurrence are read-only copies, and pickle, copy and
`dataclasses.replace` rebuild each through its constructor, which checks it."""

import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from gpcquad import (
    DensityModel,
    InvariantViolation,
    MonotoneData,
    NumericalError,
    RecurrenceCoeffs,
    SampleSet,
    cdf_eval,
    compute_recurrence,
    default_delta,
    fit_cubic,
    fit_rational,
    fit_transform,
    gauss_rule,
    moments,
    pdf_eval,
    select_points,
)
from gpcquad.interp import IDENTITY_TRANSFORM

FIELDS = {MonotoneData: ("x", "y"), DensityModel: ("x", "y", "slopes"), RecurrenceCoeffs: ("gamma", "kappa")}


@pytest.fixture(scope="module")
def built():
    """A point set, both fits of it and a recurrence from the cubic fit, with
    the samples, ECDF, basis and rule they come from or give."""
    values = np.random.default_rng(1).normal(size=2000)
    transform, cdf = fit_transform(values, default_delta(values))
    data = select_points(cdf, 20)
    cubic = fit_cubic(data, transform=transform)
    rational = fit_rational(data, transform=transform)
    rec, basis = compute_recurrence(moments(cubic, 9), 4)
    return {"points": data, "cubic": cubic, "rational": rational, "recurrence": rec,
            "samples": SampleSet(values=values, seed=1), "ecdf": cdf, "basis": basis, "rule": gauss_rule(rec)}


KINDS = ["points", "cubic", "rational", "recurrence"]


def _arrays(value):
    return [getattr(value, name) for name in FIELDS[type(value)]]


@pytest.mark.parametrize("kind", KINDS)
def test_every_array_refuses_an_in_place_write(built, kind):
    value = built[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in FIELDS[type(value)]:
            array = getattr(value, name)
            before = array.tobytes()
            assert array.dtype == np.float64 and not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[1] = math.nan
            with pytest.raises(ValueError, match="read-only"):
                array += 1.0
            for owner in (array, array.base):  # no flag can be set back
                with pytest.raises(ValueError, match="cannot set WRITEABLE flag to True"):
                    owner.flags.writeable = True
            assert getattr(value, name).tobytes() == before


def test_a_model_keeps_no_array_it_was_given():
    # the constructor copies, so writing into the caller's arrays afterwards
    # leaves the model as it was checked
    x = np.array([0.0, 0.5, 1.0])
    slopes = np.ones(3)
    model = fit_cubic(MonotoneData(x=x, y=x))
    hand_built = DensityModel("cubic", x, x.copy(), slopes, model.transform)
    slopes[1] = math.nan
    x[1] = 0.9
    assert hand_built.slopes.tobytes() == np.ones(3).tobytes()
    assert hand_built.x.tobytes() == model.x.tobytes() == np.array([0.0, 0.5, 1.0]).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cdf_eval(hand_built, 0.25) == 0.25 and pdf_eval(hand_built, 0.25) == 1.0


def test_complex_arrays_are_refused():
    # a cast to float would drop the imaginary parts without an error; the
    # recurrence used to accept a complex gamma as it was
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match="^expected real values, got complex128$"):
            MonotoneData(x=np.array([0.0, 0.5, 1.0]) + 1j, y=[0.0, 0.5, 1.0])
        with pytest.raises(TypeError, match="^expected real values, got complex128$"):
            DensityModel("cubic", [0.0, 0.5, 1.0], [0.0, 0.5, 1.0], np.ones(3) + 1j, IDENTITY_TRANSFORM)
        with pytest.raises(TypeError, match="^expected real values, got complex128$"):
            RecurrenceCoeffs(gamma=[0.5 + 1j], kappa=[1.0])


def _copies(value):
    """Every way to copy a value: pickle at each protocol, copy, deepcopy
    and `dataclasses.replace`."""
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield f"pickle-{protocol}", pickle.loads(pickle.dumps(value, protocol))
    yield "copy", copy.copy(value)
    yield "deepcopy", copy.deepcopy(value)
    yield "replace", dataclasses.replace(value)


@pytest.mark.parametrize("kind", ["points", "cubic", "recurrence", "samples", "ecdf", "basis", "rule"])
def test_equality_and_hash_do_not_raise(built, kind):
    # the six types that hold arrays compare and hash by identity (`==`
    # raised numpy's untyped ValueError, `hash` TypeError); a basis compares
    # and hashes through its recurrence
    value = built[kind]
    twin = copy.copy(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        same = kind == "basis"  # copy.copy shares a basis's recurrence
        assert value == value and (value == twin) is same and (value != twin) is not same
        assert len({value, twin}) == (1 if same else 2)


@pytest.mark.parametrize("kind", KINDS)
def test_copies_are_read_only_with_the_same_bytes(built, kind):
    value = built[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for how, again in _copies(value):
            assert type(again) is type(value), how
            for want, got in zip(_arrays(value), _arrays(again)):
                assert got.tobytes() == want.tobytes() and got.dtype == want.dtype, how
                assert not got.flags.writeable, how
            if isinstance(value, DensityModel):
                assert (again.variant, again.transform) == (value.variant, value.transform), how


def _spoil(blob: bytes, array: np.ndarray, index: int, value: float) -> bytes:
    """The pickle `blob` with entry `index` of `array`'s bytes set to `value`."""
    raw = array.tobytes()
    assert blob.count(raw) == 1
    spoiled = array.copy()
    spoiled[index] = value
    return blob.replace(raw, spoiled.tobytes())


@pytest.mark.parametrize("protocol", range(3, pickle.HIGHEST_PROTOCOL + 1))  # bytes are raw from 3 on
@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_loading_a_pickle_runs_the_check(built, variant, protocol):
    # a model's pickle whose slope bytes were overwritten with a NaN loaded,
    # unchecked, while unpickling skipped `__post_init__`
    model = built[variant]
    blob = _spoil(pickle.dumps(model, protocol), model.slopes, 2, math.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match="^non-finite values in slopes$"):
            pickle.loads(blob)


def test_loading_a_pickled_point_set_or_recurrence_runs_the_check(built):
    data, rec = built["points"], built["recurrence"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match="^ordinates must be non-decreasing$"):
            pickle.loads(_spoil(pickle.dumps(data), data.y, 2, -1.0))
        with pytest.raises(NumericalError, match=r"^kappa_1 = -1\.000000e\+00 is not positive$"):
            pickle.loads(_spoil(pickle.dumps(rec), rec.kappa, 1, -1.0))
