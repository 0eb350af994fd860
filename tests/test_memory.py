"""Memory guards for the front end sample -> fit_transform -> select_points
and for draw_samples, load_samples and the row writer: no stage may build
temporaries as long as the sample beyond what it returns. Peaks are read
with tracemalloc, which numpy reports its array buffers to."""

import re
import tracemalloc

import numpy as np
import pytest

from gpcquad import (
    SYNTHETIC_MODEL,
    Distribution,
    MonotoneData,
    default_delta,
    draw_samples,
    fit_cubic,
    fit_rational,
    fit_transform,
    load_samples,
    parse_model,
    sample,
    save_monotone_csv,
    save_samples,
    select_points,
)
from gpcquad.surrogate import SurrogateModel

N = 200_000
UNIT = 8 * N  # bytes in one float64 array as long as the sample


def test_front_end_holds_no_full_length_temporaries():
    model = parse_model(SYNTHETIC_MODEL)
    sample(model, 1000, seed=0)  # warm up lazy set-up outside the trace
    tracemalloc.start()
    try:
        samples = sample(model, N, seed=1)
        sample_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _, cdf = fit_transform(samples.values, default_delta(samples.values))
        held, fit_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        select_points(cdf, 45)
        select_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two slots (xi1 + 0.5*exp(0.52*xi2) and sin(xi3)) and block-sized temporaries
    assert sample_peak <= 2.2 * UNIT, sample_peak / UNIT
    # the samples held by the caller and their sorted normalized copy; the
    # order check runs in chunks, not over a mask as long as the sample
    assert fit_peak <= 2.1 * UNIT, fit_peak / UNIT
    assert select_peak - held <= 0.5 * UNIT, (select_peak - held) / UNIT


def test_sample_of_a_million_holds_two_full_length_arrays():
    # at N = 2e5 block temporaries set the peak; here the two slots do, and
    # the freed sin(xi3) slot must be gone before the finite check's mask
    count = 1_000_000
    model = parse_model(SYNTHETIC_MODEL)
    sample(model, 1000, seed=0)
    peak = peak_of(lambda: sample(model, count, seed=1))
    assert peak <= 2.1 * 8 * count, peak / (8 * count)


SUM_OF_TERMS = "".join(f"x{i} ~ {'N(0, 1)' if i % 2 else 'U(-1, 2)'}\n" for i in range(6)) + (
    "f = x0 + sin(x1) + 2*x2 - x3^2 + exp(x4) + abs(x5)\n"
)
# 20 terms share each variable: one slot per term ending at x0 would be 20
PRODUCTS = "x0 ~ N(0, 1)\nx1 ~ U(-1, 2)\nf = %s\n" % " + ".join(
    f"{0.5 + k}*x0^{k % 5}*x1^{k // 5}" for k in range(20)
)


@pytest.mark.parametrize(
    "source, bound",
    # sum: the output alone, each term added to it while its variable is drawn;
    # products: x0's column, then the output in its buffer
    [(SUM_OF_TERMS, 1.2), (PRODUCTS, 1.3)],
    ids=["sum-of-terms", "products"],
)
def test_sample_holds_one_full_length_array(source, bound):
    model = parse_model(source)
    sample(model, 1000, seed=0)
    tracemalloc.start()
    try:
        sample(model, N, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * UNIT, peak / UNIT


def test_a_right_leaning_sum_holds_a_few_blocks():
    # sin(x) + (sin(x) + (... + sin(x))), built directly: run in written
    # order, each of the 2000 pending terms held a block, 131.6 MB in all
    terms, count = 2000, 8192
    model = SurrogateModel(("x",), (Distribution("gaussian", 0.0, 1.0),),
                           (("var", 0), ("fun", "sin")) * terms + (("add",),) * (terms - 1))
    sample(model, 100, seed=0)
    got = []
    peak = peak_of(lambda: got.append(sample(model, count, seed=5).values))
    term = np.sin(np.random.default_rng(5).normal(0.0, 1.0, count))
    want = term
    for _ in range(terms - 1):  # term + want, as want + term: addition commutes
        want = want + term
    assert got[0].tobytes() == want.tobytes()
    # the planner's lists for 6000 instructions (about 1.6 MB) and a few blocks
    assert peak <= 4e6, peak


def peak_of(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def synthetic_sample():
    return sample(parse_model(SYNTHETIC_MODEL), N, seed=1).values


@pytest.mark.parametrize("fit", [fit_cubic, fit_rational], ids=["cubic", "rational"])
def test_draw_samples_holds_one_full_length_array(synthetic_sample, fit):
    transform, cdf = fit_transform(synthetic_sample, default_delta(synthetic_sample))
    model = fit(select_points(cdf, 45), transform=transform)
    draw_samples(model, 1000, seed=0)
    # the output, and the inversion's temporaries for one block of draws
    peak = peak_of(lambda: draw_samples(model, N, seed=1))
    assert peak <= 1.5 * UNIT, peak / UNIT


@pytest.mark.parametrize("form", ["plain", "csv-header", "underscores"])
def test_load_samples_holds_one_full_length_array(synthetic_sample, tmp_path, form):
    path = tmp_path / "samples.txt"
    save_samples(synthetic_sample, path)
    if form == "csv-header":  # the empty second field sends every row through the row pass
        path.write_text("value,\n" + path.read_text().replace("\n", ",\n"))
    if form == "underscores":  # `float()` reads `_` between digits, in batches
        path.write_text(re.sub(r"(\d)(\d)", r"\1_\2", path.read_text()))
    assert load_samples(path).tobytes() == synthetic_sample.tobytes()
    # the values and the strings of one batch of lines: no path holds the
    # file's text or a string for every row
    peak = peak_of(lambda: load_samples(path))
    assert peak <= 1.5 * UNIT, peak / UNIT


def test_save_samples_holds_no_string_per_value(synthetic_sample, tmp_path):
    path = tmp_path / "samples.txt"
    save_samples(synthetic_sample[:1000], path)
    # one block's floats, their tuple and its text; no `str` per value
    peak = peak_of(lambda: save_samples(synthetic_sample, path))
    assert peak <= 0.6 * UNIT, peak / UNIT


def test_save_monotone_csv_holds_no_string_per_row(tmp_path):
    x, small = np.linspace(0.0, 1.0, N), np.linspace(0.0, 1.0, 1000)
    data = MonotoneData(x=x, y=x * x)
    path = tmp_path / "points.csv"
    save_monotone_csv(MonotoneData(x=small, y=small * small), path)
    # one batch's floats, their tuple and its text; no `str` per row, and not
    # the file's whole text, which the CSV writer used to build
    peak = peak_of(lambda: save_monotone_csv(data, path))
    assert peak <= 0.6 * UNIT, peak / UNIT
