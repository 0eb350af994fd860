"""Memory guard for the front end sample -> fit_transform -> select_points:
no stage may build temporaries as long as the sample beyond what it returns.
Peaks are read with tracemalloc, which numpy reports its array buffers to."""

import tracemalloc

from gpcquad import (
    SYNTHETIC_MODEL,
    default_delta,
    fit_transform,
    parse_model,
    sample,
    select_points,
)

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
    # the drawn columns, the output array and block-sized temporaries
    assert sample_peak <= (model.dim + 2) * UNIT, sample_peak / UNIT
    # the samples held by the caller and their sorted normalized copy
    assert fit_peak <= 2.2 * UNIT, fit_peak / UNIT
    assert select_peak - held <= 0.5 * UNIT, (select_peak - held) / UNIT
