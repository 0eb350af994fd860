import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gpcquad import MonotoneData, interp, select_from_samples

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, code=0, **env):
    """`python *args` in a fresh interpreter that imports gpcquad from this
    checkout's src/, with `env` added to its environment. Asserts that it
    exits with `code`; returns the finished process, its output as text."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    return proc


def mixture_values(rng, size=3000, atoms=True):
    """Random mixture of Gaussians, uniforms and point masses. At size
    20000, with `rng = np.random.default_rng([seed, job])`, these are the
    perfbench mixture-fine datasets (`perfbench/workloads.py`)."""
    parts = []
    n_comp = int(rng.integers(1, 4))
    for _ in range(n_comp):
        n = size // n_comp
        kind = int(rng.integers(0, 3 if atoms else 2))
        if kind == 0:
            parts.append(rng.normal(rng.uniform(-3, 3), rng.uniform(0.05, 2.0), n))
        elif kind == 1:
            lo = rng.uniform(-4, 3)
            parts.append(rng.uniform(lo, lo + rng.uniform(0.1, 3.0), n))
        else:
            parts.append(np.full(n, rng.uniform(-3, 3)))
    values = np.concatenate(parts)
    if values.max() == values.min():
        values = np.concatenate([values, values + 1.0])
    return values


def random_selected_data(rng, size=3000, atoms=True, m_range=(5, 40)):
    """MonotoneData selected from a random sample mixture, plus transform."""
    values = mixture_values(rng, size=size, atoms=atoms)
    m = int(rng.integers(*m_range))
    transform, points = select_from_samples(values, m)
    return points, transform, m


def assert_exact_at_knots(model):
    """Each rising piece's kernels give its knot values and slopes bit for
    bit at t = 0 and t = 1, with no numpy warning: what `validate_model`
    reports as 0 without evaluating them."""
    pieces = model.pieces
    k = np.flatnonzero(pieces.dy != 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, values, slopes in ((0.0, pieces.y0, pieces.d0), (1.0, pieces.y1, pieces.d1)):
            assert interp._cdf_t(pieces, k, t).tobytes() == values[k].tobytes(), t
            assert interp._pdf_t(pieces, k, t).tobytes() == slopes[k].tobytes(), t


def diagonal_data(n=5):
    x = np.linspace(0.0, 1.0, n)
    return MonotoneData(x=x, y=x.copy())


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
