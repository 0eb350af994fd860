#!/usr/bin/env python3
"""Pipeline demo on an external sample file.

Generates a file of reciprocal-of-polynomial samples (the shape produced by
resonant-frequency surrogates), then runs the whole flow through the
file-ingestion path: load -> normalize -> select -> fit -> basis -> rule.

Usage: python scripts/run_from_samples.py [N] [m] [degree] [seed]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

import gpcquad as gq


def make_sample_file(path, n, seed):
    rng = np.random.default_rng(seed)
    # period-like quantity: positive quadratic in two parameters; the
    # observable is its reciprocal
    g1 = rng.normal(0.0, 1.0, n)
    g2 = rng.uniform(-1.0, 1.0, n)
    period = 6.5 + 0.9 * g1 + 0.35 * g2 + 0.12 * g1 * g1 + 0.05 * g1 * g2
    gq.save_samples(1.0 / period, path)


def main(n_samples=500_000, m=45, degree=4, seed=7):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "freq_samples.txt"
        make_sample_file(path, n_samples, seed)
        values = gq.load_samples(path)
        print(f"loaded {len(values)} samples from {path}")
    print(f"range [{values.min():.6f}, {values.max():.6f}], mean {values.mean():.6f}")

    transform, data = gq.select_from_samples(values, m)
    print(f"n = {data.n} interpolation points (m = {m})")

    for variant in gq.VARIANTS:
        density = gq.fit_variant(data, variant, transform)
        *_, rule, eps = gq.rule_from_model(density, degree)
        mean = gq.integrate(rule, lambda x: transform.a + transform.b * x)
        print(f"\n[{variant}]")
        print(f"  {'node':>12} {'weight':>12} {'node (original)':>18}")
        for x, w in zip(rule.nodes, rule.weights):
            print(f"  {x:12.6f} {w:12.6f} {transform.denormalize(x):18.6f}")
        print(f"  rule mean = {mean:.6f} (samples: {values.mean():.6f})")
        print(f"  orthonormality error = {eps:.3e}")


if __name__ == "__main__":
    args = [int(float(a)) for a in sys.argv[1:]]
    main(*args)
