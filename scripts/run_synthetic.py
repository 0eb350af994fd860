#!/usr/bin/env python3
"""Full-scale synthetic demo: a million samples of the built-in nonlinear
model, both density fits, degree-4 basis and 5-point rules, with timing
and the orthonormality error of each rule.

Usage: python scripts/run_synthetic.py [N] [m] [degree] [seed]
"""

import sys
import time

import numpy as np

import gpcquad as gq


def main(n_samples=1_000_000, m=45, degree=4, seed=2026):
    model = gq.parse_model(gq.SYNTHETIC_MODEL)
    print(gq.print_model(model).rstrip())

    t0 = time.time()
    draws = gq.sample(model, n_samples, seed=seed)
    t1 = time.time()
    print(f"\n{n_samples} samples in {t1 - t0:.2f}s  "
          f"(mean {draws.values.mean():.4f}, std {draws.values.std():.4f})")

    transform, data = gq.select_from_samples(draws.values, m)
    print(f"selected n = {data.n} points with m = {m}; "
          f"a = {transform.a:.4f}, b = {transform.b:.4f}")

    for variant in gq.VARIANTS:
        t2 = time.time()
        density = gq.fit_variant(data, variant, transform)
        mom, _, _, rule, eps = gq.rule_from_model(density, degree)
        dt = (time.time() - t2) * 1e3
        print(f"\n[{variant}]  fit + basis + rule in {dt:.1f} ms")
        print(f"  moments M_1..M_4: "
              + "  ".join(f"{v:.6f}" for v in mom[1:5]))
        print(f"  {'node':>12} {'weight':>12} {'node (original)':>18}")
        for x, w in zip(rule.nodes, rule.weights):
            print(f"  {x:12.6f} {w:12.6f} {transform.denormalize(x):18.6f}")
        print(f"  orthonormality error = {eps:.3e}")


if __name__ == "__main__":
    args = [int(float(a)) for a in sys.argv[1:]]
    main(*args)
