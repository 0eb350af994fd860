"""Command-line pipeline: samples or a model file in, density models,
bases, quadrature rules, samples, and plot data out.

Machine-readable JSON reports go to stdout; human-readable summaries go to
stderr. Exit codes: 0 success (all checks pass), 1 usage or input error,
2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .ecdf import default_delta, fit_transform, load_monotone_csv, select_points
from .errors import GpcquadError, NumericalError
from .interp import (
    DensityModel,
    cdf_eval,
    draw_samples,
    fit_cubic,
    fit_rational,
    load_model,
    pdf_eval,
    save_model,
    validate_model,
)
from .moments import moments
from .orthopoly import DEGREE_CAP, compute_recurrence, save_basis
from .quadrature import gauss_rule, orthonormality_error, rule_to_dict, save_rule, save_rule_csv
from .surrogate import SYNTHETIC_MODEL, load_samples, parse_model, sample, save_samples

__all__ = ["PipelineConfig", "main"]


@dataclass
class PipelineConfig:
    """Validated knobs of the fitting pipeline."""

    samples: int = 1_000_000
    seed: int = 0
    m: int = 45
    delta: float | None = None
    variant: str = "both"
    out: Path = Path(".")

    def validate(self) -> None:
        if self.samples < 2:
            raise ValueError(f"--samples must be at least 2, got {self.samples}")
        if self.m < 2:
            raise ValueError(f"--m must be at least 2, got {self.m}")
        if self.delta is not None and not self.delta > 0:
            raise ValueError(f"--delta must be positive, got {self.delta}")
        if self.variant not in ("cubic", "rational", "both"):
            raise ValueError(f"unknown variant {self.variant!r}")


def _emit(report: dict, summary: str) -> None:
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    sys.stderr.write(summary + "\n")


def _model_source(path_arg: str) -> str:
    if path_arg == "builtin:synthetic":
        return SYNTHETIC_MODEL
    return Path(path_arg).read_text(encoding="utf-8")


def _fit_checks(model: DensityModel, grid: int = 4096) -> dict:
    report = validate_model(model, raise_on_failure=False)
    xs = np.linspace(model.x[0], model.x[-1], grid)
    cdf = cdf_eval(model, xs)
    pdf = pdf_eval(model, xs)
    checks = {
        "hermite_value_max": report["hermite_value_max"],
        "hermite_slope_max": report["hermite_slope_max"],
        "c1_jump_max": report["c1_jump_max"],
        "derivative_min": report["derivative_min"],
        "monotone_grid": bool(np.all(np.diff(cdf) >= -1e-15)),
        "pdf_nonnegative_grid": bool(np.all(pdf >= 0.0)),
        "mass": float(cdf_eval(model, model.x[-1]) - cdf_eval(model, model.x[0])),
        "failures": report["failures"],
    }
    checks["ok"] = bool(
        report["ok"] and checks["monotone_grid"] and checks["pdf_nonnegative_grid"]
        and checks["mass"] == 1.0
    )
    return checks


def _cmd_fit(args) -> int:
    config = PipelineConfig(
        samples=args.samples,
        seed=args.seed,
        m=args.m,
        delta=args.delta,
        variant=args.variant,
        out=Path(args.out),
    )
    config.validate()
    config.out.mkdir(parents=True, exist_ok=True)

    if args.points:
        data = load_monotone_csv(args.points)
        transform = None  # identity: points are already in the unit coordinate
        stem = Path(args.points).stem
    else:
        if args.model:
            source = _model_source(args.model)
            model = parse_model(source)
            values = sample(model, config.samples, config.seed).values
            stem = "synthetic" if args.model == "builtin:synthetic" else Path(args.model).stem
        else:
            values = load_samples(args.data)
            stem = Path(args.data).stem
        delta = config.delta if config.delta is not None else default_delta(values)
        transform, cdf = fit_transform(values, delta)
        data = select_points(cdf, config.m)

    variants = ("cubic", "rational") if config.variant == "both" else (config.variant,)
    report = {
        "command": "fit",
        "n": data.n,
        "m": config.m,
        "knots": [[float(a), float(b)] for a, b in zip(data.x, data.y)],
        "variants": {},
    }
    if transform is not None:
        report["transform"] = {
            "a": transform.a,
            "b": transform.b,
            "delta": transform.delta,
        }
    all_ok = True
    for variant in variants:
        fitter = fit_cubic if variant == "cubic" else fit_rational
        density = fitter(data, transform=transform)
        out_file = config.out / f"{stem}-{variant}.json"
        save_model(density, out_file)
        checks = _fit_checks(density)
        all_ok = all_ok and checks["ok"]
        report["variants"][variant] = {"file": str(out_file), "checks": checks}
    report["ok"] = all_ok
    lines = [
        f"fitted {len(variants)} model(s) through n = {data.n} points"
    ] + [
        f"  {v}: {info['file']}  checks {'pass' if info['checks']['ok'] else 'FAIL'}"
        for v, info in report["variants"].items()
    ]
    _emit(report, "\n".join(lines))
    return 0 if all_ok else 2


def _cmd_basis(args) -> int:
    density = load_model(args.model)
    if not 0 <= args.degree <= DEGREE_CAP:
        raise ValueError(f"--degree must be within [0, {DEGREE_CAP}] (degree cap exceeded)")
    mom = moments(density, 2 * args.degree + 1)
    rec, basis = compute_recurrence(mom, args.degree)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    out_file = out / f"{Path(args.model).stem}-basis{args.degree}.json"
    save_basis(rec, basis, out_file)
    report = {
        "command": "basis",
        "file": str(out_file),
        "degree": args.degree,
        "gamma": rec.gamma.tolist(),
        "kappa": rec.kappa.tolist(),
        "moments": mom.tolist(),
        "ok": True,
    }
    table = "\n".join(
        f"  i={i}  gamma={g:+.12e}  kappa={k:.12e}"
        for i, (g, k) in enumerate(zip(rec.gamma, rec.kappa))
    )
    _emit(report, f"basis of degree {args.degree} -> {out_file}\n{table}")
    return 0


def _cmd_quad(args) -> int:
    density = load_model(args.model)
    if not 0 <= args.degree <= DEGREE_CAP:
        raise ValueError(f"--degree must be within [0, {DEGREE_CAP}] (degree cap exceeded)")
    mom = moments(density, 2 * args.degree + 1)
    rec, basis = compute_recurrence(mom, args.degree)
    rule = gauss_rule(rec)
    eps = orthonormality_error(basis, rule)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.model).stem
    json_file = out / f"{stem}-rule{args.degree}.json"
    csv_file = out / f"{stem}-rule{args.degree}.csv"
    save_rule(rule, json_file, density.transform)
    save_rule_csv(rule, csv_file, density.transform)
    report = {
        "command": "quad",
        "files": [str(json_file), str(csv_file)],
        "degree": args.degree,
        "orthonormality_error": eps,
        "ok": True,
    }
    report.update(rule_to_dict(rule, density.transform))
    rows = "\n".join(
        f"  x={x:.6f}  w={w:.6f}"
        for x, w in zip(rule.nodes, rule.weights)
    )
    _emit(report, f"{rule.size}-point rule -> {json_file}\n{rows}\n  eps = {eps:.3e}")
    return 0


def _cmd_sample(args) -> int:
    density = load_model(args.model)
    if args.count < 0:
        raise ValueError(f"--count must be non-negative, got {args.count}")
    values = (
        draw_samples(density, args.count, args.seed)
        if args.count
        else np.empty(0)
    )
    save_samples(values, args.out)
    report = {
        "command": "sample",
        "file": str(args.out),
        "count": args.count,
        "seed": args.seed,
        "ok": True,
    }
    _emit(report, f"wrote {args.count} samples -> {args.out}")
    return 0


def _cmd_plotdata(args) -> int:
    density = load_model(args.model)
    if args.grid < 2:
        raise ValueError(f"--grid must be at least 2, got {args.grid}")
    tr = density.transform
    step = tr.b / (args.grid - 1)
    npad = math.ceil(0.05 * (args.grid - 1))
    xhat = np.concatenate(
        (
            tr.a - step * np.arange(npad, 0, -1),
            np.linspace(tr.a, tr.a + tr.b, args.grid),
            tr.a + tr.b + step * np.arange(1, npad + 1),
        )
    )
    xn = tr.normalize(xhat)
    cdf = cdf_eval(density, xn)
    pdf = pdf_eval(density, xn) / tr.b
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("xhat,cdf,pdf\n")
        for a, b, c in zip(xhat, cdf, pdf):
            fh.write(f"{float(a)!r},{float(b)!r},{float(c)!r}\n")
    ok = bool(np.all(np.diff(cdf) >= -1e-15) and np.all(pdf >= 0.0))
    report = {
        "command": "plotdata",
        "file": str(args.out),
        "rows": len(xhat),
        "ok": ok,
    }
    _emit(report, f"wrote {len(xhat)} rows -> {args.out}")
    return 0 if ok else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpcquad",
        description="Fit physically consistent closed-form densities to "
        "surrogate-model samples and derive orthonormal polynomial bases "
        "and Gauss quadrature rules from them.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_fit = sub.add_parser("fit", help="fit density model(s) to a surrogate or sample file")
    src = p_fit.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="surrogate model file, or builtin:synthetic")
    src.add_argument("--data", help="sample file (one value per line or single-column CSV)")
    src.add_argument("--points", help="replay a fit from an exported x,y points CSV")
    p_fit.add_argument("--samples", type=int, default=1_000_000, help="Monte Carlo draws")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--m", type=int, default=45, help="point-selection control")
    p_fit.add_argument("--delta", type=float, default=None, help="range margin (default: 1e-3 of range)")
    p_fit.add_argument("--variant", choices=("cubic", "rational", "both"), default="both")
    p_fit.add_argument("--out", default=".", help="output directory")
    p_fit.set_defaults(func=_cmd_fit)

    p_basis = sub.add_parser("basis", help="orthonormal polynomial basis from a fitted model")
    p_basis.add_argument("model", help="fitted model JSON")
    p_basis.add_argument("--degree", type=int, default=4)
    p_basis.add_argument("--out", default=".")
    p_basis.set_defaults(func=_cmd_basis)

    p_quad = sub.add_parser("quad", help="Gauss quadrature rule from a fitted model")
    p_quad.add_argument("model", help="fitted model JSON")
    p_quad.add_argument("--degree", type=int, default=4)
    p_quad.add_argument("--out", default=".")
    p_quad.set_defaults(func=_cmd_quad)

    p_sample = sub.add_parser("sample", help="draw samples from a fitted model")
    p_sample.add_argument("model", help="fitted model JSON")
    p_sample.add_argument("--count", type=int, default=100_000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", default="samples.txt")
    p_sample.set_defaults(func=_cmd_sample)

    p_plot = sub.add_parser("plotdata", help="dense (xhat, cdf, pdf) table from a fitted model")
    p_plot.add_argument("model", help="fitted model JSON")
    p_plot.add_argument("--grid", type=int, default=512)
    p_plot.add_argument("--out", default="plotdata.csv")
    p_plot.set_defaults(func=_cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except (GpcquadError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
