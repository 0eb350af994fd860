"""Command-line pipeline: samples or a model file in, density models,
bases, quadrature rules, samples, and plot data out.

Machine-readable JSON reports go to stdout; human-readable summaries go to
stderr. Exit codes: 0 success (all checks pass), 1 usage or input error
(argparse's usage errors included, and a count or grid too large to
allocate), 2 numerical failure, 3 I/O error.
`main` returns the code, also after `--help` and `--version`.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .ecdf import load_monotone_csv
from .errors import GpcquadError, NumericalError, integer
from .files import json_text, read_text, write_rows
from .interp import cdf_original, draw_samples, load_model, pdf_original, save_model
from .orthopoly import save_basis
from .pipeline import VARIANTS, fit_variant, rule_from_model, select_from_samples
from .quadrature import rule_to_dict, save_rule, save_rule_csv
from .surrogate import SYNTHETIC_MODEL, load_samples, parse_model, sample, save_samples

__all__ = ["main"]


def _emit(report: dict, summary: str) -> None:
    sys.stdout.write(json_text(report))
    sys.stderr.write(summary + "\n")


def _model_source(path_arg: str) -> str:
    if path_arg == "builtin:synthetic":
        return SYNTHETIC_MODEL
    return read_text(path_arg)


# fit's per-source options, with their defaults; the parser leaves each None
# unless given, so one given to a source that does not take it is refused
_FIT_DEFAULTS = {"samples": 1_000_000, "seed": 0, "m": 45, "delta": None}
_FIT_OPTIONS = {"model": tuple(_FIT_DEFAULTS), "data": ("m", "delta"), "points": ()}


def _fit_source(args) -> str:
    """The fit source given, "model", "data" or "points". Refuses an option
    the source does not take, then fills in the defaults of those it does."""
    source = next(name for name in _FIT_OPTIONS if getattr(args, name) is not None)
    for name, default in _FIT_DEFAULTS.items():
        if name not in _FIT_OPTIONS[source]:
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} does not apply to fit --{source}")
        elif getattr(args, name) is None:
            setattr(args, name, default)
    return source


def _cmd_fit(args) -> int:
    source = _fit_source(args)
    if source == "points":
        data = load_monotone_csv(args.points)
        transform = None  # identity: points are already in the unit coordinate
        stem = Path(args.points).stem
    else:
        if source == "model":
            model = parse_model(_model_source(args.model))
            values = sample(model, args.samples, args.seed).values
            stem = "synthetic" if args.model == "builtin:synthetic" else Path(args.model).stem
        else:
            values = load_samples(args.data)
            stem = Path(args.data).stem
        transform, data = select_from_samples(values, args.m, args.delta)

    variants = VARIANTS if args.variant == "both" else (args.variant,)
    report = {
        "command": "fit",
        "n": data.n,
        "m": args.m,
        "knots": [[float(a), float(b)] for a, b in zip(data.x, data.y)],
        "variants": {},
    }
    if transform is None:
        del report["m"]  # no points were selected, so m had no effect
    else:
        report["transform"] = asdict(transform)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for variant in variants:
        density = fit_variant(data, variant, transform)
        out_file = out / f"{stem}-{variant}.json"
        save_model(density, out_file)
        report["variants"][variant] = {"file": str(out_file), "checks": dict(density.checks)}
    report["ok"] = True
    lines = [f"fitted {len(variants)} model(s) through n = {data.n} points"] + [
        f"  {v}: {info['file']}  checks pass" for v, info in report["variants"].items()
    ]
    _emit(report, "\n".join(lines))
    return 0


def _cmd_basis(args) -> int:
    mom, rec, basis, _, _ = rule_from_model(load_model(args.model), args.degree)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    out_file = out / f"{Path(args.model).stem}-basis{args.degree}.json"
    save_basis(basis, out_file)
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
    *_, rule, eps = rule_from_model(density, args.degree)
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
    save_samples(draw_samples(load_model(args.model), args.count, args.seed), args.out)
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
    integer(args.grid, "--grid", 2)
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
    cdf = cdf_original(density, xhat)
    pdf = pdf_original(density, xhat)
    write_rows(args.out, "xhat,cdf,pdf", "%r", xhat, cdf, pdf)
    report = {
        "command": "plotdata",
        "file": str(args.out),
        "rows": len(xhat),
        "ok": True,
    }
    _emit(report, f"wrote {len(xhat)} rows -> {args.out}")
    return 0


@functools.cache  # built once per process: main() may be called many times
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
    p_fit.add_argument("--samples", type=int, help="Monte Carlo draws (--model only; default 1000000)")
    p_fit.add_argument("--seed", type=int, help="Monte Carlo seed (--model only; default 0)")
    p_fit.add_argument("--m", type=int, help="point-selection control (not with --points; default 45)")
    p_fit.add_argument(
        "--delta", type=float, help="range margin (not with --points; default: 1e-3 of range)"
    )
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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except (GpcquadError, ValueError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
