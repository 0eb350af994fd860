"""In-memory span tracer that wraps gpcquad's public functions from outside
the package.

`Tracer.install()` replaces each traced function in every loaded
``gpcquad`` module namespace that holds it (the package, the defining
module and the names imported into ``gpcquad.cli``), so calls made by the
benchmark, by the CLI and between library modules are all seen.
`Tracer.uninstall()` puts the originals back. Nothing inside the package
changes, and an untraced run executes no tracing code at all.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np


def _n_values(args, kwargs, result):
    return {"values": int(result.count)}


def _n_points(args, kwargs, result):
    return {"points": int(result.n)}


def _n_pieces(args, kwargs, result):
    return {"pieces": int(result.n) - 1}


def _n_draws(args, kwargs, result):
    return {"draws": int(np.size(result))}


def _n_eval_points(args, kwargs, result):
    return {"eval_points": int(np.size(result))}


def _n_piece_orders(args, kwargs, result):
    model, kmax = args[0], args[1]
    return {"piece_orders": int(np.count_nonzero(np.diff(model.y))) * (int(kmax) + 1)}


def _n_rules(args, kwargs, result):
    return {"rules": 1}


# (module, function, layer, counter): the public functions the benchmark
# traces. `inverse_cdf` is left out on purpose: `draw_samples` calls it once
# per draw, and wrapping it would make the traced run measure the tracer.
TRACED = (
    ("gpcquad.surrogate", "parse_model", "surrogate", None),
    ("gpcquad.surrogate", "sample", "surrogate", _n_values),
    ("gpcquad.surrogate", "load_samples", "surrogate", None),
    ("gpcquad.surrogate", "save_samples", "surrogate", None),
    ("gpcquad.ecdf", "default_delta", "ecdf", None),
    ("gpcquad.ecdf", "fit_transform", "ecdf", None),
    ("gpcquad.ecdf", "select_points", "ecdf", _n_points),
    ("gpcquad.interp", "fit_cubic", "interp", _n_pieces),
    ("gpcquad.interp", "fit_rational", "interp", _n_pieces),
    ("gpcquad.interp", "validate_model", "interp", None),
    ("gpcquad.interp", "cdf_eval", "interp", _n_eval_points),
    ("gpcquad.interp", "pdf_eval", "interp", _n_eval_points),
    ("gpcquad.interp", "draw_samples", "interp", _n_draws),
    ("gpcquad.interp", "save_model", "interp", None),
    ("gpcquad.interp", "load_model", "interp", None),
    ("gpcquad.moments", "moments", "moments", _n_piece_orders),
    ("gpcquad.moments", "moments_cubic", "moments", None),
    ("gpcquad.moments", "moments_rational", "moments", None),
    ("gpcquad.orthopoly", "compute_recurrence", "orthopoly", None),
    ("gpcquad.quadrature", "gauss_rule", "quadrature", _n_rules),
    ("gpcquad.quadrature", "orthonormality_error", "quadrature", None),
    ("gpcquad.quadrature", "save_rule", "quadrature", None),
    ("gpcquad.quadrature", "save_rule_csv", "quadrature", None),
    ("gpcquad.cli", "main", "cli", None),
)

LAYERS = ("surrogate", "ecdf", "interp", "moments", "orthopoly", "quadrature", "cli")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "job", "error", "counts")

    def __init__(self, name, layer, start, parent, job):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.error = None
        self.counts = None

    def as_dict(self, index):
        return {
            "id": index,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "job": self.job,
            "error": self.error,
            "counts": self.counts,
        }


class Tracer:
    """Records one span per traced call: name, start, end, parent span and
    job id. Spans stay in memory until `write`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_job(self, job_id) -> None:
        self._job = job_id
        self._open("job", "job")

    def end_job(self) -> None:
        self._close(None, None)
        self._job = None

    def _open(self, name, layer) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent, self._job))
        self._stack.append(len(self.spans) - 1)

    def _close(self, error, counts) -> None:
        span = self.spans[self._stack.pop()]
        span.end = time.perf_counter()
        span.error = error
        span.counts = counts

    def _wrap(self, fn, name, layer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(type(exc).__name__, None)
                raise
            self._close(None, counter(args, kwargs, result) if counter else None)
            return result

        return traced

    def _wrap_cli_main(self, fn):
        """Name each CLI span after its subcommand and count non-zero exits."""

        @functools.wraps(fn)
        def traced(argv=None):
            self._open(f"cli.{argv[0]}", "cli")
            try:
                code = fn(argv)
            except BaseException as exc:
                self._close(type(exc).__name__, None)
                raise
            self._close(None, {"exit_nonzero": int(code != 0)})
            return code

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "gpcquad"]
        for module_name, fn_name, layer, counter in TRACED:
            original = getattr(sys.modules[module_name], fn_name)
            if fn_name == "main":
                wrapper = self._wrap_cli_main(original)
            else:
                wrapper = self._wrap(original, f"{layer}.{fn_name}", layer, counter)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    self._saved.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i)) + "\n")


def job_profiles(spans: list[Span]) -> dict:
    """Per-job aggregates keyed by job id.

    Each profile maps span name -> busy seconds, layer -> busy seconds
    (outermost span of the layer only) and layer -> self seconds (span time
    minus the time its child spans cover), plus summed counts.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    profiles: dict = {}
    for i, span in enumerate(spans):
        if span.job is None:
            continue
        prof = profiles.setdefault(
            span.job,
            {"name_s": {}, "name_self_s": {}, "busy_s": {}, "self_s": {}, "calls": {},
             "counts": {}, "errors": {}},
        )
        dur = span.end - span.start
        self_s = dur - child_time[i]
        prof["name_s"][span.name] = prof["name_s"].get(span.name, 0.0) + dur
        prof["name_self_s"][span.name] = prof["name_self_s"].get(span.name, 0.0) + self_s
        if span.layer == "job":
            prof["job_s"] = dur
            continue
        prof["self_s"][span.layer] = prof["self_s"].get(span.layer, 0.0) + self_s
        prof["calls"][span.layer] = prof["calls"].get(span.layer, 0) + 1
        parent_layer = spans[span.parent].layer if span.parent is not None else None
        if parent_layer != span.layer:
            prof["busy_s"][span.layer] = prof["busy_s"].get(span.layer, 0.0) + dur
        for key, value in (span.counts or {}).items():
            prof["counts"][key] = prof["counts"].get(key, 0) + value
        if span.error is not None:
            key = f"{span.name}:{span.error}"
            prof["errors"][key] = prof["errors"].get(key, 0) + 1
    return profiles
