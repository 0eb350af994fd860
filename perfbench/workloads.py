"""The three benchmark workloads: input generation, one job, output checks.

A *job* takes one dataset to validated density models and Gauss rules. An
*operation* is one rule, i.e. one (dataset, variant, degree); failures are
counted per operation. Every input is generated here from the workload
seed and only the generated values (or files) are handed to gpcquad.

Library functions are always looked up through their module at call time
(``gq.sample``, ``cli.main``), so that the tracer's wrappers see the calls.
Checks run outside the timed region and use the functions saved in
`ORIGINAL`, so they never show up in a trace.
"""

from __future__ import annotations

import io
import json
import shutil
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import IntegrationWarning

import gpcquad as gq
import gpcquad.cli as cli

VARIANTS = ("cubic", "rational")
FITTERS = {"cubic": "fit_cubic", "rational": "fit_rational"}

# Untraced references for the checks, captured before any tracing starts.
ORIGINAL = {
    name: getattr(gq, name)
    for name in ("validate_model", "cdf_eval", "pdf_eval", "inverse_cdf", "load_model",
                 "moments", "numeric_moment_oracle", "parse_model", "sample",
                 "fit_transform", "select_points", "fit_cubic", "save_model",
                 "default_delta", "compute_recurrence", "gauss_rule", "orthonormality_error")
}

ORTHO_BOUND_DEG4 = 1e-12  # acceptance criterion 1
ROUND_TRIP_TOL = 1e-12  # acceptance criterion 7
ROUND_TRIP_SUBSET = 200  # draws per resample-cli job whose round trip is checked
PROBE_DEGREE = 10
PROBE_JOBS = 8  # resample-cli jobs whose fitted models also get an untimed degree-10 rule


@dataclass
class Op:
    """Outcome of one operation: a rule, or the typed failure that stopped it."""

    variant: str
    degree: int
    nodes: np.ndarray | None = None
    weights: np.ndarray | None = None
    eps: float | None = None
    error: str | None = None

    @property
    def key(self) -> str:
        return f"{self.variant}/deg{self.degree}"


@dataclass
class JobOutput:
    ops: list[Op]
    models: list = field(default_factory=list)
    raw: dict = field(default_factory=dict)


@dataclass
class CheckResult:
    """Checks of one job. `failed` maps op key -> names of failed checks;
    each makes its operation a failed one. `probe_eps` maps degree ->
    orthonormality errors of rules built by a check rather than by the job."""

    failed: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    probe_eps: dict = field(default_factory=dict)

    def fail(self, key: str, check: str) -> None:
        self.failed.setdefault(key, []).append(check)

    def residual(self, name: str, value: float) -> None:
        self.residuals[name] = max(self.residuals.get(name, 0.0), float(value))


def job_seed(seed: int, j: int) -> int:
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# shared pipeline and checks
# ---------------------------------------------------------------------------


def density_rules(values: np.ndarray, m: int, degrees: tuple[int, ...]) -> JobOutput:
    """values -> transform/ECDF -> points -> both fits -> moments -> rules."""
    try:
        transform, ecdf = gq.fit_transform(values, gq.default_delta(values))
        data = gq.select_points(ecdf, m)
    except gq.GpcquadError as exc:
        return JobOutput([Op(v, d, error=type(exc).__name__) for v in VARIANTS for d in degrees])
    out = JobOutput([])
    kmax = 2 * max(degrees) + 1
    for variant in VARIANTS:
        try:
            density = getattr(gq, FITTERS[variant])(data, transform=transform)
            mom = gq.moments(density, kmax)
        except gq.GpcquadError as exc:
            out.ops += [Op(variant, d, error=type(exc).__name__) for d in degrees]
            continue
        out.models.append(density)
        for d in degrees:
            try:
                rec, basis = gq.compute_recurrence(mom[: 2 * d + 2], d)
                rule = gq.gauss_rule(rec)
                eps = gq.orthonormality_error(basis, rule)
            except gq.GpcquadError as exc:
                out.ops.append(Op(variant, d, error=type(exc).__name__))
                continue
            out.ops.append(Op(variant, d, rule.nodes, rule.weights, eps))
    return out


def check_models(models, degrees, result: CheckResult) -> None:
    """Every fitted model passes validate_model; its residuals are recorded."""
    for model in models:
        report = ORIGINAL["validate_model"](model, raise_on_failure=False)
        for name in ("hermite_value_max", "hermite_slope_max", "c1_jump_max"):
            if name in report:
                result.residual(name, report[name])
        if not report["ok"]:
            for d in degrees:
                result.fail(f"{model.variant}/deg{d}", "validate_model")


def check_rules(ops: list[Op], result: CheckResult) -> None:
    for op in ops:
        if op.error is not None:
            continue
        nodes, weights = op.nodes, op.weights
        if not (
            len(nodes) == op.degree + 1
            and np.all(np.diff(nodes) > 0.0)
            and np.all(weights > 0.0)
            and abs(float(weights.sum()) - 1.0) <= 1e-12
        ):
            result.fail(op.key, "rule_shape")
        # Gauss nodes of a density supported on [0, 1] lie inside it
        if not np.all((nodes >= 0.0) & (nodes <= 1.0)):
            result.fail(op.key, "nodes_in_support")
        if not np.isfinite(op.eps):
            result.fail(op.key, "ortho_finite")
        elif op.degree == 4 and op.eps > ORTHO_BOUND_DEG4:
            result.fail(op.key, "ortho_bound_1e-12")


def same_rules(first: list[Op], again: list[Op]) -> list[str]:
    """Keys of the operations whose two runs (same seed) differ: bit-identical
    nodes and weights, or the same typed failure, are expected."""
    return [
        a.key for a, b in zip(first, again)
        if a.error != b.error or (
            a.error is None
            and (a.nodes.tobytes() != b.nodes.tobytes()
                 or a.weights.tobytes() != b.weights.tobytes()))
    ]


def moment_residual(models, kmax: int) -> tuple[float, int]:
    """Worst relative residual |M_k - oracle_k| / max(1, |M_k|) over k <= kmax,
    and the number of moments whose adaptive-quadrature oracle gave up."""
    worst, unresolved = 0.0, 0
    for model in models:
        mom = ORIGINAL["moments"](model, kmax)
        for k in range(kmax + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                try:
                    oracle = ORIGINAL["numeric_moment_oracle"](model, k)
                except gq.NumericalError:
                    unresolved += 1
                    continue
            worst = max(worst, abs(mom[k] - oracle) / max(1.0, abs(mom[k])))
    return worst, unresolved


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class SyntheticWorkload:
    """The paper's demo: N = 1e6 draws of SYNTHETIC_MODEL per job, m = 45."""

    name = "synthetic-1e6"
    N = 1_000_000
    M = 45
    DEGREES = (4, 10)

    def setup(self, seed: int, n_jobs: int, workdir: Path) -> None:
        self.model = ORIGINAL["parse_model"](gq.SYNTHETIC_MODEL)
        self.seeds = [job_seed(seed, j) for j in range(n_jobs)]

    def run(self, j: int) -> JobOutput:
        values = gq.sample(self.model, self.N, self.seeds[j]).values
        return density_rules(values, self.M, self.DEGREES)

    def check(self, j: int, out: JobOutput) -> CheckResult:
        result = CheckResult()
        check_models(out.models, self.DEGREES, result)
        check_rules(out.ops, result)
        return result

    def oracle_kmax(self) -> int:
        return 2 * max(self.DEGREES) + 1

    def describe(self) -> dict:
        return {"N": self.N, "m": self.M, "degrees": list(self.DEGREES)}


def mixture_values(rng: np.random.Generator, size: int) -> np.ndarray:
    """Random mixture of 1-3 Gaussian, uniform and point-mass components."""
    parts = []
    n_comp = int(rng.integers(1, 4))
    for _ in range(n_comp):
        n = size // n_comp
        kind = int(rng.integers(0, 3))
        if kind == 0:
            parts.append(rng.normal(rng.uniform(-3, 3), rng.uniform(0.05, 2.0), n))
        elif kind == 1:
            lo = rng.uniform(-4, 3)
            parts.append(rng.uniform(lo, lo + rng.uniform(0.1, 3.0), n))
        else:
            parts.append(np.full(n, rng.uniform(-3, 3)))
    values = np.concatenate(parts)
    if values.max() == values.min():  # a lone point mass: make it two
        values = np.concatenate([values, values + 1.0])
    return values


class MixtureWorkload(SyntheticWorkload):
    """Independent N = 2e4 mixture datasets with point masses, m = 200."""

    name = "mixture-fine"
    N = 20_000
    M = 200

    def setup(self, seed: int, n_jobs: int, workdir: Path) -> None:
        self.datasets = [
            mixture_values(np.random.default_rng([seed, j]), self.N) for j in range(n_jobs)
        ]

    def run(self, j: int) -> JobOutput:
        return density_rules(self.datasets[j], self.M, self.DEGREES)

    def describe(self) -> dict:
        atoms = sum(np.unique(v).size < v.size for v in self.datasets)
        return {
            "N": self.N,
            "m": self.M,
            "degrees": list(self.DEGREES),
            "datasets_with_point_mass": f"{atoms}/{len(self.datasets)}",
            "point_mass_share": atoms / len(self.datasets),
        }


class ResampleCliWorkload:
    """File-based consumer path through `gpcquad.cli.main`, in-process."""

    name = "resample-cli"
    SOURCE_N = 200_000
    COUNT = 20_000
    DEGREE = 4

    def setup(self, seed: int, n_jobs: int, workdir: Path) -> None:
        self.dir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        model = ORIGINAL["parse_model"](gq.SYNTHETIC_MODEL)
        values = ORIGINAL["sample"](model, self.SOURCE_N, job_seed(seed, 1 << 30)).values
        transform, ecdf = ORIGINAL["fit_transform"](values, ORIGINAL["default_delta"](values))
        self.source = ORIGINAL["fit_cubic"](ORIGINAL["select_points"](ecdf, 45), transform=transform)
        self.source_path = workdir / "source-cubic.json"
        ORIGINAL["save_model"](self.source, self.source_path)
        self.seeds = [job_seed(seed, j) for j in range(n_jobs)]

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def run(self, j: int) -> JobOutput:
        draws = self.dir / "draws.txt"
        raw = {}
        raw["sample"] = self._cli(
            ["sample", str(self.source_path), "--count", str(self.COUNT),
             "--seed", str(self.seeds[j]), "--out", str(draws)]
        )
        if raw["sample"][0] == 0:
            raw["fit"] = self._cli(["fit", "--data", str(draws), "--out", str(self.dir)])
        if raw.get("fit", (1,))[0] == 0:
            for variant in VARIANTS:
                raw[variant] = self._cli(
                    ["quad", str(self.dir / f"draws-{variant}.json"),
                     "--degree", str(self.DEGREE), "--out", str(self.dir)]
                )
        ops = []
        for variant in VARIANTS:
            code = next((raw[s][0] for s in ("sample", "fit", variant) if s in raw and raw[s][0]), 0)
            if code:
                ops.append(Op(variant, self.DEGREE, error=f"exit{code}"))
                continue
            report = json.loads(raw[variant][1])
            ops.append(Op(variant, self.DEGREE, np.asarray(report["nodes"]),
                          np.asarray(report["weights"]), report["orthonormality_error"]))
        return JobOutput(ops, raw=raw)

    def check(self, j: int, out: JobOutput) -> CheckResult:
        result = CheckResult()
        if "fit" in out.raw and out.raw["fit"][0] == 0:
            fit_report = json.loads(out.raw["fit"][1])
            for variant, info in fit_report["variants"].items():
                checks = info["checks"]
                for name in ("hermite_value_max", "hermite_slope_max", "c1_jump_max"):
                    result.residual(name, checks[name])
                if not checks["ok"]:
                    result.fail(f"{variant}/deg{self.DEGREE}", "fit_checks")
            for variant in VARIANTS:
                try:
                    out.models.append(ORIGINAL["load_model"](self.dir / f"draws-{variant}.json"))
                except gq.GpcquadError:
                    result.fail(f"{variant}/deg{self.DEGREE}", "load_model")
            check_models(out.models, (self.DEGREE,), result)
            if j < PROBE_JOBS:
                result.probe_eps[PROBE_DEGREE] = [self._probe(model) for model in out.models]
        check_rules(out.ops, result)
        if out.raw["sample"][0] == 0:
            worst = self._round_trips()
            result.residual("round_trip_max", worst["dev"])
            if worst["excess"] > 0.0:
                for variant in VARIANTS:
                    result.fail(f"{variant}/deg{self.DEGREE}", "round_trip")
        return result

    @staticmethod
    def _probe(model) -> float:
        """Orthonormality error of the degree-10 rule of a fitted model (untimed).

        The job itself stops at degree 4; this keeps the degree-10 accuracy
        metric defined on every workload."""
        try:
            mom = ORIGINAL["moments"](model, 2 * PROBE_DEGREE + 1)
            rec, basis = ORIGINAL["compute_recurrence"](mom, PROBE_DEGREE)
            return ORIGINAL["orthonormality_error"](basis, ORIGINAL["gauss_rule"](rec))
        except gq.GpcquadError:
            return float("inf")

    def _round_trips(self) -> dict:
        """cdf(inverse_cdf(y)) = y at the CDF levels of a subset of the draws.

        Tolerance is criterion 7's 1e-12, widened only where one float step
        in x moves the CDF by more than that (an atom ramp, see the README's
        known limitations); plateau levels are skipped, as in criterion 7.
        """
        model = self.source
        xs = np.loadtxt(self.dir / "draws.txt")[:ROUND_TRIP_SUBSET]
        ys = ORIGINAL["cdf_eval"](model, model.transform.normalize(xs))
        flats = set(model.y[:-1][np.diff(model.y) == 0].tolist())
        worst = {"dev": 0.0, "excess": 0.0}
        for y in ys:
            y = float(y)
            if y in flats or not 0.0 < y < 1.0:
                continue
            x = ORIGINAL["inverse_cdf"](model, y)
            dev = abs(float(ORIGINAL["cdf_eval"](model, x)) - y)
            tol = max(ROUND_TRIP_TOL, 2.0 * float(ORIGINAL["pdf_eval"](model, x)) * np.spacing(x))
            worst["dev"] = max(worst["dev"], dev)
            worst["excess"] = max(worst["excess"], dev - tol)
        return worst

    def oracle_kmax(self) -> int:
        return 2 * self.DEGREE + 1

    def describe(self) -> dict:
        return {"source_N": self.SOURCE_N, "source_variant": "cubic", "count": self.COUNT,
                "m": 45, "degrees": [self.DEGREE]}


WORKLOADS = {w.name: w for w in (SyntheticWorkload, MixtureWorkload, ResampleCliWorkload)}
