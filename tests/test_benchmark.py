"""The library names the benchmark reads. perfbench/run.py imports `spans`
and `workloads` from its own folder; a library change that drops a name
either reads would fail every benchmark run before its first job."""

import ast
import importlib

import numpy as np
import pytest

import gpcquad
from conftest import ROOT, mixture_values

PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's `spans` and `workloads` modules, imported as run.py does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("spans"), importlib.import_module("workloads")


def gq_names(path):
    """Each `name` of a `gq.name` in the file at `path`, which imports
    gpcquad as gq."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "gq"
    }


def test_every_name_the_benchmark_reads_resolves(perfbench):
    spans, workloads = perfbench
    for module, name, *_ in spans.TRACED:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
    assert all(callable(f) for f in workloads.ORIGINAL.values())  # read at import
    names = gq_names(PERFBENCH / "workloads.py") | gq_names(PERFBENCH / "run.py")
    assert "sample" in names
    for name in sorted(names):
        assert hasattr(gpcquad, name), f"gpcquad.{name}"


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_conftest_mixtures_are_the_benchmark_datasets(perfbench, seed):
    _, workloads = perfbench
    for job in range(8):
        want = workloads.mixture_values(np.random.default_rng([seed, job]), 20000)
        got = mixture_values(np.random.default_rng([seed, job]), 20000)
        assert got.tobytes() == want.tobytes(), (seed, job)
