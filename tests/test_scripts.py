"""Smoke tests of the demo scripts: each runs at a small N and prints rules
whose orthonormality error meets the construction tolerance."""

import re

import pytest

from conftest import ROOT, run_python


@pytest.mark.parametrize("script", ["run_synthetic.py", "run_from_samples.py"])
def test_demo_script_runs(script, tmp_path):
    # run_from_samples writes its sample file under TMPDIR
    proc = run_python(str(ROOT / "scripts" / script), "20000", TMPDIR=str(tmp_path))
    errors = [float(e) for e in re.findall(r"orthonormality error = (\S+)", proc.stdout)]
    assert len(errors) == 2, proc.stdout  # one rule per variant
    assert max(errors) <= 1e-12, proc.stdout
    assert not any(tmp_path.iterdir()), "the script left temporary files behind"
