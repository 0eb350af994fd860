"""Smoke tests of the demo scripts: each runs at a small N and prints rules
whose orthonormality error meets the construction tolerance."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["run_synthetic.py", "run_from_samples.py"])
def test_demo_script_runs(script, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))  # run_from_samples writes its sample file there
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "20000"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    errors = [float(e) for e in re.findall(r"orthonormality error = (\S+)", proc.stdout)]
    assert len(errors) == 2, proc.stdout  # one rule per variant
    assert max(errors) <= 1e-12, proc.stdout
    assert not any(tmp_path.iterdir()), "the script left temporary files behind"
