"""Smoke test: the demos run to completion.

Each demo runs as a subprocess in a scratch directory (demo 04 may write
a figure there) and must exit 0.  Demo 05 is left out: it takes about
9 s and repeats the direct extreme-wave solve that test_extreme covers.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_kernels_and_eigenstructure", "02_small_amplitude_expansion",
         "03_branch_continuation", "04_wave_profiles"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
