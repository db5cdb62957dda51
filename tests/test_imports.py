"""Importing the package stays cheap: heavy scipy modules load where they are used."""

import os
import subprocess
import sys
from pathlib import Path

import nlspread


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    src = str(Path(nlspread.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, nlspread; "
            "print(' '.join(m for m in ('scipy.stats', 'scipy.optimize', 'scipy.fft', "
            "'scipy.special') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == ""
