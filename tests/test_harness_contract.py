"""perfbench/traced.py wraps library functions by module attribute name.

The per-layer benchmark breaks if one of those names goes away, so its
``install`` is run here against the current modules.  It patches module
globals, hence the separate interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import ikm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(ikm.__file__).resolve().parents[1]


def test_traced_harness_installs_on_current_modules():
    code = "import traced\ntraced.install(traced.Tracer('w', 'r'))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PERFBENCH), str(SRC)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
