"""The benchmark harness in perfbench/ runs against the current modules.

perfbench/traced.py wraps library functions by module attribute name, so the
per-layer benchmark breaks if one of those names goes away; its ``install``
is run here against the current modules.  It patches module globals, hence
the separate interpreter.  The traced smoke run checks the rest: every
workload's gates and the per-layer probes.
"""

import json
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


def test_traced_smoke_benchmark_is_correct():
    # about 10 s: three small workloads, each run untraced and traced
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    summary = json.loads(lines[-1])
    assert summary["correct"] is True, proc.stdout[-4000:] + proc.stderr[-4000:]
