"""``import ikm`` asks for one OpenBLAS thread unless the process chose a count.

Each case runs in a fresh interpreter, since the rule acts only before NumPy
is first imported, with every thread variable removed from its environment.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ikm

SRC = Path(ikm.__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
REPORT = """
import json, os
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"vars": {v: os.environ.get(v) for v in %r}, "tasks": tasks}))
""" % (THREAD_VARS,)


def fresh_import(prelude: str, **env_vars: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", prelude + REPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_ikm_requests_one_blas_thread():
    report = fresh_import("import ikm\n")
    assert report["vars"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                              "OMP_NUM_THREADS": None}
    # OpenBLAS starts no pool: the interpreter's own thread is the only one
    if report["tasks"] is not None:
        assert report["tasks"] == 1


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_callers_thread_count_is_kept(var):
    report = fresh_import("import ikm\n", **{var: "2"})
    assert report["vars"] == {v: "2" if v == var else None for v in THREAD_VARS}


def test_numpy_imported_first_keeps_its_pool():
    report = fresh_import("import numpy\nimport ikm\n")
    assert report["vars"] == dict.fromkeys(THREAD_VARS)
