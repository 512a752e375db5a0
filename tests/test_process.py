"""What one ``ikm`` process loads, and how its entry starts a command.

The import sets are read from ``-X importtime`` in fresh interpreters: a
command that builds no problem (``certify``, ``check-params``,
``lambda-grid``) never imports ``ikm.operators`` or ``ikm.problems``.  The
process entry, ``cli.console_main``, freezes the import-time heap once
before ``cli.main`` dispatches; ``main`` itself never does.
"""

import gc
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ikm
from ikm import cli, engine

SRC = Path(ikm.__file__).resolve().parents[1]
PYPROJECT = SRC.parent / "pyproject.toml"
LAZY_MODULES = ("ikm.operators", "ikm.problems")

RUN_CFG = """problem.kind = quadratic
problem.dim = 10
algorithm.scheme = gradient
schedule.alpha = 0.05
schedule.lambda = 0.9
stopping.max_iters = 2000
output.trace = {dir}/trace.csv
"""
SWEEP_CFG = """problem.kind = quadratic
problem.dim = 10
algorithm.scheme = gradient
stopping.max_iters = 2000
sweep.1.alpha = 0.0
sweep.1.lambda = 0.9
sweep.2.alpha = 0.05
sweep.2.lambda = 0.9
output.table = {dir}/table.csv
"""


def imported(argv, cwd):
    """(exit code, the modules a fresh ``python -X importtime`` process of
    ``argv`` imported)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime"] + argv, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    modules = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:") and "|" in line}
    return proc.returncode, modules


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("process")
    (path / "run.cfg").write_text(RUN_CFG.format(dir=path))
    (path / "sweep.cfg").write_text(SWEEP_CFG.format(dir=path))
    # the trace that certify reads
    assert cli.main(["run", str(path / "run.cfg")]) == cli.EXIT_OK
    return path


@pytest.mark.parametrize("args, loads_problems", [
    (["run", "run.cfg"], True),
    (["sweep", "sweep.cfg"], True),
    (["certify", "trace.csv"], False),
    (["check-params", "--alpha", "0.2", "--lambda", "0.5", "--q", "0.9"], False),
    (["lambda-grid", "--alpha-steps", "3", "--q-steps", "2", "--out", "grid.csv"], False),
])
def test_each_command_imports_operators_and_problems_only_to_build_a_problem(
        workdir, args, loads_problems):
    rc, modules = imported(["-m", "ikm.cli"] + args, workdir)
    assert rc == cli.EXIT_OK
    assert {"ikm", "ikm.engine", "ikm.certificates"} <= modules
    assert {m: m in modules for m in LAZY_MODULES} == dict.fromkeys(LAZY_MODULES,
                                                                     loads_problems)
    assert "scipy.linalg" not in modules


def test_import_ikm_still_imports_scipy(tmp_path):
    rc, modules = imported(["-c", "import ikm"], tmp_path)
    assert rc == 0
    assert "scipy" in modules
    assert not modules & set(LAZY_MODULES)


def test_lazy_names_are_the_submodules_objects():
    from ikm import operators, problems

    assert ikm.operators is operators and ikm.problems is problems
    for module, names in ikm._LAZY.items():
        for name in names:
            assert getattr(ikm, name) is getattr(sys.modules[f"ikm.{module}"], name), name
            assert name in dir(ikm)
    assert ikm.make_tv1d is problems.make_tv1d
    assert ikm.OperatorHandle is operators.OperatorHandle
    with pytest.raises(AttributeError, match="no attribute 'make_nothing'"):
        ikm.make_nothing  # noqa: B018


def test_lazy_names_are_in_their_modules_all():
    for module, names in ikm._LAZY.items():
        exported = importlib.import_module(f"ikm.{module}").__all__
        assert [name for name in names if name not in exported] == [], module


def test_reference_not_converged_is_one_class():
    from ikm import problems

    # cli.main maps it to exit 2 without importing problems; the run whose
    # reference misses its tolerance is pinned in test_cli.py
    assert problems.ReferenceNotConverged is engine.ReferenceNotConverged
    assert ikm.ReferenceNotConverged is engine.ReferenceNotConverged


def test_entry_freezes_once_before_main_dispatches(monkeypatch):
    events = []
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(gc, "collect", lambda: events.append("collect") or 0)
    monkeypatch.setattr(cli, "main", lambda argv=None: events.append("main") or 7)
    assert cli.console_main() == 7
    assert events == ["freeze", "collect", "main"]


def test_main_never_freezes(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(gc, "collect", lambda *args: calls.append("collect") or 0)
    assert cli.main(["check-params", "--alpha", "0.2", "--lambda", "0.5"]) == cli.EXIT_OK
    assert cli.main(["lambda-grid", "--alpha-steps", "2", "--q-steps", "2",
                     "--out", str(tmp_path / "grid.csv")]) == cli.EXIT_OK
    assert calls == []


def test_script_and_module_run_name_the_entry():
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", PYPROJECT.read_text(),
                        re.M | re.S).group(1)
    assert re.findall(r'^ikm\s*=\s*"([^"]+)"', scripts, re.M) == ["ikm.cli:console_main"]
    source = Path(cli.__file__).read_text()
    assert source.rstrip().endswith('if __name__ == "__main__":\n    sys.exit(console_main())')
