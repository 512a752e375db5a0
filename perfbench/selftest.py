"""Self-test of the benchmark harness.

Run from the repository root::

    python3 perfbench/selftest.py

It checks two things and exits non-zero if either fails:

1. Smoke mode (tiny problem sizes) prints every metric named in
   ``BENCHMARK.json`` with its unit, for every workload, with ``--trace 0``
   and ``--trace 1``, and no correctness gate fails.
2. The gates catch a bad trace: a ``quad-run`` trace that passes
   ``ikm certify`` fails it once one ``dist_to_ref`` digit is altered, and
   the failure counts in ``error_rate``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402
import workloads  # noqa: E402


def check_smoke(trace: int) -> list:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "all", "--smoke",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"smoke --trace {trace}: exit code {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = [] if result["correct"] and result["failed"] == 0 else \
        [f"smoke --trace {trace}: gates failed: {[ln for ln in lines if ln.startswith('FAIL')]}"]
    for wl in workloads.WORKLOADS:
        for name, unit in expected.items():
            got = result["metrics"].get(f"{wl}/{name}")
            if got is None or got["unit"] != unit:
                problems.append(f"smoke --trace {trace}: {wl}/{name} is {got}, expected {unit}")
            elif not any(ln.startswith(wl) and f" {name} " in ln and f" {unit} " in ln
                         for ln in lines):
                problems.append(f"smoke --trace {trace}: no printed line for {wl} {name} [{unit}]")
    return problems


def _alter_dist_digit(path: str, k: int) -> str:
    """Change the first decimal digit of ``dist_to_ref`` on row ``k``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    header = next(i for i, ln in enumerate(lines) if ln.startswith("k,"))
    col = lines[header].split(",").index("dist_to_ref")
    target = header + k
    cells = lines[target].split(",")
    old = cells[col]
    i = old.index(".") + 1
    cells[col] = old[:i] + str((int(old[i]) + 5) % 10) + old[i + 1:]
    lines[target] = ",".join(cells)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
    return f"row {cells[0]}: {old} -> {cells[col]}"


def check_corrupted_trace() -> list:
    wl = workloads.make("quad-run", 1, smoke=True)
    workdir = os.path.join(run.WORK, "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for name, text in wl.files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    session = run.Session(wl, workdir, run.child_env())
    certify = workloads.Command(["certify", "quad.csv"], 0, [], workloads.certify_gate())
    session.run(wl.commands[0])
    session.run(certify)
    if session.failed:
        return [f"an unaltered quad-run trace already fails ({session.failed} failed commands)"]
    # The replays allow an absolute slack of 1e-9 on squared distances, so
    # the altered row is an early one, where dist_to_ref^2 is far above it; a
    # row in the converged tail (dist_to_ref ~ 1e-6) passes certify altered.
    change = _alter_dist_digit(os.path.join(workdir, "quad.csv"), k=10)
    session.run(certify)
    if session.failed != 1:
        return [f"altered trace ({change}) was not caught: {session.failed} failed commands"]
    print(f"altered trace ({change}) caught: error_rate "
          f"{session.failed / session.attempted:.6g} ({session.failed}/{session.attempted})")
    return []


def main() -> int:
    problems = check_smoke(0) + check_smoke(1) + check_corrupted_trace()
    for msg in problems:
        print("SELFTEST FAIL:", msg)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
