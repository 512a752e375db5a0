"""Byte-for-byte output parity of the ikm CLI between two source trees.

Usage::

    python3 tools/parity.py OLD_SRC NEW_SRC
    python3 tools/parity.py OLD_SRC NEW_SRC --seeds 1,3,7

``OLD_SRC`` and ``NEW_SRC`` are each a checkout (holding ``src/ikm``) or its
``src`` directory.  The workloads are imported, unmodified, from the
``perfbench/workloads.py`` of the checkout this file sits in.  For every
workload, every seed (1-5 by default) and both sizes (full and ``--smoke``)
the tool writes the workload's config files into a fresh directory per
tree, runs the setup command and then each command there as
``python -m ikm.cli`` with that tree on ``PYTHONPATH``, and compares, byte
for byte, the exit codes, stdout and stderr of each command and every file
the directory holds afterwards.

Fixed cases outside the benchmark run beside the workloads, once per seed
(the seed is their ``problem.seed``): ``ikm run`` and then ``ikm certify``
on five small quadratic configs that take the check and schedule paths the
workloads do not (every check on a certified run, ``run.p_ref = none``, an
infeasible schedule, ramp alpha with a lambda table, table alpha with a
constant lambda above 1, a run that ends ``stalled`` on
``stopping.stall_tol``), on a quadratic ramp-alpha config with
``stopping.max_iters = 100000`` that converges early, so the
``relaxation_seq`` precheck line over 100,000 indices is compared, on a
1,000-row quadratic run whose alpha ramps out of the feasible region, so
that ``ck`` and ``product`` FAIL with violations past the first two
``ROW_CHUNK``s of the replays, on a
small ``three_term`` config (the Davis-Yin
path, which no workload runs), on a small ``lasso`` config and on a
``tv1d`` config with ``n = 30``, ``alpha = 0.2`` and ``lambda = 1`` run by
``sdr`` (split Douglas-Rachford, which no workload runs), and four
``ikm check-params`` argument sets.  The tool prints one line per case and
exits 1 when anything differs, 0 otherwise.  A differing output is shown by
its first differing line and the count of differing lines; for a CSV file
the tool also prints whether the header, the row count and the ``k`` column
agree, and the largest relative difference in each column whose fields
differ.

Two trace CSVs whose first lines name different format versions (for
example ``# ikm-trace-v1`` against ``# ikm-trace-v2``) are compared by what
they parse to: both are read with the new tree's ``ikm.cli.read_trace``, and
they agree when the configs are equal and every column of the two traces
has the same bytes.  The case line lists such files after ``parsed:``.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterator, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

TIMEOUT_S = 600
TRACE_MAGIC = b"# ikm-trace-"

# run with the new tree on PYTHONPATH: the trace columns (and the config)
# in which the two trace files given as arguments parse differently
PARSED_DIFFERENCE = """
import sys
from ikm import cli, engine
(a, cfg_a), (b, cfg_b) = (cli.read_trace(path) for path in sys.argv[1:3])
def differ(x, y):
    return (x is None) != (y is None) or x is not None and x.tobytes() != y.tobytes()
names = [name for name in engine.COLUMNS if differ(getattr(a, name), getattr(b, name))]
print(" ".join(names + ["config"] * (cfg_a != cfg_b)))
"""

RUN = """problem.seed = {seed}
stopping.max_iters = 5000
stopping.residual_tol = 1e-11
output.checks = ck,descent,contraction,product,small_o
"""
QUADRATIC = RUN + "problem.kind = quadratic\nproblem.dim = 20\nproblem.mu = 1\nproblem.L = 10\n"
GRADIENT = QUADRATIC + "algorithm.scheme = gradient\n"
LEAST_SQUARES = RUN + "problem.m = 30\nproblem.n = 80\n"
FIXED_CONFIGS = {
    "certified": GRADIENT + "schedule.alpha = 0.05\nschedule.lambda = 0.9\n",
    "no-ref": GRADIENT + "schedule.alpha = 0.05\nschedule.lambda = 0.9\nrun.p_ref = none\n",
    "infeasible": QUADRATIC + ("algorithm.scheme = proximal\nalgorithm.rho = 1\n"
                               "schedule.alpha = 0.9\nschedule.lambda = 0.99\n"),
    "ramp-table": GRADIENT + ("schedule.alpha_kind = ramp\nschedule.alpha_start = 0\n"
                              "schedule.alpha_end = 0.1\nschedule.alpha_ramp_iters = 30\n"
                              "schedule.lambda_kind = table\n"
                              "schedule.lambda_table = 0.5,0.7,0.9\n"),
    # lambda > 1 skips the contraction replays; the run stops at max_iters
    "table-constant": GRADIENT + ("schedule.alpha_kind = table\n"
                                  "schedule.alpha_table = 0,0.02,0.04,0.05\n"
                                  "schedule.lambda = 1.05\nstopping.max_iters = 300\n"),
    # Davis-Yin at rho = 1/L is 2/3-averaged, so lambda = 1.1 is feasible at alpha = 0.1
    "three-term": LEAST_SQUARES + ("problem.kind = three_term\nalgorithm.scheme = dy\n"
                                   "schedule.alpha = 0.1\nschedule.lambda = 1.1\n"),
    "lasso": LEAST_SQUARES + ("problem.kind = lasso\nalgorithm.scheme = fb\n"
                              "schedule.alpha = 0.2\nschedule.lambda = 0.9\n"),
    # the relaxation_seq precheck spans 100,000 indices; the run converges long before
    "ramp-long": GRADIENT + ("schedule.alpha_kind = ramp\nschedule.alpha_start = 0\n"
                             "schedule.alpha_end = 0.1\nschedule.alpha_ramp_iters = 50\n"
                             "schedule.lambda = 0.9\nstopping.max_iters = 100000\n"),
    # stops on stopping.stall_tol (exit 2), the one path that measures a step norm per step
    "stall": GRADIENT + ("schedule.alpha = 0.05\nschedule.lambda = 0.9\n"
                         "stopping.stall_tol = 1e-6\n"),
    # alpha ramps past the feasible region and the iterates start to grow: 1,000 rows, and
    # ck and product print FAIL lines at k of about 770-800, past the first two row chunks
    "ramp-infeasible": QUADRATIC.replace("problem.mu = 1", "problem.mu = 0.01") + (
        "algorithm.scheme = gradient\nschedule.alpha_kind = ramp\nschedule.alpha_start = 0\n"
        "schedule.alpha_end = 0.5\nschedule.alpha_ramp_iters = 1500\nschedule.lambda = 0.9\n"
        "stopping.max_iters = 1000\n"),
    # split Douglas-Rachford on [x; y] points, which no workload runs; converges in 489 steps
    "tv-sdr": RUN + ("problem.kind = tv1d\nproblem.n = 30\n"
                     "algorithm.scheme = sdr\nschedule.alpha = 0.2\nschedule.lambda = 1\n"),
}
CHECK_PARAMS = [
    ["--alpha", "0.2", "--lambda", "0.5"],
    ["--alpha", "0.5", "--lambda", "0.9", "--q", "0.9", "--xi", "1"],
    ["--alpha", "0", "--lambda", "1.4", "--gamma", "0.5"],
    # prints the relaxation line, then fails on lambda > 1 with exit 64
    ["--alpha", "0.2", "--lambda", "1.4", "--q", "0.9"],
]


def src_dir(path: str) -> str:
    path = os.path.abspath(path)
    if os.path.isdir(os.path.join(path, "src", "ikm")):
        return os.path.join(path, "src")
    if os.path.isdir(os.path.join(path, "ikm")):
        return path
    raise SystemExit(f"{path}: neither a checkout with src/ikm nor a src directory")


def seed_list(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def fixed_cases(seed: int) -> Iterator[Tuple[str, Dict[str, str], List[List[str]]]]:
    """(name, files, argument lists) of each fixed case at one seed."""
    for name, text in FIXED_CONFIGS.items():
        config = text.format(seed=seed) + f"output.trace = {name}.csv\n"
        yield name, {f"{name}.cfg": config}, [["run", f"{name}.cfg"], ["certify", f"{name}.csv"]]
    yield "check-params", {}, [["check-params"] + args for args in CHECK_PARAMS]


def cases(seeds: List[int]) -> Iterator[Tuple[str, Dict[str, str], List[List[str]]]]:
    """(label, files, argument lists) of every workload and fixed case."""
    for name, size, seed in itertools.product(sorted(workloads.WORKLOADS), ("full", "smoke"),
                                              seeds):
        wl = workloads.make(name, seed, smoke=size == "smoke")
        yield (f"{name} seed={seed} {size}", wl.files,
               [cmd.args for cmd in [wl.setup] + wl.commands])
    for seed in seeds:
        for name, files, argvs in fixed_cases(seed):
            yield f"{name} seed={seed} fixed", files, argvs


def run_case(src: str, files: Dict[str, str], argvs: List[List[str]],
             workdir: str) -> Tuple[List[tuple], Dict[str, bytes]]:
    """Run the commands in ``workdir``; (per-command results, files written)."""
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    env = dict(os.environ, PYTHONPATH=src)
    results = []
    for args in argvs:
        proc = subprocess.run([sys.executable, "-m", "ikm.cli"] + args, cwd=workdir, env=env,
                              capture_output=True, timeout=TIMEOUT_S)
        results.append((" ".join(args), proc.returncode, proc.stdout, proc.stderr))
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    return results, files


def first_difference(a: bytes, b: bytes) -> str:
    """The first differing line, and how many of the paired lines differ."""
    la, lb = a.splitlines(), b.splitlines()
    differing = [i for i, (x, y) in enumerate(zip(la, lb)) if x != y]
    if not differing:
        return f"{len(la)} vs {len(lb)} lines"
    i = differing[0]
    return (f"line {i + 1}: {la[i][:100]!r} vs {lb[i][:100]!r} "
            f"({len(differing)} of {min(len(la), len(lb))} lines differ)")


def csv_difference(a: bytes, b: bytes) -> str:
    """Header, row count and ``k`` column agreement of two CSV files, and the
    largest relative difference in each column whose fields differ (``text``
    when a differing field is not a number)."""
    (head_a, *rows_a), (head_b, *rows_b) = (
        [line.split(",") for line in text.decode().splitlines()
         if line and not line.startswith("#")] or [[]]
        for text in (a, b))
    parts = [f"header {'agrees' if head_a == head_b else 'differs'}",
             f"rows {len(rows_a)} vs {len(rows_b)}"]
    if head_a != head_b or len(rows_a) != len(rows_b):
        return "; ".join(parts)
    if "k" in head_a:
        j = head_a.index("k")
        same = all(ra[j] == rb[j] for ra, rb in zip(rows_a, rows_b))
        parts.append(f"k column {'agrees' if same else 'differs'}")
    for j, name in enumerate(head_a):
        worst = 0.0
        for ra, rb in zip(rows_a, rows_b):
            if ra[j] == rb[j]:
                continue
            try:
                x, y = float(ra[j]), float(rb[j])
            except ValueError:
                worst = "text"
                break
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
        if worst:
            parts.append(f"{name} {worst if worst == 'text' else f'{worst:.3g}'}")
    return "; ".join(parts)


def trace_version(data: bytes) -> bytes:
    """The first line of a trace CSV (its format version), else b""."""
    first = data.split(b"\n", 1)[0]
    return first if first.startswith(TRACE_MAGIC) else b""


def parsed_difference(a: bytes, b: bytes, new_src: str) -> str:
    """The columns in which two trace files parse differently with the new
    tree's reader ("" when none), or the reader's error."""
    with tempfile.TemporaryDirectory(prefix="ikm-parity-trace-") as tmp:
        paths = [os.path.join(tmp, name) for name in ("old.csv", "new.csv")]
        for path, data in zip(paths, (a, b)):
            with open(path, "wb") as fh:
                fh.write(data)
        proc = subprocess.run([sys.executable, "-c", PARSED_DIFFERENCE] + paths,
                              env=dict(os.environ, PYTHONPATH=new_src), capture_output=True,
                              timeout=TIMEOUT_S)
    if proc.returncode:
        return f"reader failed: {proc.stderr.decode().strip().splitlines()[-1:]}"
    return proc.stdout.decode().strip()


def compare(old, new, new_src: str) -> Tuple[List[str], List[str]]:
    """(differences, trace files compared by what they parse to)."""
    (old_cmds, old_files), (new_cmds, new_files) = old, new
    diffs, parsed = [], []
    for (args, rc_a, out_a, err_a), (_, rc_b, out_b, err_b) in zip(old_cmds, new_cmds):
        if rc_a != rc_b:
            diffs.append(f"`{args}`: exit code {rc_a} vs {rc_b}")
        for label, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
            if a != b:
                diffs.append(f"`{args}` {label}: {first_difference(a, b)}")
    for name in sorted(set(old_files) | set(new_files)):
        if name not in old_files or name not in new_files:
            diffs.append(f"{name}: written by one tree only")
        elif old_files[name] != new_files[name]:
            versions = {trace_version(old_files[name]), trace_version(new_files[name])}
            if len(versions) == 2 and b"" not in versions:
                parsed.append(name)
                columns = parsed_difference(old_files[name], new_files[name], new_src)
                if columns:
                    diffs.append(f"{name}: parsed traces differ in {columns}")
                continue
            diffs.append(f"{name}: {first_difference(old_files[name], new_files[name])}")
            if name.endswith(".csv"):
                diffs.append(f"{name}: {csv_difference(old_files[name], new_files[name])}")
    return diffs, parsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--seeds", default="1-5", help="e.g. 1-5 or 1,3,7 (default 1-5)")
    args = parser.parse_args(argv)
    trees = (src_dir(args.old), src_dir(args.new))

    differing = 0
    # the two trees of one case run side by side, cases one after another
    with tempfile.TemporaryDirectory(prefix="ikm-parity-") as scratch, \
            ThreadPoolExecutor(max_workers=2) as pool:
        for label, files, argvs in cases(seed_list(args.seeds)):
            dirs = [os.path.join(scratch, side) for side in ("old", "new")]
            for d in dirs:
                os.mkdir(d)
            old, new = pool.map(run_case, trees, (files, files), (argvs, argvs), dirs)
            for d in dirs:
                shutil.rmtree(d)
            diffs, parsed = compare(old, new, trees[1])
            differing += bool(diffs)
            note = f"; parsed: {', '.join(parsed)}" if parsed else ""
            print(f"{label}: {'DIFFERENT' if diffs else 'identical'} "
                  f"({', '.join(sorted(new[1]))}{note})", flush=True)
            for line in diffs:
                print(f"    {line}", flush=True)
    print(f"{differing} differing case(s)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
