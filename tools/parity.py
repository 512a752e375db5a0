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
on seven small quadratic configs that take the check and schedule paths the
workloads do not (every check on a certified run, ``run.p_ref = none``, an
infeasible schedule, ramp alpha with a lambda table, a ramp of one step
(``schedule.alpha_ramp_iters = 1``), table alpha with a constant lambda
above 1, a run that ends ``stalled`` on ``stopping.stall_tol``), on a quadratic ramp-alpha config with
``stopping.max_iters = 100000`` that converges early (its ``relaxation_seq``
line spans the 50-step ramp, not the budget), on a quadratic ramp whose
alpha climbs to an infeasible 0.6 over 10**6 steps while the run converges
in about 130, so the ``relaxation_seq`` line over ``k = 2..1000000`` and
the failing lines of its limit are compared, on a
1,000-row quadratic run whose alpha ramps out of the feasible region, so
that ``ck`` and ``product`` FAIL with violations past the first two
``ROW_CHUNK``s of the replays, on a
small ``three_term`` config (the Davis-Yin
path, which no workload runs), on the same config at ``algorithm.rho = 0.1``
and at ``0.28`` (the fixed point at a step below and above the default, in
closed form from the default reference), on a small ``lasso`` config and on a
``tv1d`` config with ``n = 30``, ``alpha = 0.2`` and ``lambda = 1`` run by
``sdr`` (split Douglas-Rachford, which no workload runs), on three certified
schedules whose ``ck`` verdict depends on the ``ck`` replay forming ``C_k`` at
``eta = gamma * lambda`` (quadratic ``proximal`` at ``alpha = 0.2``, tv1d ``pd`` at ``n =
60``, ``alpha = 0`` and ``lambda = 1.9``, feasibility ``dr`` at ``alpha =
0.2``), on a tv1d ``pd`` run at a small ``tau`` whose ``descent`` line FAILs
on more than five indices and whose ``small_o`` parts are both SKIPPED, in
``ikm run`` and ``ikm certify``; ``ikm sweep`` on
the same small ``three_term`` instance (the Davis-Yin sweep path, which no
workload runs); five ``ikm check-params`` argument sets; and ``ikm
lambda-grid`` on a 12 x 7 grid, whose table is compared.  The tool prints
one line per case and exits 1 when anything differs, 0 otherwise.  A
differing output is shown by the first block of a line diff (insert, delete
or replace), its line in each output and the count of lines the two outputs
share, in time linear in their length (see ``first_difference``); for a CSV
file the tool also prints whether the header, the row count and the ``k``
column agree, and the largest relative difference in each column whose
fields differ.  A differing output whose every differing line is a ``#``
comment line (a trace's or table's header lines) is marked ``comment lines
only``, and the last line counts the differing cases that differ only so.
"""

from __future__ import annotations

import argparse
import difflib
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
# lines of each output's differing middle that first_difference aligns with
# difflib, whose time grows with their square when matching and differing
# lines interleave
DIFF_WINDOW = 500

# every key of a config is one its command reads: ikm sweep reads no output.checks
BUDGET = """problem.seed = {seed}
stopping.max_iters = 5000
stopping.residual_tol = 1e-11
"""
RUN = BUDGET + "output.checks = ck,descent,contraction,product,small_o\n"
QUADRATIC = RUN + "problem.kind = quadratic\nproblem.dim = 20\nproblem.mu = 1\nproblem.L = 10\n"
GRADIENT = QUADRATIC + "algorithm.scheme = gradient\n"
LEAST_SQUARES_SIZE = "problem.m = 30\nproblem.n = 80\n"
LEAST_SQUARES = RUN + LEAST_SQUARES_SIZE
FIXED_CONFIGS = {
    "certified": GRADIENT + "schedule.alpha = 0.05\nschedule.lambda = 0.9\n",
    "no-ref": GRADIENT + "schedule.alpha = 0.05\nschedule.lambda = 0.9\nrun.p_ref = none\n",
    "infeasible": QUADRATIC + ("algorithm.scheme = proximal\nalgorithm.rho = 1\n"
                               "schedule.alpha = 0.9\nschedule.lambda = 0.99\n"),
    "ramp-table": GRADIENT + ("schedule.alpha_kind = ramp\nschedule.alpha_start = 0\n"
                              "schedule.alpha_end = 0.1\nschedule.alpha_ramp_iters = 30\n"
                              "schedule.lambda_kind = table\n"
                              "schedule.lambda_table = 0.5,0.7,0.9\n"),
    # a one-step ramp: alpha_end from k = 1, the ramp formula never divides
    "ramp-one": GRADIENT + ("schedule.alpha_kind = ramp\nschedule.alpha_start = 0\n"
                            "schedule.alpha_end = 0.1\nschedule.alpha_ramp_iters = 1\n"
                            "schedule.lambda = 0.9\n"),
    # lambda > 1 skips the contraction replays; the run stops at max_iters
    "table-constant": GRADIENT + ("schedule.alpha_kind = table\n"
                                  "schedule.alpha_table = 0,0.02,0.04,0.05\n"
                                  "schedule.lambda = 1.05\nstopping.max_iters = 300\n"),
    # Davis-Yin at rho = 1/L is 2/3-averaged, so lambda = 1.1 is feasible at alpha = 0.1
    "three-term": LEAST_SQUARES + ("problem.kind = three_term\nalgorithm.scheme = dy\n"
                                   "schedule.alpha = 0.1\nschedule.lambda = 1.1\n"),
    # the Davis-Yin fixed point moves with rho: at rho = 0.1, below the default
    # rho0 = 1/L (0.147-0.170 at seeds 1-5), it is the closed form x* + rho v* of the
    # default reference; at 0.28, above rho0 and below 2/L, the same form on the other side
    "three-term-rho": LEAST_SQUARES + ("problem.kind = three_term\nalgorithm.scheme = dy\n"
                                       "algorithm.rho = 0.1\n"
                                       "schedule.alpha = 0.1\nschedule.lambda = 0.9\n"),
    "three-term-rho-high": LEAST_SQUARES + ("problem.kind = three_term\nalgorithm.scheme = dy\n"
                                            "algorithm.rho = 0.28\n"
                                            "schedule.alpha = 0.1\nschedule.lambda = 0.9\n"),
    "lasso": LEAST_SQUARES + ("problem.kind = lasso\nalgorithm.scheme = fb\n"
                              "schedule.alpha = 0.2\nschedule.lambda = 0.9\n"),
    # a 50-step ramp under a 100,000-step budget; the run converges long before
    "ramp-long": GRADIENT + ("schedule.alpha_kind = ramp\nschedule.alpha_start = 0\n"
                             "schedule.alpha_end = 0.1\nschedule.alpha_ramp_iters = 50\n"
                             "schedule.lambda = 0.9\nstopping.max_iters = 100000\n"),
    # the relaxation_seq line spans k = 2..1000000, and the limit (0.6, 0.9) fails
    # both the relaxation and the contraction certificates; converges in about 130 steps
    "ramp-limit": GRADIENT + ("schedule.alpha_kind = ramp\nschedule.alpha_start = 0\n"
                              "schedule.alpha_end = 0.6\nschedule.alpha_ramp_iters = 1000000\n"
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
    # three certified schedules, 0.95 of lambda_alpha_1(alpha) / gamma, whose ck verdict
    # depends on the ck replay forming C_k at eta = gamma * lambda (FAIL under lambda)
    "certified-proximal": QUADRATIC + ("algorithm.scheme = proximal\nschedule.alpha = 0.2\n"
                                       "schedule.lambda = 1.3818181818181818\n"),
    "certified-tv-pd": RUN + ("problem.kind = tv1d\nproblem.n = 60\nalgorithm.scheme = pd\n"
                              "schedule.alpha = 0\nschedule.lambda = 1.9\n"),
    "certified-dr": RUN + ("problem.kind = feasibility\nproblem.dim = 20\nalgorithm.scheme = dr\n"
                           "schedule.alpha = 0.2\nschedule.lambda = 1.3818181818181818\n"),
    # pd at tau * sigma * 4 = 0.98 with tau small: the Euclidean descent inequality fails on
    # 250-320 rows of a converged run that the certificates admit (eta = 0.95), so the
    # FAIL line lists the first five of them; both small_o parts print SKIPPED
    "tv-pd-small-tau": RUN + ("problem.kind = tv1d\nproblem.n = 60\nalgorithm.scheme = pd\n"
                              "algorithm.tau = 0.0125\nalgorithm.sigma = 19.6\n"
                              "schedule.alpha = 0\nschedule.lambda = 1.9\n"),
}
# ikm sweep on the 30x80 three_term; the baseline rows for lambda 1.1 and 0.9 are added
SWEEP_CONFIGS = {
    "three-term-sweep": BUDGET + LEAST_SQUARES_SIZE + (
        "problem.kind = three_term\nalgorithm.scheme = dy\n"
        "sweep.1.alpha = 0.1\nsweep.1.lambda = 1.1\n"
        "sweep.2.alpha = 0.3\nsweep.2.lambda = 0.9\n"),
}
CHECK_PARAMS = [
    ["--alpha", "0.2", "--lambda", "0.5"],
    ["--alpha", "0.5", "--lambda", "0.9", "--q", "0.9", "--xi", "1"],
    ["--alpha", "0", "--lambda", "1.4", "--gamma", "0.5"],
    # prints the relaxation line, then fails on lambda > 1 with exit 64
    ["--alpha", "0.2", "--lambda", "1.4", "--q", "0.9"],
    # feasibility_poly(1) rounds to 0 at this alpha: lambda_alpha_q is the
    # feasible end of its bisection
    ["--alpha", "1e-17", "--lambda", "0.5", "--q", "0.5"],
]
# a small grid: every cell is checked against the closed-form bracket as it is written
LAMBDA_GRID = ["lambda-grid", "--alpha-steps", "12", "--q-steps", "7", "--out", "grid.csv"]


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
    for name, text in SWEEP_CONFIGS.items():
        config = text.format(seed=seed) + f"output.table = {name}.csv\n"
        yield name, {f"{name}.cfg": config}, [["sweep", f"{name}.cfg"]]
    yield "check-params", {}, [["check-params"] + args for args in CHECK_PARAMS]
    yield "lambda-grid", {}, [LAMBDA_GRID]


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
    """Where a line diff of two outputs first parts: the kind of the first
    block that differs (insert, delete or replace), its line in each output,
    the block's first line on each side and how many lines the outputs share.

    The lines the outputs start and end with in common are matched line by
    line, and ``difflib.SequenceMatcher`` aligns only the middle between
    them, at most ``DIFF_WINDOW`` lines of each side from its start.  When a
    middle is longer, the block is the first one within that window, and
    the shared count is a lower bound: the lines the window aligns or, for
    middles of equal length, the lines equal at the same place, whichever
    is more.
    """
    la, lb = a.splitlines(), b.splitlines()
    n = min(len(la), len(lb))
    head = next((i for i in range(n) if la[i] != lb[i]), n)
    if head == len(la) == len(lb):
        return f"{len(la)} vs {len(lb)} lines"
    tail = next((i for i in range(n - head) if la[-1 - i] != lb[-1 - i]), n - head)
    mid_a, mid_b = la[head:len(la) - tail], lb[head:len(lb) - tail]
    cut = max(len(mid_a), len(mid_b)) > DIFF_WINDOW
    matcher = difflib.SequenceMatcher(None, mid_a[:DIFF_WINDOW], mid_b[:DIFF_WINDOW],
                                      autojunk=False)
    kind, i1, i2, j1, j2 = next(op for op in matcher.get_opcodes() if op[0] != "equal")
    shared = head + tail + sum(block.size for block in matcher.get_matching_blocks())
    if cut and len(mid_a) == len(mid_b):
        shared = max(shared, head + tail + sum(map(bytes.__eq__, mid_a, mid_b)))

    def first(lines, lo, hi):
        return repr(lines[lo][:100]) if lo < hi else "nothing"

    return (f"{kind} at line {head + i1 + 1} vs {head + j1 + 1}: {first(mid_a, i1, i2)} vs "
            f"{first(mid_b, j1, j2)} ({i2 - i1} vs {j2 - j1} lines; "
            f"{'at least ' if cut else ''}{shared} of {len(la)} vs {len(lb)} lines shared)")


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


def comment_lines_only(a: bytes, b: bytes) -> bool:
    """Whether two outputs agree once their ``#`` comment lines are dropped,
    that is, whether every line in which they differ is a comment line."""
    def body(text):
        return [line for line in text.splitlines() if not line.startswith(b"#")]
    return body(a) == body(b)


def difference(a: bytes, b: bytes) -> str:
    """:func:`first_difference`, marked when only comment lines differ."""
    return first_difference(a, b) + ("; comment lines only" if comment_lines_only(a, b) else "")


def compare(old, new) -> List[str]:
    """The differences between two trees' results of one case."""
    (old_cmds, old_files), (new_cmds, new_files) = old, new
    diffs = []
    for (args, rc_a, out_a, err_a), (_, rc_b, out_b, err_b) in zip(old_cmds, new_cmds):
        if rc_a != rc_b:
            diffs.append(f"`{args}`: exit code {rc_a} vs {rc_b}")
        for label, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
            if a != b:
                diffs.append(f"`{args}` {label}: {difference(a, b)}")
    for name in sorted(set(old_files) | set(new_files)):
        if name not in old_files or name not in new_files:
            diffs.append(f"{name}: written by one tree only")
        elif old_files[name] != new_files[name]:
            diffs.append(f"{name}: {difference(old_files[name], new_files[name])}")
            # a CSV whose rows agree has no column to report
            if name.endswith(".csv") and not diffs[-1].endswith("comment lines only"):
                diffs.append(f"{name}: {csv_difference(old_files[name], new_files[name])}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--seeds", default="1-5", help="e.g. 1-5 or 1,3,7 (default 1-5)")
    args = parser.parse_args(argv)
    trees = (src_dir(args.old), src_dir(args.new))

    differing = comments = 0
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
            diffs = compare(old, new)
            differing += bool(diffs)
            comments += bool(diffs) and all(line.endswith("comment lines only") for line in diffs)
            print(f"{label}: {'DIFFERENT' if diffs else 'identical'} "
                  f"({', '.join(sorted(new[1]))})", flush=True)
            for line in diffs:
                print(f"    {line}", flush=True)
    print(f"{differing} differing case(s), {comments} in comment lines only")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
