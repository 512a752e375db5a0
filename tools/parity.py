"""Byte-for-byte output parity of the benchmark workloads between two source trees.

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
the directory holds afterwards.  It prints one line per case and exits 1
when anything differs, 0 otherwise.
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
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

TIMEOUT_S = 600


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


def run_case(src: str, wl: workloads.Workload,
             workdir: str) -> Tuple[List[tuple], Dict[str, bytes]]:
    """Run the workload in ``workdir``; (per-command results, files written)."""
    for name, text in wl.files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    env = dict(os.environ, PYTHONPATH=src)
    results = []
    for cmd in [wl.setup] + wl.commands:
        proc = subprocess.run([sys.executable, "-m", "ikm.cli"] + cmd.args, cwd=workdir, env=env,
                              capture_output=True, timeout=TIMEOUT_S)
        results.append((" ".join(cmd.args), proc.returncode, proc.stdout, proc.stderr))
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    return results, files


def first_difference(a: bytes, b: bytes) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb), start=1):
        if x != y:
            return f"line {i}: {x[:100]!r} vs {y[:100]!r}"
    return f"{len(la)} vs {len(lb)} lines"


def compare(old, new) -> List[str]:
    (old_cmds, old_files), (new_cmds, new_files) = old, new
    diffs = []
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
            diffs.append(f"{name}: {first_difference(old_files[name], new_files[name])}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--seeds", default="1-5", help="e.g. 1-5 or 1,3,7 (default 1-5)")
    args = parser.parse_args(argv)
    trees = (src_dir(args.old), src_dir(args.new))

    differing = 0
    cases = itertools.product(sorted(workloads.WORKLOADS), ("full", "smoke"),
                              seed_list(args.seeds))
    # the two trees of one case run side by side, cases one after another
    with tempfile.TemporaryDirectory(prefix="ikm-parity-") as scratch, \
            ThreadPoolExecutor(max_workers=2) as pool:
        for name, size, seed in cases:
            wl = workloads.make(name, seed, smoke=size == "smoke")
            dirs = [os.path.join(scratch, side) for side in ("old", "new")]
            for d in dirs:
                os.mkdir(d)
            old, new = pool.map(run_case, trees, (wl, wl), dirs)
            for d in dirs:
                shutil.rmtree(d)
            diffs = compare(old, new)
            differing += bool(diffs)
            print(f"{name} seed={seed} {size}: {'DIFFERENT' if diffs else 'identical'} "
                  f"({', '.join(sorted(new[1]))})", flush=True)
            for line in diffs:
                print(f"    {line}", flush=True)
    print(f"{differing} differing case(s)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
