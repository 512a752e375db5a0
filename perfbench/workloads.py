"""Workload definitions: configs generated from a seed, and their correctness gates.

A workload is a short sequence of ``ikm`` CLI commands.  Each command has
the exit code it must return, the files it writes, and a gate that reads
its standard output and files and returns a list of failure messages (an
empty list is a pass).

The problem instance of every workload is fixed (``problem.seed = 1``, the
instance the ROADMAP baseline measured).  The benchmark seed varies the rest
of the input: the inertia ``alpha`` of ``quad-run`` and ``tv-run-certify``
moves on a five-point grid around its canonical value, and the schedule order
of ``lasso-sweep`` is rotated.  Seed 1 gives the canonical configs.  The
instance is not drawn from the seed because run length on ``tv1d`` depends
on it by up to 4x (17.3k iterations and 27.6k reference steps at seed 1,
4.7k and 7.3k at seed 2), which would make seed-to-seed spread, not the
code, set the benchmark's noise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Gate = Callable[[str, str], List[str]]


@dataclass
class Command:
    """One CLI invocation: ``ikm <args>`` run in the workload directory."""

    args: List[str]
    expect_rc: int
    outputs: List[str]
    gate: Optional[Gate] = None


@dataclass
class Workload:
    name: str
    files: Dict[str, str]
    setup: Command
    commands: List[Command]
    # (config file, alpha, lambda) of the operator the bare loop iterates
    bare: Tuple[str, float, float]
    # matrix bytes one operator apply reads, computed from the matrix shapes
    apply_bytes: int


def _config(items: Sequence[Tuple[str, object]]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in items)


def _jitter(seed: int) -> int:
    """Grid offset in -2..2; seed 1 gives 0 (the canonical config)."""
    return (seed + 1) % 5 - 2


def _setup_variant(items: Sequence[Tuple[str, object]], out_key: str, out_file: str):
    """The same config cut to one iteration, no checks, its own output file."""
    overrides = {"stopping.max_iters": 1, "output.checks": "none", out_key: out_file}
    return [(key, overrides.get(key, value)) for key, value in items]


# --------------------------------------------------------------------------
# output parsing and gates


def _data_rows(path: str) -> Tuple[List[str], List[List[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{os.path.basename(path)}: no header")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def check_lines_pass(stdout: str, required: Sequence[str]) -> List[str]:
    """``ikm run`` check lines: each required check present and PASS only."""
    found = {}
    for line in stdout.splitlines():
        if line.startswith("check "):
            found[line[len("check "):].split(":")[0]] = line
    fails = []
    for name in required:
        line = found.get(name)
        if line is None:
            fails.append(f"check {name}: missing")
        elif "PASS" not in line or "FAIL" in line or "SKIPPED" in line:
            fails.append(f"check {name} did not pass: {line!r}")
    return fails


def converged_run(checks: Sequence[str]) -> Gate:
    """``ikm run``: status ``converged`` and every named check line PASS."""

    def gate(stdout: str, workdir: str) -> List[str]:
        fails = [] if "status=converged" in stdout else ["status is not converged"]
        return fails + check_lines_pass(stdout, checks)

    return gate


def certify_gate(expect_skipped: Sequence[str] = ()) -> Gate:
    """``ikm certify``: every verdict line PASS, except the named ones SKIPPED."""

    def gate(stdout: str, workdir: str) -> List[str]:
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        if not lines:
            return ["certify printed no verdicts"]
        fails = []
        for line in lines:
            name = line.split(":")[0]
            if name in expect_skipped:
                if "SKIPPED" not in line:
                    fails.append(f"expected SKIPPED: {line!r}")
            elif "PASS" not in line or "FAIL" in line or "SKIPPED" in line:
                fails.append(f"verdict is not PASS: {line!r}")
        return fails

    return gate


def rate_bound_rows(trace_path: str) -> List[str]:
    """Every trace row satisfies ``dist_to_ref^2 <= rate_bound``."""
    header, rows = _data_rows(trace_path)
    i_d, i_r = header.index("dist_to_ref"), header.index("rate_bound")
    if not rows:
        return ["trace has no rows"]
    fails = []
    for row in rows:
        if not row[i_d] or not row[i_r]:
            fails.append(f"row k={row[0]}: dist_to_ref or rate_bound is empty")
        elif float(row[i_d]) ** 2 > float(row[i_r]):
            fails.append(f"row k={row[0]}: dist_to_ref^2 {float(row[i_d]) ** 2!r} > "
                         f"rate_bound {row[i_r]}")
        if len(fails) >= 5:
            fails.append("(further rows not reported)")
            break
    return fails


# --------------------------------------------------------------------------
# workloads

QUAD_CHECKS = ("ck", "descent", "contraction", "product", "small_o")
LASSO_SCHEDULES = [(0.1, 0.9), (0.2, 0.9), (0.3, 0.9), (0.2, 1.2),
                   (0.4, 0.5), (0.1, 0.5), (0.3, 0.5), (0.15, 1.1)]


def quad_run(seed: int, smoke: bool) -> Workload:
    """``ikm run`` on a quadratic with the gradient map: engine-overhead bound."""
    dim, mu = (10, 1.0) if smoke else (50, 0.01)
    alpha = 0.05 + 0.0025 * _jitter(seed)
    lam = 0.9
    items = [
        ("problem.kind", "quadratic"), ("problem.dim", dim), ("problem.mu", mu),
        ("problem.L", 10), ("problem.seed", 1),
        ("algorithm.scheme", "gradient"),
        ("schedule.alpha", repr(alpha)), ("schedule.lambda", lam),
        ("stopping.max_iters", 100000), ("stopping.residual_tol", "1e-12"),
        ("output.trace", "quad.csv"),
        ("output.checks", ",".join(QUAD_CHECKS)),
    ]

    def gate(stdout: str, workdir: str) -> List[str]:
        return (converged_run(QUAD_CHECKS)(stdout, workdir)
                + rate_bound_rows(os.path.join(workdir, "quad.csv")))

    return Workload(
        name="quad-run",
        files={"quad.cfg": _config(items),
               "quad_setup.cfg": _config(_setup_variant(items, "output.trace", "quad_setup.csv"))},
        setup=Command(["run", "quad_setup.cfg"], 2, ["quad_setup.csv"]),
        commands=[Command(["run", "quad.cfg"], 0, ["quad.csv"], gate)],
        bare=("quad.cfg", alpha, lam),
        apply_bytes=8 * dim * dim,
    )


def tv_run_certify(seed: int, smoke: bool) -> Workload:
    """``ikm run`` on 1-D TV with primal-dual steps, then ``ikm certify`` on its trace."""
    n = 20 if smoke else 200
    alpha = 0.2 + 0.005 * _jitter(seed)
    lam = 1.0
    items = [
        ("problem.kind", "tv1d"), ("problem.n", n), ("problem.mu_reg", 0.5),
        ("problem.seed", 1),
        ("algorithm.scheme", "pd"),
        ("schedule.alpha", repr(alpha)), ("schedule.lambda", lam),
        ("stopping.max_iters", 100000), ("stopping.residual_tol", "1e-10"),
        ("output.trace", "tv.csv"),
        ("output.checks", "ck,descent,small_o"),
    ]

    return Workload(
        name="tv-run-certify",
        files={"tv.cfg": _config(items),
               "tv_setup.cfg": _config(_setup_variant(items, "output.trace", "tv_setup.csv"))},
        setup=Command(["run", "tv_setup.cfg"], 2, ["tv_setup.csv"]),
        commands=[
            Command(["run", "tv.cfg"], 0, ["tv.csv"], converged_run(("ck", "descent", "small_o"))),
            Command(["certify", "tv.csv"], 0, [], certify_gate(("contraction",))),
        ],
        bare=("tv.cfg", alpha, lam),
        # D is (n-1) x n and each primal-dual sweep applies D and D^T once
        apply_bytes=2 * 8 * (n - 1) * n,
    )


def lasso_sweep(seed: int, smoke: bool) -> Workload:
    """``ikm sweep`` of eight schedules (plus four baselines) on a LASSO, forward-backward."""
    m, n = (20, 50) if smoke else (200, 500)
    tol = 1e-11
    shift = (seed - 1) % len(LASSO_SCHEDULES)
    schedules = LASSO_SCHEDULES[shift:] + LASSO_SCHEDULES[:shift]
    items = [
        ("problem.kind", "lasso"), ("problem.m", m), ("problem.n", n),
        ("problem.sparsity", 0.05), ("problem.mu_reg", 0.05), ("problem.seed", 1),
        ("algorithm.scheme", "fb"),
        ("stopping.max_iters", 100000), ("stopping.residual_tol", repr(tol)),
        ("output.table", "lasso.csv"),
    ]
    for i, (a, lam) in enumerate(schedules, start=1):
        items += [(f"sweep.{i}.alpha", a), (f"sweep.{i}.lambda", lam)]
    n_rows = len(schedules) + len({lam for _, lam in schedules})
    flagged: Dict[str, object] = {}

    def gate(stdout: str, workdir: str) -> List[str]:
        header, rows = _data_rows(os.path.join(workdir, "lasso.csv"))
        col = {name: i for i, name in enumerate(header)}
        if len(rows) != n_rows:
            return [f"table has {len(rows)} rows, expected {n_rows}"]
        fails = []
        for row in rows:
            if row[col["status"]] != "converged":
                fails.append(f"row {row[0]}: status {row[col['status']]}")
            elif not float(row[col["final_residual"]]) <= tol:
                fails.append(f"row {row[0]}: final_residual {row[col['final_residual']]} > {tol}")
        objs = [float(row[col["final_objective"]]) for row in rows]
        spread = max(abs(f - objs[0]) for f in objs) / abs(objs[0])
        if not spread <= 1e-12:
            fails.append(f"final_objective disagrees across rows by {spread:.3g} relative")
        warned = sorted((row[col["alpha"]], row[col["lambda"]]) for row in rows
                        if row[col["warning"]])
        if flagged.setdefault("rows", warned) != warned:
            fails.append(f"warning flags rows {warned}, an earlier run flagged {flagged['rows']}")
        return fails

    return Workload(
        name="lasso-sweep",
        files={"lasso.cfg": _config(items), "lasso_setup.cfg": _config(
            _setup_variant(items, "output.table", "lasso_setup.csv"))},
        setup=Command(["sweep", "lasso_setup.cfg"], 0, ["lasso_setup.csv"]),
        commands=[Command(["sweep", "lasso.cfg"], 0, ["lasso.csv"], gate)],
        bare=("lasso.cfg",) + schedules[0],
        apply_bytes=8 * n * n,
    )


WORKLOADS = {w.__name__.replace("_", "-"): w for w in (quad_run, tv_run_certify, lasso_sweep)}


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, smoke)

