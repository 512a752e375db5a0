"""Configuration-driven command line front end.

Subcommands::

    ikm run <config>            drive one experiment, write the trace CSV
    ikm check-params ...        evaluate parameter feasibility inequalities
    ikm lambda-grid ...         tabulate the feasibility boundary root
    ikm sweep <config>          compare schedules on one problem
    ikm certify <trace.csv>     re-analyze an exported trace

Exit codes: 0 success/convergence, 1 failed checks, 2 iteration budget
exhausted, 3 divergence, 64 usage or configuration errors.  Trace CSVs are
byte-stable across runs: floats are printed with 17 significant digits and
the fully resolved configuration is embedded as a '# config:' comment.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import certificates as cert
from . import engine, problems
from .config import ConfigError, ConfigView, deserialize_config, load_config, serialize_config
from .engine import (COLUMNS, OPTIONAL_COLUMNS, DivergenceError, Schedule, StoppingRule, Trace,
                     monotone_prefix)
from .operators import OperatorHandle, residual as op_residual

# the columns of an ikm-trace-v2 file: k, the measured columns and the
# rate_bound promise.  An ikm-trace-v1 file holds every Trace column
TRACE_FIELDS = ("k", "residual", "step", "dist_to_ref", "objective", "rate_bound")
TRACE_COLUMNS = ",".join(TRACE_FIELDS)
TRACE_HEADERS = {TRACE_COLUMNS: TRACE_FIELDS, ",".join(COLUMNS): COLUMNS}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MAX_ITERS = 2
EXIT_DIVERGED = 3
EXIT_USAGE = 64

class UsageError(Exception):
    pass


def _fmt(x) -> str:
    return "" if x is None else "%.17g" % x


# --------------------------------------------------------------------------
# config -> objects


def build_instance(view: ConfigView) -> problems.BenchmarkInstance:
    kind = view.get_str("problem.kind")
    seed = view.get_int("problem.seed", 1)
    if kind == "quadratic":
        return problems.make_quadratic(
            dim=view.get_int("problem.dim", 50),
            mu=view.get_float("problem.mu", 1.0),
            L_smooth=view.get_float("problem.L", 10.0),
            seed=seed,
        )
    if kind == "lasso":
        return problems.make_lasso(
            m=view.get_int("problem.m", 40),
            n=view.get_int("problem.n", 100),
            sparsity=view.get_float("problem.sparsity", 0.1),
            mu_reg=view.get_float("problem.mu_reg", 0.1),
            seed=seed,
        )
    if kind == "tv1d":
        return problems.make_tv1d(
            n=view.get_int("problem.n", 200),
            mu_reg=view.get_float("problem.mu_reg", 0.5),
            seed=seed,
        )
    if kind == "three_term":
        return problems.make_three_term(
            m=view.get_int("problem.m", 40),
            n=view.get_int("problem.n", 100),
            mu_reg=view.get_float("problem.mu_reg", 0.1),
            box_lo=view.get_float("problem.box_lo", -1.0),
            box_hi=view.get_float("problem.box_hi", 1.0),
            seed=seed,
            sparsity=view.get_float("problem.sparsity", 0.1),
        )
    if kind == "feasibility":
        return problems.make_feasibility(
            dim=view.get_int("problem.dim", 20),
            seed=seed,
        )
    raise ConfigError(f"unknown problem.kind {kind!r}")


def _schedule_param(view: ConfigView, key: str, default: Optional[float] = None) -> float:
    """Config ``key`` ending in ``alpha``, ``lambda`` or ``xi``, checked against its range:
    ``alpha`` in [0, 1), ``lambda > 0``, ``xi`` in [0, 1]."""
    value = view.get_float(key, default)
    name = key.rsplit(".", 1)[-1]
    if name == "alpha" and not 0.0 <= value < 1.0:
        raise ConfigError(f"{key} must lie in [0, 1)")
    if name == "lambda" and not value > 0.0:
        raise ConfigError(f"{key} must be > 0")
    if name == "xi" and not 0.0 <= value <= 1.0:
        raise ConfigError(f"{key} must lie in [0, 1]")
    return value


def build_schedule(view: ConfigView) -> Tuple[Schedule, Dict[str, str], float]:
    """(schedule, resolved keys describing it, xi); a constant/constant
    schedule is a :meth:`Schedule.constant`, whose ``const`` is
    ``(alpha, lambda)``."""
    resolved: Dict[str, str] = {}
    a_kind = view.get_str("schedule.alpha_kind", "constant")
    resolved["schedule.alpha_kind"] = a_kind
    if a_kind == "constant":
        alpha = _schedule_param(view, "schedule.alpha", 0.0)
        alphas = [alpha]
        resolved["schedule.alpha"] = _fmt(alpha)
    elif a_kind == "ramp":
        a0 = view.get_float("schedule.alpha_start", 0.0)
        a1 = view.get_float("schedule.alpha_end")
        iters = view.get_int("schedule.alpha_ramp_iters")
        resolved.update({
            "schedule.alpha_start": _fmt(a0),
            "schedule.alpha_end": _fmt(a1),
            "schedule.alpha_ramp_iters": str(iters),
        })
    elif a_kind == "table":
        alphas = view.get_float_list("schedule.alpha_table")
        resolved["schedule.alpha_table"] = ",".join(_fmt(a) for a in alphas)
    else:
        raise ConfigError(f"unknown schedule.alpha_kind {a_kind!r}")

    l_kind = view.get_str("schedule.lambda_kind", "constant")
    resolved["schedule.lambda_kind"] = l_kind
    if l_kind == "constant":
        lam = _schedule_param(view, "schedule.lambda", 1.0)
        lambdas = [lam]
        resolved["schedule.lambda"] = _fmt(lam)
    elif l_kind == "table":
        lambdas = view.get_float_list("schedule.lambda_table")
        resolved["schedule.lambda_table"] = ",".join(_fmt(l) for l in lambdas)
    else:
        raise ConfigError(f"unknown schedule.lambda_kind {l_kind!r}")

    xi = _schedule_param(view, "schedule.xi", 1.0)
    resolved["schedule.xi"] = _fmt(xi)
    if a_kind == "ramp":
        return Schedule.ramp(a0, a1, iters, lambdas), resolved, xi
    if a_kind == l_kind == "constant":
        return Schedule.constant(alpha, lam), resolved, xi
    return Schedule.table(alphas, lambdas), resolved, xi


def _collect_steps(view: ConfigView, keys) -> Dict[str, Optional[float]]:
    """Configured ``algorithm.<key>`` for each step key, None when unset."""
    steps: Dict[str, Optional[float]] = {}
    for key in keys:
        cfg_key = f"algorithm.{key}"
        steps[key] = view.get_float(cfg_key) if view.has(cfg_key) else None
    return steps


def build_problem(config_path: str) -> Tuple[
        ConfigView, problems.BenchmarkInstance, str, Dict[str, float], OperatorHandle,
        Optional[Callable]]:
    """Config file -> (view, instance, scheme, resolved steps, operator, objective).

    The objective closure maps an iterate, or a stack of iterates along the
    last axis as ``engine.run`` passes them, to the instance objective at
    its extracted solution; it is None when the instance or scheme lacks one.
    """
    view = ConfigView(load_config(config_path))
    instance = build_instance(view)
    scheme = view.get_str("algorithm.scheme")
    if scheme not in instance.schemes:
        raise ConfigError(
            f"problem kind {instance.kind!r} supports schemes {instance.schemes}, "
            f"not {scheme!r}"
        )
    steps = instance.resolve_steps(
        scheme, **_collect_steps(view, instance.default_steps[scheme]))
    op = instance.operator(scheme, **steps)
    objective = None
    if instance.objective is not None and op.extract_solution is not None:
        extract = op.extract_solution
        inst_obj = instance.objective
        objective = lambda x: inst_obj(extract(x))  # noqa: E731
    return view, instance, scheme, steps, op, objective


# --------------------------------------------------------------------------
# feasibility precheck


def constant_feasibility(alpha: float, lam: float, gamma: Optional[float], q: Optional[float],
                         xi: float) -> List[cert.CheckResult]:
    """Relaxation certificate at ``eta = gamma * lambda`` (``lambda`` without gamma),
    plus the contraction condition when ``q`` is known and ``0 < lambda <= 1``;
    each result is named by the label its printed line starts with."""
    eta = gamma * lam if gamma is not None else lam
    checks = [dataclasses.replace(cert.check_relaxation_constant(alpha, eta),
                                  name=f"relaxation(eta={_fmt(eta)})")]
    if q is not None and 0.0 < lam <= 1.0:
        checks.append(dataclasses.replace(cert.check_contraction_condition(alpha, lam, q, xi),
                                          name=f"contraction(q={_fmt(q)},xi={_fmt(xi)})"))
    return checks


def _feasibility_line(check: cert.CheckResult) -> str:
    return (f"{check.name}: lhs={_fmt(check.lhs)} rhs={_fmt(check.rhs)} "
            f"margin={_fmt(check.margin)} {'PASS' if check.satisfied else 'FAIL'}")


def feasibility_summary(schedule: Schedule, op: OperatorHandle, xi: float, max_iters: int,
                        out) -> bool:
    """Print the schedule's feasibility certificates; True when all pass."""
    gamma = op.gamma
    if schedule.const is not None:
        checks = constant_feasibility(*schedule.const, gamma, op.q_factor, xi)
        for check in checks:
            print(_feasibility_line(check), file=out)
        all_pass = all(check.satisfied for check in checks)
    else:
        # the same effective relaxation as the constant check: eta_k = gamma * lambda_k
        if gamma is None:
            eta_schedule, eta = schedule, "lambda_k"
        else:
            eta_schedule = Schedule(schedule.alpha_at,
                                    lambda k: gamma * schedule.lambda_at(k), schedule.kind)
            eta = f"gamma*lambda_k, gamma={_fmt(gamma)}"
        ks = range(2, min(max_iters, 100_000) + 1)
        if not ks:
            # the run stops before the first index the sequence form constrains
            all_pass = True
            print(f"relaxation_seq(eta_k={eta}): SKIPPED (no index k >= 2 within max_iters)",
                  file=out)
        else:
            rep = cert.check_relaxation_seq(eta_schedule, ks)
            all_pass = rep.tail_satisfied
            print(f"relaxation_seq(eta_k={eta}; tail {rep.tail_window} of {len(rep.ks)}): "
                  f"sup={_fmt(rep.tail_sup)} first_nonstrict_k={rep.first_nonstrict_k} "
                  f"{'PASS' if all_pass else 'FAIL'} (tail-satisfied, not proved)", file=out)
    for note in op.notes:
        print(f"note: {note}", file=out)
    return all_pass


# --------------------------------------------------------------------------
# trace I/O


def write_trace(path: str, trace: Trace, resolved: Dict[str, str]) -> None:
    """Write ``ikm-trace-v2``: two comment lines, the header, one line per row.

    The columns are ``TRACE_FIELDS``: ``k``, the measured columns and the
    ``rate_bound`` promise; the rest of a :class:`Trace` is derived from
    them and the embedded config when the file is read.  Each present float
    column is printed with ``%.17g`` and an absent one as an empty field;
    rows are formatted ``engine.ROW_CHUNK`` at a time by one ``%``.
    """
    cols = [getattr(trace, name) for name in TRACE_FIELDS]
    present = [col for col in cols if col is not None]
    row_fmt = ",".join("%d" if name == "k" else "" if col is None else "%.17g"
                       for name, col in zip(TRACE_FIELDS, cols)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# ikm-trace-v2\n")
        fh.write("# config: " + serialize_config(resolved) + "\n")
        fh.write(TRACE_COLUMNS + "\n")
        for lo in range(0, len(trace), engine.ROW_CHUNK):
            chunk = [col[lo:lo + engine.ROW_CHUNK].tolist() for col in present]
            values = tuple(itertools.chain.from_iterable(zip(*chunk)))
            fh.write(row_fmt * len(chunk[0]) % values)


def _parse_column(path: str, name: str, tokens: List[str]) -> Optional[np.ndarray]:
    """One column of a chunk of rows: an array, or None when every field is empty."""
    if not any(tokens):
        return None
    if "" in tokens:
        raise ConfigError(f"{path}: column {name} mixes empty and filled fields")
    try:
        return np.array(list(map(int if name == "k" else float, tokens)))
    except ValueError as exc:
        raise ConfigError(f"{path}: column {name}: {exc}") from None


def rate_bound_column(trace: Trace, schedule: Schedule, q: Optional[float],
                      xi: float) -> Optional[np.ndarray]:
    """``rate_bound(k - 1, alpha, Q, ||x_1 - p||^2)`` per row of a run with a
    reference, a constant schedule with ``0 < lambda <= 1`` and a certified
    ``q`` whose ``Q(lambda, q, xi)`` lies in ``(alpha, 1)``; None for any
    other run."""
    if q is None or schedule.const is None or trace.dist_to_ref is None or not len(trace):
        return None
    alpha, lam = schedule.const
    if not 0.0 < lam <= 1.0:
        return None
    Q_const = cert.contraction_constant(lam, q, xi)
    if not alpha < Q_const < 1.0:
        return None
    # scalar calls: libm pow, not NumPy power, keeps the column's bits
    d1 = trace.dist_to_ref[0].item() ** 2
    return cert.scalar_column(lambda k: cert.rate_bound(k - 1, alpha, Q_const, d1), trace.k)


def _certified_q(cfg: Dict[str, str]) -> Optional[float]:
    return float(cfg["derived.q_factor"]) if "derived.q_factor" in cfg else None


def _differs(a: Optional[np.ndarray], b: Optional[np.ndarray], n: int) -> np.ndarray:
    """Per row, whether two float columns differ in their bits (any two nans
    agree, as ``%.17g`` prints every nan alike); an absent column differs
    from a present one on every row."""
    if a is None or b is None:
        return np.full(n, (a is None) != (b is None))
    return (a.view(np.int64) != b.view(np.int64)) & ~(np.isnan(a) & np.isnan(b))


def read_trace(path: str, consistency: bool = False):
    """Parse an ``ikm-trace-v2`` or ``ikm-trace-v1`` file into a
    :class:`Trace` and its config.

    The header names the version: v2 holds ``TRACE_FIELDS``, v1 every
    :class:`Trace` column.  Only the columns the file holds are parsed.
    Every row must have one field per column, and a column must be all
    numbers or, for the optional columns, all empty.  The file is read line
    by line and its rows are split and parsed ``engine.ROW_CHUNK`` at a
    time, column by column, so the parse holds one chunk of text and tokens
    besides the parsed columns.  The last ``# config:`` line gives the
    config, which must be present.  Errors are raised in file order, except
    that a missing header, a column mixing empty and filled chunks, a k
    below 1 and a missing config are reported at the end.

    The returned trace holds the file's measured columns; ``nu_k``,
    ``delta_k``, ``Delta_k``, ``C_k``, ``k_step_sq`` and ``k_res_sq`` are
    derived from them and the config's schedule by
    :func:`engine.derive_trace`, and ``rate_bound`` by
    :func:`rate_bound_column`, as ``ikm run`` derived them.  With
    ``consistency`` set a third value is returned: the int64 array of the
    ks at which a derived column the file holds differs from its
    re-derivation, empty when every one agrees; None for a v2 file whose
    ``rate_bound``, its one derived column, agrees.
    """
    cfg: Dict[str, str] = {}
    names: Optional[Tuple[str, ...]] = None  # the columns the header names
    started = False  # whether the first row, which must be the header, was seen
    rows: List[str] = []
    parts: Dict[str, list] = {}

    def parse_rows():
        tokens = ",".join(rows).split(",")
        for j, name in enumerate(names):
            parts[name].append(_parse_column(path, name, tokens[j::len(names)]))
        rows.clear()

    with open(path, "r", encoding="utf-8") as fh:
        # splitlines breaks a line where str.splitlines breaks the whole text
        for line in itertools.chain.from_iterable(map(str.splitlines, fh)):
            if line.startswith("# config: "):
                cfg = deserialize_config(line[len("# config: "):])
            if not line.strip() or line.startswith("#"):
                continue
            if not started:
                started = True
                names = TRACE_HEADERS.get(line)
                parts = {name: [] for name in names or ()}
            elif names:
                if line.count(",") != len(names) - 1:
                    raise ConfigError(f"{path}: malformed row {line!r}")
                rows.append(line)
                if len(rows) == engine.ROW_CHUNK:
                    parse_rows()
    if not names:
        raise ConfigError(f"{path}: not an ikm trace (missing column header)")
    if rows:
        parse_rows()
    columns = {}
    for name in names:
        # popped, so each column's chunks are freed once it is joined
        chunks = parts.pop(name)
        filled = [chunk for chunk in chunks if chunk is not None]
        if not filled and name in OPTIONAL_COLUMNS:
            columns[name] = None
        elif len(filled) < len(chunks):
            raise ConfigError(f"{path}: column {name} "
                              + ("mixes empty and filled fields" if filled else "is empty"))
        else:
            columns[name] = (np.concatenate(filled) if filled
                             else np.empty(0, np.int64 if name == "k" else np.float64))
    k = columns.pop("k")
    # a k < 1 is a corrupt trace, not a replay to skip
    if k.size and k.min() < 1:
        raise ConfigError(f"{path}: column k must be >= 1")
    if not cfg:
        raise ConfigError(f"{path}: missing embedded '# config:' line")

    schedule, _, xi = build_schedule(ConfigView(cfg))
    alpha, lam = engine.schedule_columns(schedule, k)
    trace = engine.derive_trace(columns.pop("residual"), columns.pop("step"), alpha, lam,
                                columns.pop("dist_to_ref"), columns.pop("objective"), k=k)
    trace.rate_bound = rate_bound_column(trace, schedule, _certified_q(cfg), xi)
    if not consistency:
        return trace, cfg
    # what is left of the file's columns are the derived ones it holds
    bad = np.zeros(k.size, dtype=bool)
    for name in list(columns):
        bad |= _differs(columns.pop(name), getattr(trace, name), k.size)
    mismatch = None if names is TRACE_FIELDS and not bad.any() else k[bad]
    return trace, cfg, mismatch


# --------------------------------------------------------------------------
# subcommands


CHECKS = ("ck", "descent", "contraction", "product", "small_o")
SMALL_O_PARTS = ("res^2", "step^2")


def _run(op, x1, schedule, stop, p_ref, objective) -> engine.RunResult:
    """``engine.run``, or the partial result (status ``diverged``) of a divergence."""
    try:
        return engine.run(op, x1, schedule, stop, p_ref=p_ref, objective=objective)
    except DivergenceError as exc:
        return exc.partial


def cmd_run(config_path: str, out=sys.stdout) -> int:
    view, instance, scheme, steps, op, objective = build_problem(config_path)
    schedule, resolved_sched, xi = build_schedule(view)
    stop = StoppingRule(
        max_iters=view.get_int("stopping.max_iters", 10_000),
        residual_tol=view.get_float("stopping.residual_tol", 1e-10),
        stall_tol=view.get_float("stopping.stall_tol") if view.has("stopping.stall_tol") else None,
    )
    trace_path = view.get_str("output.trace")
    checks = [c.strip() for c in view.get_str("output.checks", "none").split(",")
              if c.strip() and c.strip() != "none"]
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown output.checks {', '.join(unknown)}; "
                          f"choose from none, {', '.join(CHECKS)}")

    p_ref_mode = view.get_str("run.p_ref", "auto")
    p_ref = None
    if p_ref_mode == "auto":
        p_ref = instance.fixed_point(scheme, **steps)
        if p_ref is not None and op_residual(op, p_ref) > 1e-10:
            print("warning: reference point residual exceeds 1e-10; dropping it", file=out)
            p_ref = None
    elif p_ref_mode != "none":
        raise ConfigError("run.p_ref must be 'auto' or 'none'")

    feasible = feasibility_summary(schedule, op, xi, stop.max_iters, out)
    if not feasible:
        print("warning: schedule fails the feasibility certificates; running anyway", file=out)

    result = _run(op, instance.start_point(scheme), schedule, stop, p_ref, objective)
    status = result.status
    trace = result.rows

    q = op.q_factor
    trace.rate_bound = rate_bound_column(trace, schedule, q, xi)

    resolved: Dict[str, str] = {}
    for key, value in instance.params.items():
        resolved[f"problem.{key}"] = _fmt(value) if isinstance(value, float) else str(value)
    resolved["problem.kind"] = instance.kind
    resolved["algorithm.scheme"] = scheme
    for key, value in steps.items():
        resolved[f"algorithm.{key}"] = _fmt(value)
    resolved.update(resolved_sched)
    resolved["stopping.max_iters"] = str(stop.max_iters)
    resolved["stopping.residual_tol"] = _fmt(stop.residual_tol)
    if stop.stall_tol is not None:
        resolved["stopping.stall_tol"] = _fmt(stop.stall_tol)
    resolved["run.p_ref"] = "auto" if p_ref is not None else "none"
    resolved["run.status"] = status
    if op.gamma is not None:
        resolved["derived.gamma"] = _fmt(op.gamma)
    if op.q_factor is not None:
        resolved["derived.q_factor"] = _fmt(op.q_factor)
    if op.beta is not None:
        resolved["derived.beta"] = _fmt(op.beta)
    resolved["derived.warning"] = "0" if feasible else "1"

    write_trace(trace_path, trace, resolved)
    print(f"status={status} iterations={len(trace)} "
          f"final_residual={_fmt(result.final_residual if len(trace) else None)}", file=out)
    print(f"trace written to {trace_path}", file=out)

    verdicts = evaluate_checks(trace, checks, schedule, q, xi)
    for name in checks:
        if name != "small_o":
            print(f"check {name}: {_verdict(*verdicts[name])}", file=out)
            continue
        parts = []
        for part in SMALL_O_PARTS:
            verdict, n = verdicts[part]
            parts.append(f"{part}: SKIPPED (prefix too short)" if verdict == "SKIPPED"
                         else f"{part}[:{n}]: {verdict}")
        print("check small_o: " + "; ".join(parts), file=out)
    failed = any(verdict == "FAIL" for verdict, _ in verdicts.values())
    if status == "converged":
        return EXIT_CHECK_FAILED if failed else EXIT_OK
    return EXIT_DIVERGED if status == "diverged" else EXIT_MAX_ITERS


def evaluate_checks(trace: Trace, names, schedule: Schedule, q: Optional[float],
                    xi: float) -> Dict[str, Tuple[str, object]]:
    """``(status, detail)`` of each named check along a trace.

    A PASS details the indices checked (None for ``ck``), a FAIL the first
    failing k (``ck``) or up to five, a SKIPPED why the replay cannot run (a
    missing column, no q, a lambda_k outside (0, 1]).  ``small_o`` gives its
    two ``SMALL_O_PARTS``, each detailing the monotone prefix it judged.
    The checks run one after another and each report is dropped once its
    verdict is taken, so at most one report, or one squared column of
    ``small_o``, is held at a time.
    """
    verdicts: Dict[str, Tuple[str, object]] = {}
    for name in names:
        if name == "small_o":
            for part in SMALL_O_PARTS:
                col = trace.residual if part == "res^2" else trace.step[1:]
                with np.errstate(over="ignore"):
                    vals = col * col
                n = monotone_prefix(vals)
                ok = n >= 4 and engine.small_o_check(vals[:n])
                verdicts[part] = ("SKIPPED" if n < 4 else "PASS" if ok else "FAIL", n)
        elif name in ("contraction", "product") and q is None:
            verdicts[name] = ("SKIPPED", "no certified q")
        else:
            try:
                verdicts[name] = _replay_verdict(name, trace, schedule, q, xi)
            except ValueError as exc:
                verdicts[name] = ("SKIPPED", str(exc))
    return verdicts


def _replay_verdict(name: str, trace: Trace, schedule: Schedule, q: Optional[float],
                    xi: float) -> Tuple[str, object]:
    """The verdict of one replay check.  The replays are called through the
    ``engine`` module's attributes, so that wrappers installed there see
    every call."""
    if name == "ck":
        bad = engine.verify_Ck_monotone(trace)
        return ("PASS", None) if bad is None else ("FAIL", bad)
    if name == "descent":
        rep = engine.verify_descent(trace, schedule=schedule)
    elif name == "contraction":
        rep = engine.verify_contraction(trace, q, xi, schedule=schedule)
    else:
        rep = engine.verify_product_bound(trace, q, xi, schedule=schedule)
    return ("PASS", rep.checked) if rep.ok else ("FAIL", rep.violations[:5].tolist())


def _verdict(status: str, detail) -> str:
    """``PASS (N indices)`` (a bare PASS without N), ``FAIL at k=...`` or ``SKIPPED (...)``."""
    if status == "PASS":
        return "PASS" if detail is None else f"PASS ({detail} indices)"
    return f"FAIL at k={detail}" if status == "FAIL" else f"SKIPPED ({detail})"


def cmd_check_params(alpha: float, lam: float, q: Optional[float], xi: Optional[float],
                     gamma: Optional[float], out=sys.stdout) -> int:
    if not 0.0 <= alpha < 1.0:
        raise UsageError("alpha must lie in [0, 1)")
    if lam <= 0.0:
        raise UsageError("lambda must be > 0")
    if gamma is not None and not 0.0 < gamma <= 1.0:
        raise UsageError("gamma must lie in (0, 1]")
    if q is not None and not 0.0 < q <= 1.0:
        raise UsageError("q must lie in (0, 1]")
    xi_val = 1.0 if xi is None else xi
    if not 0.0 <= xi_val <= 1.0:
        raise UsageError("xi must lie in [0, 1]")

    checks = constant_feasibility(alpha, lam, gamma, q, xi_val)
    for check in checks:
        print(_feasibility_line(check), file=out)
    if q is not None:
        if lam > 1.0:
            raise UsageError("the quasi-contractive condition needs lambda <= 1")
        if q < 1.0:
            print(f"feasibility_poly(lambda)={_fmt(cert.feasibility_poly(lam, alpha, q))} "
                  f"lambda_alpha_q={_fmt(cert.lambda_alpha_q(alpha, q))} "
                  f"lambda_alpha_1={_fmt(cert.lambda_alpha_1(alpha))}", file=out)
        thr = cert.xi_threshold(alpha, lam, q)
        print(f"xi_threshold={_fmt(thr) if thr is not None else 'none'}", file=out)
    return EXIT_OK if all(check.satisfied for check in checks) else EXIT_CHECK_FAILED


def cmd_lambda_grid(alpha_steps: int, q_steps: int, out_path: str, out=sys.stdout) -> int:
    if alpha_steps < 2 or q_steps < 2:
        raise UsageError("step counts must be >= 2")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# ikm-lambda-grid-v1\n")
        fh.write(f"# config: grid.alpha_steps={alpha_steps}; grid.q_steps={q_steps}\n")
        fh.write("alpha,q,lambda_alpha_q\n")
        for alpha, q, lam in cert.lambda_grid(alpha_steps, q_steps):
            fh.write(f"{_fmt(alpha)},{_fmt(q)},{_fmt(lam)}\n")
    print(f"grid ({alpha_steps} x {q_steps}) written to {out_path}", file=out)
    return EXIT_OK


def cmd_sweep(config_path: str, out=sys.stdout) -> int:
    view, instance, scheme, steps, op, objective = build_problem(config_path)
    stop = StoppingRule(
        max_iters=view.get_int("stopping.max_iters", 100_000),
        residual_tol=view.get_float("stopping.residual_tol", 1e-6),
    )
    out_path = view.get_str("output.table")
    default_xi = _schedule_param(view, "schedule.xi", 1.0)

    indices = sorted({
        int(key.split(".")[1])
        for key in view.data
        if key.startswith("sweep.") and key.count(".") == 2
    })
    if len(indices) < 2:
        raise ConfigError("sweep needs at least two sweep.<i>.* schedule entries")
    # every entry is checked here, before the first one runs
    entries = []
    for i in indices:
        entries.append({
            "label": view.get_str(f"sweep.{i}.label", f"s{i}"),
            "alpha": _schedule_param(view, f"sweep.{i}.alpha"),
            "lambda": _schedule_param(view, f"sweep.{i}.lambda"),
            "xi": _schedule_param(view, f"sweep.{i}.xi", default_xi),
        })
    # a non-inertial baseline is always reported for every relaxation in play
    lambdas_with_baseline = {e["lambda"] for e in entries if e["alpha"] == 0.0}
    for lam in sorted({e["lambda"] for e in entries}):
        if lam not in lambdas_with_baseline:
            entries.append({
                "label": f"baseline(lambda={_fmt(lam)})",
                "alpha": 0.0, "lambda": lam, "xi": default_xi,
            })

    def run_entry(entry) -> List[str]:
        schedule = Schedule.constant(entry["alpha"], entry["lambda"])
        relax, *contraction = constant_feasibility(entry["alpha"], entry["lambda"], op.gamma,
                                                   op.q_factor, entry["xi"])
        # the table reads no distance column, so no reference point, and
        # only the last row's objective: it is evaluated once
        result = _run(op, instance.start_point(scheme), schedule, stop, None, None)
        rows = result.rows
        final_obj = None
        if rows and objective is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                final_obj = objective(result.x_last)
        return [
            entry["label"], _fmt(entry["alpha"]), _fmt(entry["lambda"]), _fmt(entry["xi"]),
            result.status, str(len(rows)), _fmt(rows[-1].residual if rows else None),
            _fmt(final_obj), _fmt(relax.margin),
            _fmt(contraction[0].margin if contraction else None),
            "" if relax.satisfied else "infeasible-relaxation",
        ]

    results = [run_entry(e) for e in entries]

    resolved = {
        "problem.kind": instance.kind,
        "algorithm.scheme": scheme,
        "stopping.max_iters": str(stop.max_iters),
        "stopping.residual_tol": _fmt(stop.residual_tol),
    }
    for key, value in steps.items():
        resolved[f"algorithm.{key}"] = _fmt(value)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# ikm-sweep-v1\n")
        fh.write("# config: " + serialize_config(resolved) + "\n")
        fh.write("label,alpha,lambda,xi,status,iterations,final_residual,"
                 "final_objective,relax_margin,contraction_margin,warning\n")
        for row in results:
            fh.write(",".join(row) + "\n")
    print(f"sweep table ({len(results)} rows) written to {out_path}", file=out)
    return EXIT_OK


def cmd_certify(trace_path: str, out=sys.stdout) -> int:
    """Replay every check on a trace file's re-derived columns.  A v1 file
    also gets a ``consistency`` line on its derived columns, and so does a
    file whose ``rate_bound`` disagrees with its re-derivation."""
    trace, cfg, mismatch = read_trace(trace_path, consistency=True)
    if not len(trace):
        raise ConfigError(f"{trace_path}: empty trace")
    schedule, _, xi = build_schedule(ConfigView(cfg))
    verdicts = evaluate_checks(trace, CHECKS, schedule, _certified_q(cfg), xi)

    for name, label, reason in (("ck", "Ck monotone", "no C_k column"),
                                ("descent", "descent", "no dist_to_ref column")):
        verdict, detail = verdicts[name]
        print(f"{label}: {_verdict(verdict, reason if verdict == 'SKIPPED' else detail)}",
              file=out)
    if verdicts["contraction"][0] == "SKIPPED":
        print("contraction: SKIPPED (needs certified q, dist column, lambda <= 1)", file=out)
    else:
        print(f"contraction: {_verdict(*verdicts['contraction'])}", file=out)
        print(f"product bound: {_verdict(*verdicts['product'])}", file=out)
    for part in SMALL_O_PARTS:
        verdict, n = verdicts[part]
        print(f"small-o k*{part}: SKIPPED (monotone prefix too short)" if verdict == "SKIPPED"
              else f"small-o k*{part} (prefix {n}): {verdict}", file=out)
    failed = any(verdict == "FAIL" for verdict, _ in verdicts.values())
    if mismatch is not None:
        print("consistency: " + (_verdict("FAIL", mismatch[:5].tolist()) if mismatch.size
                                 else "PASS"), file=out)
        failed = failed or mismatch.size > 0
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# --------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ikm", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("config")

    p_chk = sub.add_parser("check-params", help="evaluate feasibility inequalities")
    p_chk.add_argument("--alpha", type=float, required=True)
    p_chk.add_argument("--lambda", dest="lam", type=float, required=True)
    p_chk.add_argument("--q", type=float, default=None)
    p_chk.add_argument("--xi", type=float, default=None)
    p_chk.add_argument("--gamma", type=float, default=None)

    p_grid = sub.add_parser("lambda-grid", help="tabulate the feasibility boundary")
    p_grid.add_argument("--alpha-steps", type=int, default=100)
    p_grid.add_argument("--q-steps", type=int, default=99)
    p_grid.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="compare schedules on one problem")
    p_sweep.add_argument("config")

    p_cert = sub.add_parser("certify", help="re-analyze an exported trace CSV")
    p_cert.add_argument("trace")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "check-params":
            return cmd_check_params(args.alpha, args.lam, args.q, args.xi, args.gamma)
        if args.command == "lambda-grid":
            return cmd_lambda_grid(args.alpha_steps, args.q_steps, args.out)
        if args.command == "sweep":
            return cmd_sweep(args.config)
        if args.command == "certify":
            return cmd_certify(args.trace)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
