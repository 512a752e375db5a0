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
import sys
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import certificates as cert
from . import engine, problems
from .config import ConfigError, ConfigView, deserialize_config, load_config, serialize_config
from .engine import DivergenceError, Schedule, StoppingRule, TraceRow
from .operators import OperatorHandle, residual as op_residual

TRACE_COLUMNS = "k,residual,step,nu_k,delta_k,Delta_k,C_k,dist_to_ref,k_step_sq,k_res_sq,objective,rate_bound"

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


def build_schedule(view: ConfigView) -> Tuple[Schedule, Dict[str, str]]:
    """Schedule plus the resolved keys describing it."""
    resolved: Dict[str, str] = {}
    a_kind = view.get_str("schedule.alpha_kind", "constant")
    resolved["schedule.alpha_kind"] = a_kind
    if a_kind == "constant":
        alpha = view.get_float("schedule.alpha", 0.0)
        if not 0.0 <= alpha < 1.0:
            raise ConfigError("schedule.alpha must lie in [0, 1)")
        alpha_fn = lambda k, a=alpha: a  # noqa: E731
        resolved["schedule.alpha"] = _fmt(alpha)
    elif a_kind == "ramp":
        a0 = view.get_float("schedule.alpha_start", 0.0)
        a1 = view.get_float("schedule.alpha_end")
        iters = view.get_int("schedule.alpha_ramp_iters")
        probe = Schedule.ramp(a0, a1, iters, 1.0)
        alpha_fn = probe.alpha_at
        resolved.update({
            "schedule.alpha_start": _fmt(a0),
            "schedule.alpha_end": _fmt(a1),
            "schedule.alpha_ramp_iters": str(iters),
        })
    elif a_kind == "table":
        table = view.get_float_list("schedule.alpha_table")
        probe = Schedule.table(table, [1.0])
        alpha_fn = probe.alpha_at
        resolved["schedule.alpha_table"] = ",".join(_fmt(a) for a in table)
    else:
        raise ConfigError(f"unknown schedule.alpha_kind {a_kind!r}")

    l_kind = view.get_str("schedule.lambda_kind", "constant")
    resolved["schedule.lambda_kind"] = l_kind
    if l_kind == "constant":
        lam = view.get_float("schedule.lambda", 1.0)
        if lam <= 0.0:
            raise ConfigError("schedule.lambda must be > 0")
        lambda_fn = lambda k, l=lam: l  # noqa: E731
        resolved["schedule.lambda"] = _fmt(lam)
    elif l_kind == "table":
        table = view.get_float_list("schedule.lambda_table")
        probe = Schedule.table([0.0], table)
        lambda_fn = probe.lambda_at
        resolved["schedule.lambda_table"] = ",".join(_fmt(l) for l in table)
    else:
        raise ConfigError(f"unknown schedule.lambda_kind {l_kind!r}")

    xi = view.get_float("schedule.xi", 1.0)
    if not 0.0 <= xi <= 1.0:
        raise ConfigError("schedule.xi must lie in [0, 1]")
    resolved["schedule.xi"] = _fmt(xi)
    return Schedule(alpha_fn, lambda_fn, f"{a_kind}/{l_kind}"), resolved


def _schedule_is_constant(resolved: Dict[str, str]) -> bool:
    return resolved.get("schedule.alpha_kind") == "constant" and \
        resolved.get("schedule.lambda_kind") == "constant"


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

    The objective closure maps an iterate to the instance objective at its
    extracted solution; it is None when the instance or scheme lacks one.
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


def feasibility_summary(schedule: Schedule, resolved_sched: Dict[str, str],
                        op: OperatorHandle, xi: float, max_iters: int,
                        out) -> Tuple[bool, List[str]]:
    """Print inequality evaluations; returns (all_pass, text_lines)."""
    lines: List[str] = []
    all_pass = True
    gamma = op.gamma
    if _schedule_is_constant(resolved_sched):
        alpha = float(resolved_sched["schedule.alpha"])
        lam = float(resolved_sched["schedule.lambda"])
        eta = gamma * lam if gamma is not None else lam
        entry = cert.check_relaxation_constant(alpha, eta)
        verdict = "PASS" if entry.satisfied else "FAIL"
        all_pass &= entry.satisfied
        lines.append(
            f"relaxation(eta={_fmt(eta)}): lhs={_fmt(entry.lhs)} rhs={_fmt(entry.rhs)} "
            f"margin={_fmt(entry.margin)} {verdict}"
        )
        if op.q_factor is not None and 0.0 < lam <= 1.0:
            h2 = cert.check_contraction_condition(alpha, lam, op.q_factor, xi)
            verdict = "PASS" if h2.satisfied else "FAIL"
            all_pass &= h2.satisfied
            lines.append(
                f"contraction(q={_fmt(op.q_factor)},xi={_fmt(xi)}): lhs={_fmt(h2.lhs)} rhs=0 "
                f"margin={_fmt(h2.margin)} {verdict}"
            )
    else:
        ks = range(2, min(max_iters, 100_000) + 1)
        rep = cert.check_relaxation_seq(schedule, ks)
        verdict = "PASS" if rep.tail_satisfied else "FAIL"
        all_pass &= rep.tail_satisfied
        lines.append(
            f"relaxation_seq(tail {rep.tail_window} of {len(rep.ks)}): sup={_fmt(rep.tail_sup)} "
            f"first_nonstrict_k={rep.first_nonstrict_k} {verdict} (tail-satisfied, not proved)"
        )
    for note in op.notes:
        lines.append(f"note: {note}")
    for line in lines:
        print(line, file=out)
    return all_pass, lines


# --------------------------------------------------------------------------
# trace I/O


def write_trace(path: str, rows: List[TraceRow], resolved: Dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# ikm-trace-v1\n")
        fh.write("# config: " + serialize_config(resolved) + "\n")
        fh.write(TRACE_COLUMNS + "\n")
        for r in rows:
            fh.write(",".join([
                str(r.k), _fmt(r.residual), _fmt(r.step), _fmt(r.nu_k),
                _fmt(r.delta_k), _fmt(r.Delta_k), _fmt(r.C_k), _fmt(r.dist_to_ref),
                _fmt(r.k_step_sq), _fmt(r.k_res_sq), _fmt(r.objective),
                _fmt(r.rate_bound),
            ]) + "\n")


def read_trace(path: str) -> Tuple[List[TraceRow], Dict[str, str]]:
    rows: List[TraceRow] = []
    cfg: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body: List[str] = []
    for line in lines:
        if line.startswith("# config: "):
            cfg = deserialize_config(line[len("# config: "):])
        elif line.startswith("#") or not line.strip():
            continue
        else:
            body.append(line)
    if not body or body[0] != TRACE_COLUMNS:
        raise ConfigError(f"{path}: not an ikm trace (missing column header)")

    def opt(tok: str) -> Optional[float]:
        return float(tok) if tok else None

    for line in body[1:]:
        toks = line.split(",")
        if len(toks) != 12:
            raise ConfigError(f"{path}: malformed row {line!r}")
        rows.append(TraceRow(
            k=int(toks[0]), residual=float(toks[1]), step=float(toks[2]),
            nu_k=float(toks[3]), delta_k=float(toks[4]), Delta_k=opt(toks[5]),
            C_k=opt(toks[6]), dist_to_ref=opt(toks[7]), k_step_sq=float(toks[8]),
            k_res_sq=float(toks[9]), objective=opt(toks[10]), rate_bound=opt(toks[11]),
        ))
    return rows, cfg


def monotone_prefix(values: List[float], slack: float = 1e-12) -> int:
    """Length of the maximal nonincreasing positive prefix.

    Trace tails that have reached the floating-point floor jitter at rounding
    level; the small-o diagnostic is applied to the prefix that still
    measures the iteration rather than the noise.
    """
    n = 0
    prev = None
    for v in values:
        if v <= 0.0 or (prev is not None and v > prev * (1.0 + slack)):
            break
        prev = v
        n += 1
    return n


# --------------------------------------------------------------------------
# subcommands


def cmd_run(config_path: str, out=sys.stdout) -> int:
    view, instance, scheme, steps, op, objective = build_problem(config_path)
    schedule, resolved_sched = build_schedule(view)
    xi = float(resolved_sched["schedule.xi"])
    stop = StoppingRule(
        max_iters=view.get_int("stopping.max_iters", 10_000),
        residual_tol=view.get_float("stopping.residual_tol", 1e-10),
        stall_tol=view.get_float("stopping.stall_tol") if view.has("stopping.stall_tol") else None,
    )
    trace_path = view.get_str("output.trace")
    checks = [c.strip() for c in view.get_str("output.checks", "none").split(",")
              if c.strip() and c.strip() != "none"]

    p_ref_mode = view.get_str("run.p_ref", "auto")
    p_ref = None
    if p_ref_mode == "auto":
        p_ref = instance.fixed_point(scheme, **steps)
        if p_ref is not None and op_residual(op, p_ref) > 1e-10:
            print("warning: reference point residual exceeds 1e-10; dropping it", file=out)
            p_ref = None
    elif p_ref_mode != "none":
        raise ConfigError("run.p_ref must be 'auto' or 'none'")

    feasible, _ = feasibility_summary(schedule, resolved_sched, op, xi, stop.max_iters, out)
    if not feasible:
        print("warning: schedule fails the feasibility certificates; running anyway", file=out)

    exit_code = EXIT_OK
    try:
        result = engine.run(op, instance.start_point(scheme), schedule, stop,
                            p_ref=p_ref, objective=objective)
        status = result.status
        rows = result.rows
        exit_code = EXIT_OK if status == "converged" else EXIT_MAX_ITERS
    except DivergenceError as exc:
        result = exc.partial
        status = "diverged"
        rows = result.rows
        exit_code = EXIT_DIVERGED

    # rate-bound column for certified quasi-contractive constant-parameter runs
    q = op.q_factor
    if (q is not None and p_ref is not None and rows
            and _schedule_is_constant(resolved_sched)):
        alpha = float(resolved_sched["schedule.alpha"])
        lam = float(resolved_sched["schedule.lambda"])
        if 0.0 < lam <= 1.0:
            Q_const = cert.contraction_constant(lam, q, xi)
            if alpha < Q_const < 1.0:
                d1 = rows[0].dist_to_ref ** 2
                for r in rows:
                    r.rate_bound = cert.rate_bound(r.k - 1, alpha, Q_const, d1)

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

    write_trace(trace_path, rows, resolved)
    print(f"status={status} iterations={len(rows)} "
          f"final_residual={_fmt(rows[-1].residual if rows else None)}", file=out)
    print(f"trace written to {trace_path}", file=out)

    failed = False
    for name in checks:
        line, bad = _run_check(name, result, schedule, q, xi)
        failed |= bad
        print(line, file=out)
    if failed and exit_code == EXIT_OK:
        exit_code = EXIT_CHECK_FAILED
    return exit_code


def _run_check(name: str, trace, schedule: Schedule, q: Optional[float],
               xi: float) -> Tuple[str, bool]:
    """One ``check <name>: ...`` line and whether it reports a FAIL."""
    rows = trace.rows if isinstance(trace, engine.RunResult) else trace
    if name == "ck":
        try:
            bad = engine.verify_Ck_monotone(rows)
        except ValueError as exc:
            return f"check ck: SKIPPED ({exc})", False
        return ("check ck: PASS", False) if bad is None else (f"check ck: FAIL at k={bad}", True)
    if name == "descent":
        try:
            rep = engine.verify_descent(trace, schedule=schedule)
        except ValueError as exc:
            return f"check descent: SKIPPED ({exc})", False
        return (f"check descent: PASS ({rep.checked} indices)" if rep.ok
                else f"check descent: FAIL at k={rep.violations[:5]}"), not rep.ok
    if name in ("contraction", "product"):
        if q is None:
            return f"check {name}: SKIPPED (no certified q)", False
        fn = engine.verify_contraction if name == "contraction" else engine.verify_product_bound
        try:
            rep = fn(trace, q, xi, schedule=schedule)
        except ValueError as exc:
            return f"check {name}: SKIPPED ({exc})", False
        return (f"check {name}: PASS ({rep.checked} indices)" if rep.ok
                else f"check {name}: FAIL at k={rep.violations[:5]}"), not rep.ok
    if name == "small_o":
        parts = []
        failed = False
        for label, vals in (
            ("res^2", [r.residual ** 2 for r in rows]),
            ("step^2", [r.step ** 2 for r in rows[1:]]),
        ):
            n = monotone_prefix(vals)
            if n < 4:
                parts.append(f"{label}: SKIPPED (prefix too short)")
                continue
            ok = engine.small_o_check(vals[:n])
            failed |= not ok
            parts.append(f"{label}[:{n}]: {'PASS' if ok else 'FAIL'}")
        return "check small_o: " + "; ".join(parts), failed
    return f"check {name}: SKIPPED (unknown check)", False


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

    eta = gamma * lam if gamma is not None else lam
    all_pass = True
    h1 = cert.check_relaxation_constant(alpha, eta)
    all_pass &= h1.satisfied
    print(f"relaxation(eta={_fmt(eta)}): lhs={_fmt(h1.lhs)} rhs={_fmt(h1.rhs)} "
          f"margin={_fmt(h1.margin)} {'PASS' if h1.satisfied else 'FAIL'}", file=out)
    if q is not None:
        if lam > 1.0:
            raise UsageError("the quasi-contractive condition needs lambda <= 1")
        h2 = cert.check_contraction_condition(alpha, lam, q, xi_val)
        all_pass &= h2.satisfied
        print(f"contraction(q={_fmt(q)},xi={_fmt(xi_val)}): lhs={_fmt(h2.lhs)} rhs=0 "
              f"margin={_fmt(h2.margin)} {'PASS' if h2.satisfied else 'FAIL'}", file=out)
        if q < 1.0:
            print(f"feasibility_poly(lambda)={_fmt(cert.feasibility_poly(lam, alpha, q))} "
                  f"lambda_alpha_q={_fmt(cert.lambda_alpha_q(alpha, q))} "
                  f"lambda_alpha_1={_fmt(cert.lambda_alpha_1(alpha))}", file=out)
        thr = cert.xi_threshold(alpha, lam, q)
        print(f"xi_threshold={_fmt(thr) if thr is not None else 'none'}", file=out)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


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
    default_xi = view.get_float("schedule.xi", 1.0)

    indices = sorted({
        int(key.split(".")[1])
        for key in view.data
        if key.startswith("sweep.") and key.count(".") == 2
    })
    if len(indices) < 2:
        raise ConfigError("sweep needs at least two sweep.<i>.* schedule entries")
    entries = []
    for i in indices:
        entries.append({
            "label": view.get_str(f"sweep.{i}.label", f"s{i}"),
            "alpha": view.get_float(f"sweep.{i}.alpha"),
            "lambda": view.get_float(f"sweep.{i}.lambda"),
            "xi": view.get_float(f"sweep.{i}.xi", default_xi),
        })
    # a non-inertial baseline is always reported for every relaxation in play
    lambdas_with_baseline = {e["lambda"] for e in entries if e["alpha"] == 0.0}
    for lam in sorted({e["lambda"] for e in entries}):
        if lam not in lambdas_with_baseline:
            entries.append({
                "label": f"baseline(lambda={_fmt(lam)})",
                "alpha": 0.0, "lambda": lam, "xi": default_xi,
            })

    p_ref = instance.fixed_point(scheme, **steps)

    def run_entry(entry) -> List[str]:
        schedule = Schedule.constant(entry["alpha"], entry["lambda"])
        eta = op.gamma * entry["lambda"] if op.gamma is not None else entry["lambda"]
        h1 = cert.check_relaxation_constant(entry["alpha"], eta)
        contraction_margin = None
        if op.q_factor is not None and 0.0 < entry["lambda"] <= 1.0:
            contraction_margin = cert.check_contraction_condition(entry["alpha"], entry["lambda"],
                                      op.q_factor, entry["xi"]).margin
        warning = "" if h1.satisfied else "infeasible-relaxation"
        # the table reports only the last row's objective: keep the iterate
        # each row describes and evaluate the objective once, on the last one
        last_x: List = [None]

        def remember(x) -> None:
            last_x[0] = x

        try:
            result = engine.run(op, instance.start_point(scheme), schedule, stop,
                                p_ref=p_ref, objective=remember)
            status = result.status
            rows = result.rows
        except DivergenceError as exc:
            status = "diverged"
            rows = exc.partial.rows
        final_obj = None
        if rows and objective is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                final_obj = objective(last_x[0])
        return [
            entry["label"], _fmt(entry["alpha"]), _fmt(entry["lambda"]), _fmt(entry["xi"]),
            status, str(len(rows)), _fmt(rows[-1].residual if rows else None),
            _fmt(final_obj), _fmt(h1.margin), _fmt(contraction_margin), warning,
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
    rows, cfg = read_trace(trace_path)
    if not rows:
        raise ConfigError(f"{trace_path}: empty trace")
    if not cfg:
        raise ConfigError(f"{trace_path}: missing embedded '# config:' line")
    schedule, resolved_sched = build_schedule(ConfigView(cfg))
    xi = float(resolved_sched["schedule.xi"])
    q = float(cfg["derived.q_factor"]) if "derived.q_factor" in cfg else None
    has_ref = all(r.dist_to_ref is not None for r in rows)

    failures = 0

    def emit(line: str, failed: bool = False) -> None:
        nonlocal failures
        failures += int(failed)
        print(line, file=out)

    if all(r.C_k is not None for r in rows):
        bad = engine.verify_Ck_monotone(rows)
        emit("Ck monotone: PASS" if bad is None else f"Ck monotone: FAIL at k={bad}",
             failed=bad is not None)
    else:
        emit("Ck monotone: SKIPPED (no C_k column)")

    if has_ref:
        rep = engine.verify_descent(rows, schedule=schedule)
        emit(f"descent: PASS ({rep.checked} indices)" if rep.ok
             else f"descent: FAIL at k={rep.violations[:5]}", failed=not rep.ok)
    else:
        emit("descent: SKIPPED (no dist_to_ref column)")

    lam_ok = all(0.0 < schedule.lambda_at(r.k) <= 1.0 for r in rows)
    if q is not None and has_ref and lam_ok:
        repc = engine.verify_contraction(rows, q, xi, schedule=schedule)
        emit(f"contraction: PASS ({repc.checked} indices)" if repc.ok
             else f"contraction: FAIL at k={repc.violations[:5]}", failed=not repc.ok)
        repp = engine.verify_product_bound(rows, q, xi, schedule=schedule)
        emit(f"product bound: PASS ({repp.checked} indices)" if repp.ok
             else f"product bound: FAIL at k={repp.violations[:5]}", failed=not repp.ok)
    else:
        emit("contraction: SKIPPED (needs certified q, dist column, lambda <= 1)")

    for label, vals in (("k*res^2", [r.residual ** 2 for r in rows]),
                        ("k*step^2", [r.step ** 2 for r in rows[1:]])):
        n = monotone_prefix(vals)
        if n < 4:
            emit(f"small-o {label}: SKIPPED (monotone prefix too short)")
            continue
        ok = engine.small_o_check(vals[:n])
        emit(f"small-o {label} (prefix {n}): {'PASS' if ok else 'FAIL'}", failed=not ok)

    return EXIT_CHECK_FAILED if failures else EXIT_OK


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
