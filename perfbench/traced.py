"""Run one ikm CLI command in-process with timing wrappers around each layer.

Usage::

    python3 perfbench/traced.py --out spans.json --workload quad-run --run-id r0 -- run quad.cfg
    python3 perfbench/traced.py --out bare.json --bare-loop quad.cfg \
        --alpha 0.05 --lambda 0.9 --iters 13396

The first form times ``import ikm``, replaces module attributes of the
package with timing wrappers, calls ``ikm.cli.main(argv)`` and writes the
spans as JSON.  Each span is ``[id, name, start, end, parent, workload,
run_id]``, the last two as given on the command line; operator
``apply`` calls are too frequent for one span each and are summed into their
enclosing span instead (``apply`` maps a span id to ``[calls, seconds]``).

The second form runs the bare baseline: an inertial KM loop over the same
``OperatorHandle.apply`` that computes only the residual norm.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time

VERIFY = ("verify_descent", "verify_contraction", "verify_product_bound", "verify_Ck_monotone")
MAKERS = ("make_quadratic", "make_lasso", "make_tv1d", "make_three_term", "make_feasibility")


class Tracer:
    """Spans kept in memory; nesting follows the call stack (one thread)."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.apply = {}
        # (span id, iterations, history bytes, final residual) per engine.run
        self.runs = []
        self.picard_steps = 0
        self.trace_bytes = 0

    def span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(None)
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = [sid, name, start, end, parent, self.workload, self.run_id]
            if on_result is not None:
                result = on_result(sid, result, args)
            return result

        return wrapper

    def timed_apply(self, apply):
        def wrapper(x):
            start = time.perf_counter()
            y = apply(x)
            elapsed = time.perf_counter() - start
            entry = self.apply.setdefault(self.stack[-1] if self.stack else -1, [0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            return y

        return wrapper


def _nbytes(point) -> int:
    if hasattr(point, "primal"):
        return point.primal.nbytes + point.dual.nbytes
    return point.nbytes


def install(tracer: Tracer) -> None:
    """Wrap the public calls of each layer that the CLI makes."""
    from ikm import certificates, cli, engine, operators, problems

    def patch(module, attr, name, on_result=None):
        setattr(module, attr, tracer.span(name, getattr(module, attr), on_result))

    def record_run(sid, result, args):
        history = sum(_nbytes(x) for x in result.xs) + sum(_nbytes(y) for y in result.ys)
        tracer.runs.append((sid, len(result.rows), history, result.final_residual))
        return result

    def record_picard(sid, result, args):
        tracer.picard_steps += result.rows[0].k
        return result

    def record_trace(sid, result, args):
        tracer.trace_bytes += os.path.getsize(args[0])
        return result

    def wrap_handle(sid, handle, args):
        return dataclasses.replace(handle, apply=tracer.timed_apply(handle.apply))

    patch(engine, "run", "engine.run", record_run)
    for attr in VERIFY:
        patch(engine, attr, "engine." + attr)
    patch(problems, "picard", "problems.reference", record_picard)
    patch(problems, "solve_spd", "problems.reference")
    for attr in MAKERS:
        patch(problems, attr, "problems.make")
    patch(problems, "operator_norm_estimate", "linalg.norm_estimate")
    patch(operators, "operator_norm_estimate", "linalg.norm_estimate")
    patch(problems.BenchmarkInstance, "operator", "operators.build", wrap_handle)
    patch(cli, "write_trace", "cli.write_trace", record_trace)
    patch(cli, "read_trace", "cli.read_trace")
    for attr in certificates.__all__:
        obj = getattr(certificates, attr)
        if callable(obj) and not isinstance(obj, type):
            patch(certificates, attr, "certificates")
    patch(cli, "main", "cli.main")


def traced_command(argv, out_path: str, workload: str, run_id: str) -> int:
    tracer = Tracer(workload, run_id)
    start = time.perf_counter()
    import ikm  # noqa: F401
    import ikm.cli
    import_s = time.perf_counter() - start
    install(tracer)
    rc = ikm.cli.main(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "rc": rc,
            "import_s": import_s,
            "spans": tracer.spans,
            "apply": {str(k): v for k, v in tracer.apply.items()},
            "runs": tracer.runs,
            "picard_steps": tracer.picard_steps,
            "trace_bytes": tracer.trace_bytes,
        }, fh)
    return rc


def bare_loop(config_path: str, alpha: float, lam: float, iters: int, out_path: str) -> int:
    """Inertial KM over the workload's operator, computing only the residual norm."""
    import numpy as np

    from ikm.cli import build_instance
    from ikm.config import ConfigView, load_config

    view = ConfigView(load_config(config_path))
    scheme = view.get_str("algorithm.scheme")
    instance = build_instance(view)
    apply = instance.operator(scheme).apply
    x1 = instance.start_point(scheme)

    def sqnorm(v):
        if hasattr(v, "primal"):
            return float(np.dot(v.primal, v.primal)) + float(np.dot(v.dual, v.dual))
        return float(np.dot(v, v))

    x_prev = x_curr = x1
    res = 0.0
    start = time.perf_counter()
    for _ in range(iters):
        y = x_curr if alpha == 0.0 else x_curr + alpha * (x_curr - x_prev)
        ty = apply(y)
        res = sqnorm(y - ty) ** 0.5
        x_prev, x_curr = x_curr, (ty if lam == 1.0 else (1.0 - lam) * y + lam * ty)
    elapsed = time.perf_counter() - start
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"iters": iters, "seconds": elapsed, "final_residual": res}, fh)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", default="")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--bare-loop", metavar="CONFIG")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--lambda", dest="lam", type=float)
    parser.add_argument("--iters", type=int)
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    if args.bare_loop:
        return bare_loop(args.bare_loop, args.alpha, args.lam, args.iters, args.out)
    return traced_command(args.argv, args.out, args.workload, args.run_id)


if __name__ == "__main__":
    sys.exit(main())
