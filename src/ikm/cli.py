"""Configuration-driven command line front end.

Subcommands::

    ikm run <config>            drive one experiment, write the trace CSV
    ikm check-params ...        evaluate parameter feasibility inequalities
    ikm lambda-grid ...         tabulate the feasibility boundary root
    ikm sweep <config>          compare schedules on one problem
    ikm certify <trace.csv>     re-analyze an exported trace

Exit codes: 0 success/convergence, 1 failed checks, 2 iteration budget
exhausted (the run's, or a reference run's), 3 divergence, 64 usage or
configuration errors.  Trace CSVs are byte-stable across runs: floats are
printed with 17 significant digits.  A trace or sweep table embeds the
run's inputs, defaults resolved, as a '# config:' comment, which reruns the
command once an output path is added; a trace embeds the run's outcome as a
'# derived:' comment.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import math
import re
import sys
from array import array
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import certificates as cert
from . import engine
from .config import (ConfigError, ConfigView, deserialize_config, format_value, load_config,
                     serialize_config)
from .engine import (OPTIONAL_COLUMNS, STORED_COLUMNS, Schedule, StoppingRule, Trace, Verdict,
                     monotone_prefix)

if TYPE_CHECKING:
    from .operators import OperatorHandle
    from .problems import BenchmarkInstance

# the columns of an ikm-trace-v2 file, those a Trace stores: k, the
# measured columns and the rate_bound promise
TRACE_FIELDS = STORED_COLUMNS
TRACE_COLUMNS = ",".join(TRACE_FIELDS)
# the header of an ikm-trace-v1 file, which also held derived columns; no
# writer has made one since v2, and the reader rejects it
V1_TRACE_COLUMNS = ("k,residual,step,nu_k,delta_k,Delta_k,C_k,dist_to_ref,k_step_sq,k_res_sq,"
                    "objective,rate_bound")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MAX_ITERS = 2
EXIT_DIVERGED = 3
EXIT_USAGE = 64

# indices of the sequence-form certificate evaluated at once, so that its
# temporaries stay a few MB however late a schedule turns constant
SEQ_CHUNK = 100_000

class UsageError(Exception):
    pass


def _fmt(x) -> str:
    return "" if x is None else format_value(x)


# --------------------------------------------------------------------------
# config -> objects


# problem.kind -> the parameters of its generator ``problems.make_<kind>``
# besides problem.seed, under their config names, with their defaults; an
# int default reads an integer
PROBLEMS = {
    "quadratic": {"dim": 50, "mu": 1.0, "L": 10.0},
    "lasso": {"m": 40, "n": 100, "sparsity": 0.1, "mu_reg": 0.1},
    "tv1d": {"n": 200, "mu_reg": 0.5},
    "three_term": {"m": 40, "n": 100, "mu_reg": 0.1, "box_lo": -1.0, "box_hi": 1.0,
                   "sparsity": 0.1},
    "feasibility": {"dim": 20},
}
# the keys that name an output file, which no header holds
OUTPUT_PATHS = ("output.trace", "output.table")


def build_instance(view: ConfigView) -> BenchmarkInstance:
    # imported here, so that only the commands that build a problem compile
    # ikm.problems and ikm.operators
    from . import problems

    kind = view.get_str("problem.kind")
    seed = view.get_int("problem.seed", 1)
    if kind not in PROBLEMS:
        raise ConfigError(f"unknown problem.kind {kind!r}")
    params = {}
    for name, default in PROBLEMS[kind].items():
        get = view.get_int if isinstance(default, int) else view.get_float
        params[name] = get(f"problem.{name}", default)
    return getattr(problems, f"make_{kind}")(seed=seed, **params)


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


def read_schedule(view: ConfigView) -> Tuple[Schedule, float]:
    """The ``schedule.*`` keys of a run config or a trace header -> (schedule,
    xi); a constant/constant schedule is a :meth:`Schedule.constant`."""
    a_kind = view.get_str("schedule.alpha_kind", "constant")
    if a_kind == "constant":
        alphas = [_schedule_param(view, "schedule.alpha", 0.0)]
    elif a_kind == "ramp":
        ramp = (view.get_float("schedule.alpha_start", 0.0), view.get_float("schedule.alpha_end"),
                view.get_int("schedule.alpha_ramp_iters"))
    elif a_kind == "table":
        alphas = view.get_float_list("schedule.alpha_table")
    else:
        raise ConfigError(f"unknown schedule.alpha_kind {a_kind!r}")
    l_kind = view.get_str("schedule.lambda_kind", "constant")
    if l_kind == "constant":
        lambdas = [_schedule_param(view, "schedule.lambda", 1.0)]
    elif l_kind == "table":
        lambdas = view.get_float_list("schedule.lambda_table")
    else:
        raise ConfigError(f"unknown schedule.lambda_kind {l_kind!r}")
    xi = _schedule_param(view, "schedule.xi", 1.0)
    if a_kind == "ramp":
        return Schedule.ramp(*ramp, lambdas), xi
    if a_kind == l_kind == "constant":
        return Schedule.constant(alphas[0], lambdas[0]), xi
    return Schedule.table(alphas, lambdas), xi


def _sweep_entries(view: ConfigView, xi: float) -> Tuple[Tuple[str, float, float, float], ...]:
    """The ``sweep.<i>.*`` entries, ``(label, alpha, lambda, xi)`` in index
    order, then a non-inertial baseline for every relaxation in play that
    has none; ``xi`` is each entry's default ``xi``."""
    indices = set()
    for key in view.data:
        if key.startswith("sweep.") and key.count(".") == 2:
            index = key.split(".")[1]
            # int() would also take "01", "+1" or " 1" and fold them into the
            # entry "1", whose keys they would then shadow or join
            if not re.fullmatch("0|[1-9][0-9]*", index):
                raise ConfigError(f"{key}: the sweep index must be a decimal integer "
                                  "without sign or leading zeros")
            indices.add(int(index))
    if len(indices) < 2:
        raise ConfigError("sweep needs at least two sweep.<i>.* schedule entries")
    entries = []
    for i in sorted(indices):
        label = view.get_str(f"sweep.{i}.label", f"s{i}")
        if "," in label:
            raise ConfigError(f"sweep.{i}.label must not contain ','")
        entries.append((label, _schedule_param(view, f"sweep.{i}.alpha"),
                        _schedule_param(view, f"sweep.{i}.lambda"),
                        _schedule_param(view, f"sweep.{i}.xi", xi)))
    for lam in sorted({e[2] for e in entries} - {e[2] for e in entries if e[1] == 0.0}):
        entries.append((f"baseline(lambda={_fmt(lam)})", 0.0, lam, xi))
    return tuple(entries)


@dataclasses.dataclass(frozen=True)
class Spec:
    """What ``ikm run`` (:class:`RunSpec`) and ``ikm sweep``
    (:class:`SweepSpec`) read of a config.  ``read`` maps each key read to
    its value as config text (``ConfigView.read``), defaults and the
    instance's default steps included; ``steps`` are the resolved steps of
    ``scheme``, ``output`` the trace or table path and ``xi`` the run's xi,
    or a sweep entry's default."""

    read: Dict[str, str]
    scheme: str
    steps: Dict[str, float]
    stop: StoppingRule
    output: str
    xi: float

    def inputs(self) -> Dict[str, str]:
        """The keys read, sorted, without ``OUTPUT_PATHS``: the ``# config:``
        line of the trace or table, which reruns the command once an output
        path is added."""
        return {key: self.read[key] for key in sorted(self.read) if key not in OUTPUT_PATHS}


@dataclasses.dataclass(frozen=True)
class RunSpec(Spec):
    """An ``ikm run`` config: its ``schedule``, ``checks`` and ``p_ref``
    (whether to solve the reference)."""

    schedule: Schedule
    checks: Tuple[str, ...]
    p_ref: bool


@dataclasses.dataclass(frozen=True)
class SweepSpec(Spec):
    """An ``ikm sweep`` config: its ``entries``, ``(label, alpha, lambda,
    xi)`` per row in table order."""

    entries: Tuple[Tuple[str, float, float, float], ...]


def _read_problem(view: ConfigView, output: str, max_iters: int, residual_tol: float):
    """The instance, and the scheme, its resolved steps (recorded as read:
    those a config leaves unset are the instance's), the stopping rule under
    these defaults and the value of the key ``output``."""
    instance = build_instance(view)
    scheme = view.get_str("algorithm.scheme")
    if scheme not in instance.schemes:
        raise ConfigError(
            f"problem kind {instance.kind!r} supports schemes {instance.schemes}, "
            f"not {scheme!r}"
        )
    steps = instance.resolve_steps(scheme, **{
        key: view.get_float(f"algorithm.{key}") if view.has(f"algorithm.{key}") else None
        for key in instance.default_steps[scheme]})
    for key, value in steps.items():
        view.record(f"algorithm.{key}", value)
    stop = StoppingRule(
        max_iters=view.get_int("stopping.max_iters", max_iters),
        residual_tol=view.get_float("stopping.residual_tol", residual_tol),
        stall_tol=view.get_float("stopping.stall_tol") if view.has("stopping.stall_tol") else None,
    )
    return instance, (scheme, steps, stop, view.get_str(output))


def _checked(view: ConfigView, spec: Spec) -> Spec:
    """``spec`` once ``view.reject_unread()`` passes and every input fits a
    header: a misspelt or dead key, or an input holding ``"; "``, which ends
    a header entry, is an error before the reference is solved, any row
    runs or anything is printed."""
    view.reject_unread()
    for key, value in spec.inputs().items():
        if "; " in value:
            raise ConfigError(f"{key} must not contain '; ', which ends a header entry")
    return spec


def read_run(view: ConfigView) -> Tuple[RunSpec, BenchmarkInstance]:
    """The :class:`RunSpec` of an ``ikm run`` config and its instance."""
    instance, common = _read_problem(view, "output.trace", 10_000, 1e-10)
    schedule, xi = read_schedule(view)
    checks = tuple(c.strip() for c in view.get_str("output.checks", "none").split(",")
                   if c.strip() and c.strip() != "none")
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown output.checks {', '.join(unknown)}; "
                          f"choose from none, {', '.join(CHECKS)}")
    view.record("output.checks", ",".join(checks) or "none")  # one spelling per list
    p_ref = view.get_str("run.p_ref", "auto")
    if p_ref not in ("auto", "none"):
        raise ConfigError("run.p_ref must be 'auto' or 'none'")
    return _checked(view, RunSpec(dict(view.read), *common, xi, schedule, checks,
                                  p_ref == "auto")), instance


def read_sweep(view: ConfigView) -> Tuple[SweepSpec, BenchmarkInstance]:
    """The :class:`SweepSpec` of an ``ikm sweep`` config and its instance."""
    instance, common = _read_problem(view, "output.table", 100_000, 1e-6)
    xi = _schedule_param(view, "schedule.xi", 1.0)
    entries = _sweep_entries(view, xi)
    return _checked(view, SweepSpec(dict(view.read), *common, xi, entries)), instance


def build_problem(config_path: str, read) -> Tuple[
        Spec, BenchmarkInstance, OperatorHandle, Optional[Callable]]:
    """Config file -> (spec, instance, operator, objective), by ``read``,
    :func:`read_run` or :func:`read_sweep`.

    The objective closure maps an iterate, or a stack of iterates along the
    last axis as ``engine.run`` passes them, to the instance objective at
    its extracted solution; it is None when the instance or scheme lacks one.
    """
    spec, instance = read(ConfigView(load_config(config_path)))
    op = instance.operator(spec.scheme, **spec.steps)
    objective = None
    if instance.objective is not None and op.extract_solution is not None:
        extract = op.extract_solution
        inst_obj = instance.objective
        objective = lambda x: inst_obj(extract(x))  # noqa: E731
    return spec, instance, op, objective


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


def feasibility_summary(schedule: Schedule, op: OperatorHandle, xi: float, out) -> bool:
    """Print the schedule's feasibility certificates; True when all pass.

    The schedule is its ``limit`` from ``N = const_from`` on, so past ``N``
    the sequence form is the constant bound at the limit: ``k = 2..N`` are
    evaluated exactly on ``eta_k = gamma * lambda_k``, ``SEQ_CHUNK`` at a
    time, and the limit gets the lines of :func:`constant_feasibility`.
    """
    gamma = op.gamma
    n = schedule.const_from
    all_pass = True
    if n >= 2:
        if gamma is None:
            eta_schedule, eta = schedule, "lambda_k"
        else:
            eta_schedule = Schedule(schedule.alpha_col,
                                    lambda ks: gamma * schedule.lambda_col(ks))
            eta = f"gamma*lambda_k, gamma={_fmt(gamma)}"
        worst, worst_k = None, None
        for lo in range(2, n + 1, SEQ_CHUNK):
            rep = cert.check_relaxation_seq(eta_schedule, range(lo, min(lo + SEQ_CHUNK, n + 1)))
            i = np.argmax(rep.values)
            # argmax takes the first largest value, and a nan before any number
            if worst is None or np.argmax((worst, rep.values[i])) == 1:
                worst, worst_k = rep.values[i].item(), rep.ks[i].item()
        all_pass = worst < 0.0
        print(f"relaxation_seq(eta_k={eta}; k=2..{n}): max={_fmt(worst)} at k={worst_k} "
              f"{'PASS' if all_pass else 'FAIL'}", file=out)
    checks = constant_feasibility(*schedule.limit, gamma, op.q_factor, xi)
    for check in checks:
        print(_feasibility_line(check), file=out)
    for note in op.notes:
        print(f"note: {note}", file=out)
    return all_pass and all(check.satisfied for check in checks)


# --------------------------------------------------------------------------
# trace I/O


def write_trace(path: str, trace: Trace, config: Dict[str, str],
                derived: Optional[Dict[str, str]] = None) -> None:
    """Write ``ikm-trace-v2``: the comment lines, the column header, one line per row.

    The run's inputs, ``config``, go on the ``# config:`` line and its
    outcome, ``derived``, when given, on a ``# derived:`` line, each
    sorted.  The columns are ``TRACE_FIELDS``,
    those a :class:`Trace` stores: ``k``, the measured columns and the
    ``rate_bound`` promise; the header gives the schedule and gamma when read.
    Each present float column is printed with ``%.17g`` and an absent one
    as an empty field; rows are formatted ``engine.ROW_CHUNK`` at a time by
    one ``%``.
    """
    cols = [getattr(trace, name) for name in TRACE_FIELDS]
    present = [col for col in cols if col is not None]
    row_fmt = ",".join("%d" if name == "k" else "" if col is None else "%.17g"
                       for name, col in zip(TRACE_FIELDS, cols)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# ikm-trace-v2\n")
        fh.write("# config: " + serialize_config(config) + "\n")
        if derived:
            fh.write("# derived: " + serialize_config(derived) + "\n")
        fh.write(TRACE_COLUMNS + "\n")
        for lo in range(0, len(trace), engine.ROW_CHUNK):
            chunk = [col[lo:lo + engine.ROW_CHUNK].tolist() for col in present]
            values = tuple(itertools.chain.from_iterable(zip(*chunk)))
            fh.write(row_fmt * len(chunk[0]) % values)


def _parse_column(path: str, name: str, tokens: List[str], buf: array) -> bool:
    """Append one column of a chunk of rows to ``buf``; False, appending
    nothing, when every field is empty."""
    if not any(tokens):
        return False
    if "" in tokens:
        raise ConfigError(f"{path}: column {name} mixes empty and filled fields")
    try:
        buf.fromlist(list(map(int if name == "k" else float, tokens)))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: column {name}: {exc}") from None
    return True


def rate_bound_column(trace: Trace, schedule: Schedule, q: Optional[float],
                      xi: float) -> Optional[np.ndarray]:
    """``rate_bound(k - 1, alpha, Q, ||x_1 - p||^2)`` per row of a run with a
    reference, a schedule constant from k = 1 with ``0 < lambda <= 1`` and a certified
    ``q`` whose ``Q(lambda, q, xi)`` lies in ``(alpha, 1)``; None for any
    other run.  The rows are computed ``engine.ROW_CHUNK`` at a time."""
    if q is None or schedule.const_from != 1 or trace.dist_to_ref is None or not len(trace):
        return None
    alpha, lam = schedule.limit
    if not 0.0 < lam <= 1.0:
        return None
    Q_const = cert.contraction_constant(lam, q, xi)
    if not alpha < Q_const < 1.0:
        return None
    d1 = trace.dist_to_ref[0].item() ** 2
    bound = np.empty(len(trace))
    for lo in range(0, len(trace), engine.ROW_CHUNK):
        # cert.rate_bound's expression at exponent (k - 1) + 1: libm pow, not
        # NumPy power, gives the bits an ikm-trace-v2 file holds, and the
        # rest are the same IEEE operations in the same order, in place
        ks = trace.k[lo:lo + engine.ROW_CHUNK].tolist()
        part = bound[lo:lo + len(ks)]
        part[:] = np.fromiter(map(math.pow, itertools.repeat(alpha), ks), np.float64, len(ks))
        part -= np.fromiter(map(math.pow, itertools.repeat(Q_const), ks), np.float64, len(ks))
        part /= alpha - Q_const
        part *= d1
    return bound


def _derived_constant(source: str, view: ConfigView, key: str) -> Optional[float]:
    """A trace header's ``derived.gamma`` or ``derived.q_factor``, None when
    absent.  The replays divide by ``gamma * lambda_k`` and raise ``q`` to
    powers: a value that is no number, or lies outside ``(0, 1]`` (nan
    included), would pass or fail them at random, so it is an error that
    names ``source`` and the key."""
    if not view.has(key):
        return None
    try:
        value = view.get_float(key)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"{source}: {key} must lie in (0, 1]")
    return value


def _differs(a: Optional[np.ndarray], b: Optional[np.ndarray], n: int) -> np.ndarray:
    """Per row, whether two float columns differ in their bits (any two nans
    agree, as ``%.17g`` prints every nan alike); an absent column differs
    from a present one on every row."""
    if a is None or b is None:
        return np.full(n, (a is None) != (b is None))
    return (a.view(np.int64) != b.view(np.int64)) & ~(np.isnan(a) & np.isnan(b))


def read_trace(path: str):
    """Parse an ``ikm-trace-v2`` file into ``(trace, config, derived, consistency, q, xi)``.

    The header must name ``TRACE_FIELDS``; an ``ikm-trace-v1`` header is an
    error.  Every row must have one field per column, and a column must be
    all numbers or, for the optional columns, all empty.  The file is read
    line by line and its rows are split and parsed ``engine.ROW_CHUNK`` at
    a time, column by column, into one buffer per column grown in place
    (``array("d")``, and int64 for ``k``), which becomes the trace's column
    without a copy; so the parse holds one chunk of text and tokens besides
    the parsed columns.  ``config`` and ``derived`` are the last
    ``# config:`` line, which must be present, and the last ``# derived:``
    line (empty without one); the header is read from both, ``derived``
    winning.  A file written before the run's outcome had a line of its own
    holds ``derived.*`` and ``run.status`` in its ``# config:`` line, and
    reads alike.  Errors are raised in file order, except that a missing column
    header, a column mixing empty and filled chunks, a ``k`` column other
    than ``1..n``, a missing config and a ``derived.gamma`` or
    ``derived.q_factor`` that is no number in ``(0, 1]`` are reported at
    the end.

    The returned trace stores the file's measured columns, the header's
    schedule (:func:`read_schedule`) and ``derived.gamma`` (None without
    it), and ``rate_bound`` from :func:`rate_bound_column`, as ``ikm run``
    made it.  ``consistency`` is the :class:`Verdict` of the file's
    ``rate_bound`` against the recomputed one, judged as the replays are
    (``engine.replay``): FAIL at the first five ks where their bits
    differ.  The file's column is dropped on return.  ``q`` and ``xi`` are
    the header's ``derived.q_factor`` (None without it) and
    ``schedule.xi``, validated, which the contraction replays read.
    """
    config: Dict[str, str] = {}
    derived: Dict[str, str] = {}
    started = False  # whether the first row, which must be the header, was seen
    header = False  # whether that row is the v2 header
    rows: List[str] = []
    buffers = [array("q" if name == "k" else "d") for name in TRACE_FIELDS]
    empty = [0] * len(TRACE_FIELDS)  # the chunks in which each column is empty
    chunks = 0

    def parse_rows():
        nonlocal chunks
        tokens = ",".join(rows).split(",")
        for j, name in enumerate(TRACE_FIELDS):
            if not _parse_column(path, name, tokens[j::len(TRACE_FIELDS)], buffers[j]):
                empty[j] += 1
        chunks += 1
        rows.clear()

    with open(path, "r", encoding="utf-8") as fh:
        # splitlines breaks a line where str.splitlines breaks the whole text
        for line in itertools.chain.from_iterable(map(str.splitlines, fh)):
            if line.startswith("# config: "):
                config = deserialize_config(line[len("# config: "):])
            elif line.startswith("# derived: "):
                derived = deserialize_config(line[len("# derived: "):])
            if not line.strip() or line.startswith("#"):
                continue
            if not started:
                started = True
                header = line == TRACE_COLUMNS
                if line == V1_TRACE_COLUMNS:
                    raise ConfigError(f"{path}: an ikm-trace-v1 file, which is no longer "
                                      "read; rerun ikm run to write ikm-trace-v2")
            elif header:
                if line.count(",") != len(TRACE_FIELDS) - 1:
                    raise ConfigError(f"{path}: malformed row {line!r}")
                rows.append(line)
                if len(rows) == engine.ROW_CHUNK:
                    parse_rows()
    if not header:
        raise ConfigError(f"{path}: not an ikm trace (missing column header)")
    if rows:
        parse_rows()
    columns = {}
    for name, buf, n_empty in zip(TRACE_FIELDS, buffers, empty):
        if n_empty == chunks and name in OPTIONAL_COLUMNS:
            columns[name] = None
        elif n_empty:
            raise ConfigError(f"{path}: column {name} "
                              + ("mixes empty and filled fields" if buf else "is empty"))
        else:
            columns[name] = np.asarray(buf, dtype=np.int64 if name == "k" else np.float64)
    k = columns.pop("k")
    # the replays pair each row with the one before it as steps k - 1 and k,
    # so a missing, repeated or reordered k is a corrupt trace
    if not np.array_equal(k, np.arange(1, k.size + 1)):
        raise ConfigError(f"{path}: column k must be 1, 2, ..., n, one row per step")
    if not config:
        raise ConfigError(f"{path}: missing embedded '# config:' line")

    view = ConfigView({**config, **derived})
    schedule, xi = read_schedule(view)
    gamma = _derived_constant(path, view, "derived.gamma")
    q = _derived_constant(path, view, "derived.q_factor")
    held = columns.pop("rate_bound")
    trace = Trace(schedule, gamma, k=k, **columns)
    bound = trace.rate_bound = rate_bound_column(trace, schedule, q, xi)
    consistency = engine.replay("consistency", k, lambda lo, hi: _differs(
        None if held is None else held[lo:hi], None if bound is None else bound[lo:hi], hi - lo))
    return trace, config, derived, consistency, q, xi


# --------------------------------------------------------------------------
# subcommands


CHECKS = ("ck", "descent", "contraction", "product", "small_o")
SMALL_O_PARTS = ("res^2", "step^2")
REPLAYS = {"ck": "verify_Ck_monotone", "descent": "verify_descent",
           "contraction": "verify_contraction", "product": "verify_product_bound"}

# the line each command prints for a verdict, by check (small_o by part) and
# status: {n} is the count checked (the monotone prefix of a small_o part),
# {k} the first failing k, {ks} the first five and {reason} why it was skipped
STATUSES = ("PASS", "FAIL", "SKIPPED")
RUN_LINES = {
    "ck": ("check ck: PASS", "check ck: FAIL at k={k}", "check ck: SKIPPED ({reason})"),
    **{name: (f"check {name}: PASS ({{n}} indices)", f"check {name}: FAIL at k={{ks}}",
              f"check {name}: SKIPPED ({{reason}})")
       for name in ("descent", "contraction", "product")},
    **{part: (f"{part}[:{{n}}]: PASS", f"{part}[:{{n}}]: FAIL",
              f"{part}: SKIPPED (prefix too short)") for part in SMALL_O_PARTS},
}
CERTIFY_LINES = {
    "ck": ("Ck monotone: PASS", "Ck monotone: FAIL at k={k}",
           "Ck monotone: SKIPPED (no C_k column)"),
    "descent": ("descent: PASS ({n} indices)", "descent: FAIL at k={ks}",
                "descent: SKIPPED (no dist_to_ref column)"),
    "contraction": ("contraction: PASS ({n} indices)", "contraction: FAIL at k={ks}",
                    "contraction: SKIPPED (needs certified q, dist column, lambda <= 1)"),
    # printed only when contraction is not SKIPPED, whose line covers both
    "product": ("product bound: PASS ({n} indices)", "product bound: FAIL at k={ks}",
                "product bound: SKIPPED ({reason})"),
    **{part: (f"small-o k*{part} (prefix {{n}}): PASS", f"small-o k*{part} (prefix {{n}}): FAIL",
              f"small-o k*{part}: SKIPPED (monotone prefix too short)")
       for part in SMALL_O_PARTS},
    # printed only when the file's rate_bound differs from the recomputed one
    "consistency": ("consistency: PASS", "consistency: FAIL at k={ks}",
                    "consistency: SKIPPED ({reason})"),
}


def _line(lines: Dict[str, Tuple[str, ...]], verdict: Verdict) -> str:
    """``verdict`` as its line in the table ``lines``."""
    return lines[verdict.name][STATUSES.index(verdict.status)].format(
        n=verdict.checked, k=verdict.fails[0] if verdict.fails else None,
        ks=list(verdict.fails), reason=verdict.reason)


def cmd_run(config_path: str, out=sys.stdout) -> int:
    spec, instance, op, objective = build_problem(config_path, read_run)
    p_ref = None
    if spec.p_ref:
        p_ref = instance.fixed_point(spec.scheme, **spec.steps)
        if not engine.is_reference_point(op, p_ref):
            print(f"warning: reference point residual exceeds {engine.REF_TOL:g}; dropping it",
                  file=out)
            p_ref = None

    feasible = feasibility_summary(spec.schedule, op, spec.xi, out)
    if not feasible:
        print("warning: schedule fails the feasibility certificates; running anyway", file=out)

    result = engine.run(op, instance.start_point(spec.scheme), spec.schedule, spec.stop,
                        p_ref=p_ref, objective=objective)
    status = result.status
    trace = result.rows
    trace.rate_bound = rate_bound_column(trace, spec.schedule, op.q_factor, spec.xi)
    derived = {f"derived.{name}": _fmt(value) for name, value in
               (("gamma", op.gamma), ("q_factor", op.q_factor), ("beta", op.beta))
               if value is not None}
    write_trace(spec.output, trace, spec.inputs(), {**derived, "run.status": status,
                                                    "derived.warning": "0" if feasible else "1"})
    print(f"status={status} iterations={len(trace)} "
          f"final_residual={_fmt(result.final_residual if len(trace) else None)}", file=out)
    print(f"trace written to {spec.output}", file=out)

    verdicts = evaluate_checks(trace, spec.checks, op.q_factor, spec.xi)
    for name in spec.checks:
        if name == "small_o":
            print("check small_o: " + "; ".join(_line(RUN_LINES, verdicts[part])
                                                for part in SMALL_O_PARTS), file=out)
        else:
            print(_line(RUN_LINES, verdicts[name]), file=out)
    failed = any(verdict.status == "FAIL" for verdict in verdicts.values())
    if status == "converged":
        return EXIT_CHECK_FAILED if failed else EXIT_OK
    return EXIT_DIVERGED if status == "diverged" else EXIT_MAX_ITERS


def evaluate_checks(trace: Trace, names, q: Optional[float], xi: float) -> Dict[str, Verdict]:
    """The :class:`Verdict` of each named check along a trace, under its
    schedule, by check name; ``small_o`` gives one per ``SMALL_O_PARTS``.

    A replay is SKIPPED, with its reason, when it cannot run: a missing
    column, no q, a lambda_k outside (0, 1].  The replays are called by name
    (``REPLAYS``) through the ``engine`` module, so that wrappers installed
    there see every call.  The checks run one after another, so at most one
    replay's or ``small_o`` part's chunk is held at a time.
    """
    verdicts: Dict[str, Verdict] = {}
    for name in names:
        if name == "small_o":
            for part, col in zip(SMALL_O_PARTS, (trace.residual, trace.step[1:])):
                verdicts[part] = _small_o(part, col)
        elif name in ("contraction", "product") and q is None:
            verdicts[name] = Verdict(name, "SKIPPED", reason="no certified q")
        else:
            args = (trace,) if name in ("ck", "descent") else (trace, q, xi)
            try:
                verdicts[name] = getattr(engine, REPLAYS[name])(*args)
            except ValueError as exc:
                verdicts[name] = Verdict(name, "SKIPPED", reason=str(exc))
    return verdicts


def _small_o(part: str, col: np.ndarray) -> Verdict:
    """The verdict of ``small_o_check`` on the monotone prefix of ``col``'s
    squares, SKIPPED when it is shorter than 4; both square ``col`` one
    chunk at a time."""
    n = monotone_prefix(col)
    if n < 4:
        return Verdict(part, "SKIPPED", n, reason="prefix too short")
    return Verdict(part, "PASS" if engine.small_o_check(col[:n]) else "FAIL", n)


def cmd_check_params(alpha: float, lam: float, q: Optional[float], xi: Optional[float],
                     gamma: Optional[float], out=sys.stdout) -> int:
    if not 0.0 <= alpha < 1.0:
        raise UsageError("alpha must lie in [0, 1)")
    if not lam > 0.0:
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
    spec, instance, op, objective = build_problem(config_path, read_sweep)

    def run_entry(entry) -> List[str]:
        label, alpha, lam, xi = entry
        relax, *contraction = constant_feasibility(alpha, lam, op.gamma, op.q_factor, xi)
        # the table reads no distance column, so no reference point, and
        # only the last row's objective: it is evaluated once
        result = engine.run(op, instance.start_point(spec.scheme),
                            Schedule.constant(alpha, lam), spec.stop)
        residual = result.rows.residual
        final_obj = None
        if residual.size and objective is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                final_obj = objective(result.x_last)
        return [
            label, _fmt(alpha), _fmt(lam), _fmt(xi),
            result.status, str(residual.size), _fmt(residual[-1] if residual.size else None),
            _fmt(final_obj), _fmt(relax.margin),
            _fmt(contraction[0].margin if contraction else None),
            "" if relax.satisfied else "infeasible-relaxation",
        ]

    # imported here, so that the processes of the other commands do not compile it
    from .workers import map_rows
    results = map_rows(run_entry, spec.entries)

    with open(spec.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# ikm-sweep-v1\n")
        fh.write("# config: " + serialize_config(spec.inputs()) + "\n")
        fh.write("label,alpha,lambda,xi,status,iterations,final_residual,"
                 "final_objective,relax_margin,contraction_margin,warning\n")
        for row in results:
            fh.write(",".join(row) + "\n")
    print(f"sweep table ({len(results)} rows) written to {spec.output}", file=out)
    return EXIT_OK


def cmd_certify(trace_path: str, out=sys.stdout) -> int:
    """Replay every check on a trace file's re-derived columns.  A file whose
    ``rate_bound`` disagrees with its re-derivation also gets a failing
    ``consistency`` line."""
    trace, _, _, consistency, q, xi = read_trace(trace_path)
    if not len(trace):
        raise ConfigError(f"{trace_path}: empty trace")
    verdicts = evaluate_checks(trace, CHECKS, q, xi)
    if consistency.status == "FAIL":
        verdicts["consistency"] = consistency
    for name, verdict in verdicts.items():
        if name != "product" or verdicts["contraction"].status != "SKIPPED":
            print(_line(CERTIFY_LINES, verdict), file=out)
    return EXIT_CHECK_FAILED if any(v.status == "FAIL" for v in verdicts.values()) else EXIT_OK


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
    except engine.ReferenceNotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MAX_ITERS


def console_main() -> int:
    """The ``ikm`` process entry: :func:`main` after ``gc.freeze()``.

    Freezing moves every object alive after the imports (about 22,000
    that the collector tracks, 9,000 of them NumPy's) into a generation
    that no collection walks, neither during the command nor at
    interpreter exit.  The imports leave no unreachable object behind (a
    collection before the freeze finds none), so none is frozen for good.
    The full collection after the freeze walks no object and empties the
    interpreter's free lists that the imports filled.  Only the entry
    freezes: an in-process caller of :func:`main` keeps its heap as it is.
    """
    gc.freeze()
    gc.collect()
    return main()


if __name__ == "__main__":
    sys.exit(console_main())
