"""Certified schedules must not FAIL: every run the feasibility certificates
admit passes every replay of the Lyapunov inequalities.

The replays' Lyapunov columns and descent inequality use the relaxation the
certificates are evaluated at, ``eta = gamma * lambda`` (see ikm.engine);
under the raw ``lambda``, 9 cells of the matrix below fail ``check ck``.
"""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ikm import certificates as cert
from ikm import cli
from ikm.config import ConfigView
from ikm.engine import STORED_COLUMNS, Schedule, StoppingRule, Trace, run, verify_Ck_monotone
from ikm.operators import OperatorHandle

# --------------------------------------------------------------------------
# the generators' schemes at certified schedules

GENERATORS = {
    "quadratic": ("problem.kind = quadratic\nproblem.dim = 20\n", ("gradient", "proximal")),
    "tv1d": ("problem.kind = tv1d\nproblem.n = 60\n", ("pd", "sdr")),
    "lasso": ("problem.kind = lasso\nproblem.m = 40\nproblem.n = 100\n", ("fb",)),
    "three_term": ("problem.kind = three_term\nproblem.m = 40\nproblem.n = 100\n", ("dy",)),
    "feasibility": ("problem.kind = feasibility\nproblem.dim = 20\n", ("dr",)),
}
SCHEDULES = ("alpha=0", "alpha=0.2", "alpha=0.4", "ramp", "table")
CELLS = [(g, scheme, s) for g, (_, schemes) in GENERATORS.items() for scheme in schemes
         for s in SCHEDULES]
# the cells whose ck fails at k = 2 or 3 when their stored columns are replayed
# under lambda (a trace without gamma): ikm run exits 1 on them unless the
# Lyapunov columns read eta
FAILED_UNDER_LAMBDA = {
    ("quadratic", "proximal", "alpha=0"), ("quadratic", "proximal", "alpha=0.2"),
    ("quadratic", "proximal", "alpha=0.4"), ("tv1d", "pd", "alpha=0"),
    ("tv1d", "sdr", "alpha=0"), ("feasibility", "dr", "alpha=0"),
    ("feasibility", "dr", "alpha=0.2"), ("feasibility", "dr", "alpha=0.4"),
    ("feasibility", "dr", "table"),
}
# small_o's heuristic judges the 4-row monotone prefix of a run that reaches
# residual 0 in 5 steps and prints FAIL for both parts; it is no inequality
# of the analysis, and its verdict is pinned here until it is mended
SMALL_O_FAILS = {("feasibility", "dr", "ramp")}


def relaxation_bound(op, alpha):
    """The largest lambda the relaxation certificate admits at ``alpha``."""
    return cert.lambda_alpha_1(alpha) / (1.0 if op.gamma is None else op.gamma)


def precheck_bound(op, alpha):
    """The relaxation bound, and when q is certified the lower end of the
    closed-form enclosure of the contraction condition's root."""
    bound = relaxation_bound(op, alpha)
    if op.q_factor is None:
        return bound
    return min(bound, cert.lambda_bracket(alpha, op.q_factor)[0])


def schedule_keys(op, name):
    """Config keys of schedule ``name`` for the operator ``op``: a constant
    at 0.95 of the relaxation bound, or a ramp or table inside the precheck's."""
    if name.startswith("alpha="):
        alpha = float(name[len("alpha="):])
        return {"schedule.alpha": repr(alpha),
                "schedule.lambda": repr(0.95 * relaxation_bound(op, alpha))}
    if name == "ramp":
        return {"schedule.alpha_kind": "ramp", "schedule.alpha_end": "0.3",
                "schedule.alpha_ramp_iters": "50",
                "schedule.lambda": repr(0.9 * precheck_bound(op, 0.3))}
    lam = 0.9 * precheck_bound(op, 0.2)
    return {"schedule.alpha_kind": "table", "schedule.alpha_table": "0,0.1,0.2",
            "schedule.lambda_kind": "table",
            "schedule.lambda_table": ",".join(map(repr, [lam, lam, lam, 0.9 * lam]))}


@pytest.mark.parametrize("generator, scheme, schedule", CELLS)
def test_certified_schedule_passes_every_check(tmp_path, generator, scheme, schedule):
    problem, _ = GENERATORS[generator]
    op = cli.build_instance(ConfigView(dict(
        line.split(" = ") for line in problem.splitlines()))).operator(scheme)
    keys = schedule_keys(op, schedule)
    trace_path = tmp_path / "t.csv"
    config = tmp_path / "run.cfg"
    config.write_text(problem + f"problem.seed = 1\nalgorithm.scheme = {scheme}\n"
                      + "".join(f"{key} = {value}\n" for key, value in keys.items())
                      + "stopping.max_iters = 3000\n"
                      + f"output.checks = {','.join(cli.CHECKS)}\noutput.trace = {trace_path}\n")
    out = io.StringIO()
    code = cli.cmd_run(str(config), out=out)
    lines = out.getvalue().splitlines()
    if schedule in ("ramp", "table"):
        assert "warning: schedule fails the feasibility certificates; running anyway" not in lines
    # the run's verdicts, then those ikm certify re-derives from the file
    trace, _, _, _, q, xi = cli.read_trace(str(trace_path))
    assert (trace.gamma, q, xi) == (op.gamma, op.q_factor, 1.0)
    verdicts = cli.evaluate_checks(trace, cli.CHECKS, q, xi)
    lam = trace.schedule.columns(trace.k)[1]
    for name in ("ck", "descent", "contraction", "product"):
        verdict = verdicts[name]
        if verdict.status == "SKIPPED":
            assert name in ("contraction", "product")
            assert op.q_factor is None or lam.max() > 1.0, verdict
        else:
            assert verdict.status == "PASS", (verdict, lines)
        assert cli._line(cli.RUN_LINES, verdict) in lines
    # the same stored columns without gamma, so under lambda
    under_lambda = Trace(trace.schedule,
                         **{name: getattr(trace, name) for name in STORED_COLUMNS})
    assert ((verify_Ck_monotone(under_lambda).status == "FAIL")
            == ((generator, scheme, schedule) in FAILED_UNDER_LAMBDA))
    small_o = {verdicts[part].status for part in cli.SMALL_O_PARTS}
    if (generator, scheme, schedule) in SMALL_O_FAILS:
        assert small_o == {"FAIL"} and code == cli.EXIT_CHECK_FAILED
        pytest.xfail("small_o's heuristic FAILs a 4-row prefix")
    assert small_o <= {"PASS", "SKIPPED"}
    assert code == cli.EXIT_OK  # converged, every check passed


# --------------------------------------------------------------------------
# fuzzed operators with a known fixed point and factor


def averaged_map(p, R, theta):
    """``T x = p + (1 - theta)(x - p) + theta R (x - p)``: ``theta``-averaged
    for an orthogonal ``R``, with fixed point ``p``."""
    M = (1.0 - theta) * np.eye(p.size) + theta * R
    return OperatorHandle(apply=lambda x: p + M @ (x - p), gamma=theta)


def contractive_map(p, R, q):
    """``T x = p + q R (x - p)``: a q-contraction onto ``p``, which is
    ``(1 + q)/2``-averaged."""
    return OperatorHandle(apply=lambda x: p + (q * R) @ (x - p), gamma=(1.0 + q) / 2.0,
                          q_factor=q)


@st.composite
def fuzz_cases(draw):
    """(operator, x_1, p, schedule, steps): a draw the precheck accepts."""
    n = draw(st.integers(2, 8))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    R = np.linalg.qr(gen.standard_normal((n, n)))[0]
    p, x1 = gen.standard_normal(n), gen.standard_normal(n)
    if draw(st.booleans()):
        op = averaged_map(p, R, draw(st.floats(0.05, 1.0)))
    else:
        op = contractive_map(p, R, draw(st.floats(0.05, 0.95)))
    alpha = draw(st.floats(0.0, 0.45))
    bound = precheck_bound(op, alpha)
    fracs = st.floats(0.05, 0.99)
    kind = draw(st.sampled_from(["constant", "ramp", "table"]))
    if kind == "constant":
        schedule = Schedule.constant(alpha, draw(fracs) * bound)
    elif kind == "ramp":
        schedule = Schedule.ramp(draw(st.floats(0.0, alpha)), alpha, draw(st.integers(1, 200)),
                                 [draw(fracs) * bound])
    else:
        # alpha nondecreasing up to its limit, lambda nondecreasing below the
        # limit's bound: every index of the sequence form then holds
        alphas = sorted(draw(st.lists(st.floats(0.0, alpha), max_size=3)) + [alpha])
        lambdas = sorted(draw(st.lists(fracs, min_size=1, max_size=4)))
        schedule = Schedule.table(alphas, [f * bound for f in lambdas])
    return op, x1, p, schedule, draw(st.integers(300, 1000))


def constant_map_case():
    """``T = p`` everywhere: 1/2-averaged (``R`` the reflection through p)."""
    p, x1 = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.7, -1.1])
    return averaged_map(p, -np.eye(3), 0.5), x1, p, Schedule.constant(0.2, 0.9), 300


@settings(max_examples=150, deadline=None)
@given(case=fuzz_cases())
# the minimal case: ck failed at k = 2 while C_k used lambda rather than eta
@example(case=constant_map_case())
def test_admitted_schedules_pass_every_replay_on_fuzzed_maps(case):
    op, x1, p, schedule, steps = case
    assert cli.feasibility_summary(schedule, op, 1.0, io.StringIO())
    res = run(op, x1, schedule, StoppingRule(steps, 0.0), p_ref=p)
    # the inequalities of the analysis; small_o is a heuristic, which a draw
    # that converges slowly (R near the identity) fails by design
    names = ("ck", "descent", "contraction", "product")
    verdicts = cli.evaluate_checks(res.rows, names, op.q_factor, 1.0)
    lam = schedule.columns(res.rows.k)[1]
    for name in names:
        verdict = verdicts[name]
        if verdict.status == "SKIPPED":
            assert name in ("contraction", "product")
            assert op.q_factor is None or lam.max() > 1.0, verdict
        else:
            assert verdict.status == "PASS", verdict
