import io
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikm import certificates as cert
from ikm import cli, engine, problems, workers
from ikm.config import (
    ConfigError,
    ConfigView,
    deserialize_config,
    parse_config,
    serialize_config,
)
from ikm.engine import Schedule, StoppingRule
from ikm.operators import OperatorHandle


# --------------------------------------------------------------------------
# config grammar


def test_parse_config_basic():
    text = """
    # a comment
    problem.kind = lasso   # trailing comment
    problem.m = 40

    schedule.alpha = 0.2
    """
    cfg = parse_config(text)
    assert cfg == {"problem.kind": "lasso", "problem.m": "40", "schedule.alpha": "0.2"}


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config("just some words")
    with pytest.raises(ConfigError):
        parse_config("nodot = 3")
    with pytest.raises(ConfigError):
        parse_config("a.b = ")


def test_serialize_roundtrip():
    cfg = {"b.y": "2", "a.x": "1.5", "c.z": "path/with space.csv"}
    line = serialize_config(cfg)
    assert line.startswith("a.x=1.5; b.y=2")
    assert deserialize_config(line) == cfg


# a key or value that parse_config accepts: no '#', no line break, no '=' in a key
HEADER_TEXT = st.text(st.one_of(st.sampled_from(list("; =.,\t")),
                                st.characters(blacklist_categories=("Cs",),
                                              blacklist_characters="#")),
                      min_size=1, max_size=12).filter(lambda t: len((t + ".").splitlines()) == 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(HEADER_TEXT.filter(lambda t: "=" not in t), HEADER_TEXT), max_size=8))
def test_a_header_line_carries_every_config_it_can(items):
    cfg = parse_config("".join(f"{section}.{name} = {value}\n" for (section, value), name
                               in zip(items, map(str, range(len(items))))
                               if section.strip() and value.strip()))
    # the one thing a header line cannot carry, which ikm run and ikm sweep reject
    if any("; " in key + "=" + value for key, value in cfg.items()):
        return
    line = serialize_config(cfg)
    assert len(("# config: " + line).splitlines()) == 1
    assert deserialize_config(line) == cfg


def test_config_view_typed_getters():
    v = ConfigView({"a.f": "2.5", "a.i": "7", "a.list": "1,2,3"})
    assert v.get_float("a.f") == 2.5
    assert v.get_int("a.i") == 7
    assert v.get_float_list("a.list") == [1.0, 2.0, 3.0]
    assert v.get_str("a.missing", "dflt") == "dflt"
    with pytest.raises(ConfigError):
        v.get_float("a.missing")
    with pytest.raises(ConfigError):
        v.get_int("a.f")


# --------------------------------------------------------------------------
# run command


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


QUAD_RUN = """
problem.kind = quadratic
problem.dim = 20
problem.mu = 1
problem.L = 10
problem.seed = 2
algorithm.scheme = gradient
schedule.alpha = 0.0
schedule.lambda = 1.0
stopping.max_iters = 5000
stopping.residual_tol = 1e-11
output.trace = {trace}
"""


def test_run_quadratic_picard_converges(tmp_path):
    cfg = tmp_path / "run.cfg"
    trace = tmp_path / "out.csv"
    write(cfg, QUAD_RUN.format(trace=trace))
    buf = io.StringIO()
    code = cli.cmd_run(str(cfg), out=buf)
    assert code == cli.EXIT_OK
    lines = trace.read_text().splitlines()
    assert lines[0] == "# ikm-trace-v2"
    assert lines[1].startswith("# config: ")
    assert lines[2].startswith("# derived: ")
    assert lines[3] == cli.TRACE_COLUMNS
    last = lines[-1].split(",")
    assert float(last[1]) <= 1e-11


def test_run_csv_is_byte_stable(tmp_path):
    cfg = tmp_path / "run.cfg"
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    write(cfg, QUAD_RUN.format(trace=t1))
    cli.cmd_run(str(cfg), out=io.StringIO())
    write(cfg, QUAD_RUN.format(trace=t2))
    cli.cmd_run(str(cfg), out=io.StringIO())
    b1, b2 = t1.read_bytes(), t2.read_bytes()
    assert b1.replace(str(t1).encode(), b"") == b2.replace(str(t2).encode(), b"")


def test_run_divergent_schedule_exits_3(tmp_path):
    cfg = tmp_path / "div.cfg"
    trace = tmp_path / "div.csv"
    write(cfg, QUAD_RUN.format(trace=trace).replace("schedule.lambda = 1.0",
                                                    "schedule.lambda = 2.5"))
    buf = io.StringIO()
    code = cli.cmd_run(str(cfg), out=buf)
    assert code == cli.EXIT_DIVERGED
    assert "warning" in buf.getvalue()
    assert len(trace.read_text().splitlines()) > 10  # partial trace written


def test_run_max_iters_exits_2(tmp_path):
    cfg = tmp_path / "short.cfg"
    trace = tmp_path / "short.csv"
    text = QUAD_RUN.format(trace=trace).replace("stopping.max_iters = 5000",
                                                "stopping.max_iters = 3")
    write(cfg, text)
    assert cli.cmd_run(str(cfg), out=io.StringIO()) == cli.EXIT_MAX_ITERS


def test_run_missing_config_is_usage_error():
    assert cli.main(["run", "/nonexistent/path.cfg"]) == cli.EXIT_USAGE


def test_run_bad_scheme_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    write(cfg, QUAD_RUN.format(trace=tmp_path / "x.csv").replace(
        "algorithm.scheme = gradient", "algorithm.scheme = pd"))
    assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE


@pytest.mark.parametrize("schedule", [
    "schedule.lambda_kind = table\nschedule.lambda_table = nan,0.9",
    "schedule.alpha_kind = table\nschedule.alpha_table = nan,0.1",
])
def test_run_nan_schedule_entry_is_usage_error(tmp_path, capsys, schedule):
    # rejected before any run line, not run into a divergence (exit 3)
    cfg = tmp_path / "nan.cfg"
    trace = tmp_path / "nan.csv"
    write(cfg, QUAD_RUN.format(trace=trace) + schedule + "\n")
    assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert not trace.exists()


@pytest.mark.parametrize("stopping", [
    "stopping.residual_tol = nan",
    "stopping.stall_tol = -1",
    "stopping.stall_tol = nan",
])
def test_run_bad_stopping_tolerance_is_usage_error(tmp_path, capsys, stopping):
    # a nan residual_tol or a negative stall_tol used to run to max_iters (exit 2)
    cfg = tmp_path / "tol.cfg"
    trace = tmp_path / "tol.csv"
    write(cfg, QUAD_RUN.format(trace=trace) + stopping + "\n")
    assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "must be >= 0" in err
    assert not trace.exists()


LASSO_RUN = """
problem.kind = lasso
problem.m = 40
problem.n = 100
problem.sparsity = 0.1
problem.mu_reg = 0.1
problem.seed = 1
algorithm.scheme = fb
schedule.alpha = 0.2
schedule.lambda = 0.5
stopping.max_iters = 3000
stopping.residual_tol = 1e-12
output.trace = {trace}
output.checks = ck,descent
"""


def test_run_then_certify_roundtrip(tmp_path):
    cfg = tmp_path / "lasso.cfg"
    trace = tmp_path / "lasso.csv"
    write(cfg, LASSO_RUN.format(trace=trace))
    buf = io.StringIO()
    assert cli.cmd_run(str(cfg), out=buf) == cli.EXIT_OK
    assert "check ck: PASS" in buf.getvalue()
    assert "check descent: PASS" in buf.getvalue()
    buf2 = io.StringIO()
    assert cli.cmd_certify(str(trace), out=buf2) == cli.EXIT_OK
    text = buf2.getvalue()
    assert "Ck monotone: PASS" in text
    assert "descent: PASS" in text


def test_certify_flags_corrupted_trace(tmp_path):
    cfg = tmp_path / "lasso.cfg"
    trace = tmp_path / "lasso.csv"
    write(cfg, LASSO_RUN.format(trace=trace))
    cli.cmd_run(str(cfg), out=io.StringIO())
    lines = trace.read_text().splitlines()
    # corrupt dist_to_ref of a mid-trace row
    row = lines[100].split(",")
    row[DIST] = "%.17g" % (float(row[DIST]) + 1.0)
    lines[100] = ",".join(row)
    trace.write_text("\n".join(lines) + "\n")
    buf = io.StringIO()
    assert cli.cmd_certify(str(trace), out=buf) == cli.EXIT_CHECK_FAILED
    assert "FAIL" in buf.getvalue()


# --------------------------------------------------------------------------
# trace I/O


# the field of dist_to_ref in a v2 row
DIST = cli.TRACE_FIELDS.index("dist_to_ref")


# the header of an ikm-trace-v1 file, whose derived columns a Trace no longer has
V1_HEADER = ("k,residual,step,nu_k,delta_k,Delta_k,C_k,dist_to_ref,k_step_sq,k_res_sq,"
             "objective,rate_bound")


def reference_trace_text(trace, config, derived=None, fields=cli.TRACE_FIELDS, version="v2"):
    """ikm-trace-v2 written field by field, as a row writer would, with a
    ``# derived:`` line when ``derived`` is given; with
    ``fields=V1_HEADER.split(",")`` and ``version="v1"``, an ikm-trace-v1
    whose derived fields are empty (the reader stops at its header)."""
    def fmt(x):
        return "" if x is None else "%.17g" % x

    lines = [f"# ikm-trace-{version}", "# config: " + serialize_config(config)]
    lines += ["# derived: " + serialize_config(derived)] if derived else []
    lines.append(",".join(fields))
    cols = [[None] * len(trace) if col is None else col.tolist()
            for col in (getattr(trace, name, None) for name in fields)]
    for k, *values in zip(*cols):
        lines.append(",".join([str(k)] + [fmt(v) for v in values]))
    return "\n".join(lines) + "\n"


def v1_trace_text(trace, config):
    return reference_trace_text(trace, config, None, V1_HEADER.split(","), "v1")


def trace_for(cfg, residual, step, dist_to_ref=None, objective=None):
    """The trace of these measured columns under ``cfg``'s schedule, with
    its rate bound from ``cfg``'s q and xi, as a run under that config
    records it."""
    schedule, xi = cli.read_schedule(ConfigView(cfg))
    trace = engine.Trace(schedule, k=np.arange(1, residual.size + 1), residual=residual,
                         step=step, dist_to_ref=dist_to_ref, objective=objective)
    q = cli._derived_constant("config", ConfigView(cfg), "derived.q_factor")
    trace.rate_bound = cli.rate_bound_column(trace, schedule, q, xi)
    return trace


EDGE_VALUES = [-0.0, 0.0, float("inf"), -float("inf"), float("nan"), 5e-324, -5e-324, 1e308,
               -1e308, 2.2250738585072014e-308, 0.1, 1.0 / 3.0, 12345678901234567.0]
# a schedule whose derived columns are not trivial; with q, the rate bound
IO_CFG = {"a.x": "1", "schedule.alpha": "0.25", "schedule.lambda": "0.75"}
FULL_CFG = dict(IO_CFG, **{"derived.q_factor": "0.5"})


def edge_trace(n):
    gen = np.random.default_rng(7)
    with np.errstate(invalid="ignore", over="ignore"):
        draws = {name: gen.choice(EDGE_VALUES, n) * gen.choice([1.0, 1e-3, 7.5], n)
                 for name in ("residual", "step", "dist_to_ref")}
    # objective and rate_bound (no q in the config) stay absent, i.e. empty fields
    return trace_for(IO_CFG, **draws)


@pytest.mark.parametrize("n", [0, 1, 5, 2500])
def test_write_trace_matches_per_field_formatter(tmp_path, n):
    trace = edge_trace(n)
    outcome = {"run.status": "max_iters"}
    path = tmp_path / "edge.csv"
    cli.write_trace(str(path), trace, IO_CFG, outcome)
    assert path.read_text(encoding="utf-8") == reference_trace_text(trace, IO_CFG, outcome)
    back, cfg, derived, consistency, _, _ = cli.read_trace(str(path))
    assert cfg == IO_CFG and derived == outcome and len(back) == n
    assert consistency == engine.Verdict("consistency", "PASS", n)
    if n:  # a header-only file has no columns to compare
        assert_same_trace(back, trace)  # bit for bit, the sign of zero and nan included
    again = tmp_path / "again.csv"
    cli.write_trace(str(again), back, cfg, derived)
    assert again.read_bytes() == path.read_bytes()


def test_read_trace_rejects_a_column_empty_in_one_chunk_only(tmp_path):
    path = tmp_path / "edge.csv"
    cli.write_trace(str(path), edge_trace(2500), IO_CFG)
    lines = path.read_text().splitlines()
    for i in range(3, 3 + engine.ROW_CHUNK):  # dist_to_ref of every row the first chunk parses
        row = lines[i].split(",")
        row[DIST] = ""
        lines[i] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="dist_to_ref mixes empty and filled"):
        cli.read_trace(str(path))


def test_trace_write_read_write_is_byte_identical_on_a_run(tmp_path):
    cfg = tmp_path / "rate.cfg"
    trace = tmp_path / "rate.csv"
    text = QUAD_RUN.format(trace=trace).replace("schedule.alpha = 0.0", "schedule.alpha = 0.05")
    write(cfg, text.replace("schedule.lambda = 1.0", "schedule.lambda = 0.9"))
    assert cli.cmd_run(str(cfg), out=io.StringIO()) == cli.EXIT_OK
    rows, config, derived, _, _, _ = cli.read_trace(str(trace))
    assert len(rows) > 100 and rows.rate_bound is not None and rows.objective is not None
    assert trace.read_text(encoding="utf-8") == reference_trace_text(rows, config, derived)
    again = tmp_path / "again.csv"
    cli.write_trace(str(again), rows, config, derived)
    assert again.read_bytes() == trace.read_bytes()


@pytest.mark.parametrize("edit, message", [
    (lambda row: row[:-1], "malformed row"),  # one field short
    (lambda row: row + [""], "malformed row"),  # one field too many
    (lambda row: row[:2] + ["0.5x"] + row[3:], "column step"),  # not a number
    (lambda row: row[:DIST] + [""] + row[DIST + 1:], "dist_to_ref mixes empty and filled"),
    (lambda row: [""] + row[1:], "column k"),
    (lambda row: ["0"] + row[1:], "column k must be 1, 2, ..., n"),
    # the next row's k: a gap here and a repeat there
    (lambda row: [str(int(row[0]) + 1)] + row[1:], "column k must be 1, 2, ..., n"),
    (lambda row: ["1" + "0" * 30] + row[1:], "column k: int too big"),  # beyond int64
])
def test_read_trace_rejects_malformed_rows(tmp_path, edit, message):
    cfg = tmp_path / "lasso.cfg"
    trace = tmp_path / "lasso.csv"
    write(cfg, LASSO_RUN.format(trace=trace))
    cli.cmd_run(str(cfg), out=io.StringIO())
    lines = trace.read_text().splitlines()
    lines[50] = ",".join(edit(lines[50].split(",")))
    trace.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=message):
        cli.read_trace(str(trace))
    assert cli.main(["certify", str(trace)]) == cli.EXIT_USAGE


def full_trace(n):
    """A trace of n rows under ``FULL_CFG`` with every column filled by 17-digit floats."""
    gen = np.random.default_rng(11)
    return trace_for(FULL_CFG, *(gen.standard_normal(n) * 1e-3 for _ in range(4)))


def test_read_trace_holds_one_chunk_of_text(tmp_path):
    path = tmp_path / "long.csv"
    trace = full_trace(10 * engine.ROW_CHUNK + 7)
    cli.write_trace(str(path), trace, FULL_CFG)
    columns = sum(getattr(trace, name).nbytes for name in engine.STORED_COLUMNS)
    tracemalloc.start()
    try:
        back, *_ = cli.read_trace(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_trace(back, trace)
    # the columns as chunks and joined, plus one chunk of lines and tokens
    assert peak < 3 * columns


@pytest.mark.parametrize("row, message", [
    (-1, "malformed row"),  # the file's last row, in the last, partial chunk
    # the first row of the last chunk; the id does not depend on the chunk size
    pytest.param(3 + 2 * engine.ROW_CHUNK, "malformed row",
                 id="first-row-of-last-chunk-malformed row"),
    (-2, "column residual"),  # a bad token in the last chunk
])
def test_read_trace_rejects_a_bad_row_in_the_last_chunk(tmp_path, row, message):
    path = tmp_path / "t.csv"
    cli.write_trace(str(path), full_trace(2 * engine.ROW_CHUNK + 5), FULL_CFG)
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    lines[row] = ",".join(fields[:-1] if message == "malformed row" else
                          fields[:1] + ["1.0.0"] + fields[2:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=message):
        cli.read_trace(str(path))


@pytest.mark.parametrize("edit", [
    lambda lines: [line + "\r" for line in lines],  # CRLF line endings
    # blank, whitespace and comment lines between rows and after the last
    lambda lines: [x for i, line in enumerate(lines)
                   for x in ([line, "", "# note", "   "] if i % 700 == 5 else [line])]
    + ["", "#"],
    lambda lines: lines[:1] + ["# config: a.x=2"] + lines[1:],  # the last config line wins
])
def test_read_trace_skips_what_the_format_allows(tmp_path, edit):
    path = tmp_path / "t.csv"
    trace = full_trace(2 * engine.ROW_CHUNK + 5)
    cli.write_trace(str(path), trace, FULL_CFG)
    lines = edit(path.read_text().splitlines())
    path.write_bytes(("\n".join(lines) + "\n").encode())
    back, cfg, _, _, _, _ = cli.read_trace(str(path))
    assert_same_trace(back, trace)
    assert cfg == FULL_CFG


@pytest.mark.parametrize("text", [
    "# ikm-trace-v1\n# config: a.x=1\n\n# no header follows\n",
    "# ikm-trace-v1\n1,2,3\n" + V1_HEADER + "\n",  # the header must come first
    "# ikm-trace-v2\n# config: a.x=1\n\n# no header follows\n",
    "# ikm-trace-v2\n1,2,3\n" + cli.TRACE_COLUMNS + "\n",
    "",
])
def test_read_trace_requires_the_header_first(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match="missing column header"):
        cli.read_trace(str(path))
    assert cli.main(["certify", str(path)]) == cli.EXIT_USAGE


INFEASIBLE_RUN = """
problem.kind = quadratic
problem.dim = 20
problem.mu = 1
problem.L = 10
problem.seed = 3
algorithm.scheme = proximal
algorithm.rho = 1
schedule.alpha = 0.9
schedule.lambda = 0.99
stopping.max_iters = 3000
stopping.residual_tol = 1e-13
output.trace = {trace}
output.checks = ck,descent
"""


def test_run_failed_check_exits_1(tmp_path):
    cfg = tmp_path / "infeasible.cfg"
    trace = tmp_path / "infeasible.csv"
    write(cfg, INFEASIBLE_RUN.format(trace=trace))
    buf = io.StringIO()
    assert cli.cmd_run(str(cfg), out=buf) == cli.EXIT_CHECK_FAILED
    text = buf.getvalue()
    assert "status=converged" in text
    assert "check ck: FAIL at k=" in text
    assert cli.cmd_certify(str(trace), out=io.StringIO()) == cli.EXIT_CHECK_FAILED


def test_run_quasi_contractive_fills_rate_bound(tmp_path):
    cfg = tmp_path / "rate.cfg"
    trace = tmp_path / "rate.csv"
    text = QUAD_RUN.format(trace=trace).replace("schedule.alpha = 0.0",
                                                "schedule.alpha = 0.05")
    text = text.replace("schedule.lambda = 1.0", "schedule.lambda = 0.9")
    write(cfg, text)
    assert cli.cmd_run(str(cfg), out=io.StringIO()) == cli.EXIT_OK
    rows, _, derived, _, _, _ = cli.read_trace(str(trace))
    assert "derived.q_factor" in derived
    assert rows[0].rate_bound == pytest.approx(rows[0].dist_to_ref ** 2, rel=1e-12)
    assert rows.rate_bound is not None
    assert (rows.dist_to_ref ** 2 <= rows.rate_bound + 1e-10).all()
    buf = io.StringIO()
    assert cli.cmd_certify(str(trace), out=buf) == cli.EXIT_OK
    assert "contraction: PASS" in buf.getvalue()
    assert "product bound: PASS" in buf.getvalue()


@pytest.mark.parametrize("alpha, q, xi", [
    (0.05, 0.999, 1.0),  # Q = 0.998: no power underflows over the rows
    (0.0, 0.5, 1.0),  # alpha^k is 0 from k = 1, Q^k underflows to 0
    (0.1, 0.2, 1.0),  # Q = 0.136: both powers pass through subnormals to 0
    (0.2, 0.9, 0.7),
])
def test_rate_bound_column_has_the_bits_of_rate_bound_per_row(alpha, q, xi):
    n = 13_396  # the rows of the quad-run workload's trace
    schedule = Schedule.constant(alpha, 0.9)
    trace = engine.Trace(schedule, k=np.arange(1, n + 1), residual=np.ones(n), step=np.ones(n),
                         dist_to_ref=np.full(n, 3.7))
    Q = cert.contraction_constant(0.9, q, xi)
    d1 = 3.7 ** 2
    want = np.array([cert.rate_bound(k - 1, alpha, Q, d1) for k in range(1, n + 1)])
    got = cli.rate_bound_column(trace, schedule, q, xi)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    if Q < 0.9:  # the bound ends at (0 - 0) / (alpha - Q) * d1 = -0.0
        assert Q ** n == 0.0 and want[-1] == 0.0 and np.signbit(want[-1])
    # a trace of the rows from k = 6 on starts its bound at its own first row
    tail = engine.Trace(schedule, **{name: getattr(trace, name)[5:]
                                     for name in ("k", "residual", "step", "dist_to_ref")})
    assert cli.rate_bound_column(tail, schedule, q, xi).tobytes() == want[5:].tobytes()


LASSO_SCHEDULE_RUN = """
problem.kind = lasso
problem.m = 20
problem.n = 50
problem.sparsity = 0.1
problem.mu_reg = 0.05
problem.seed = 1
algorithm.scheme = fb
{schedule}
stopping.max_iters = 50
output.trace = {trace}
"""


def _precheck(tmp_path, schedule):
    cfg = tmp_path / "run.cfg"
    write(cfg, LASSO_SCHEDULE_RUN.format(schedule=schedule, trace=tmp_path / "t.csv"))
    buf = io.StringIO()
    cli.cmd_run(str(cfg), out=buf)
    return buf.getvalue()


def test_sequence_precheck_uses_effective_relaxation(tmp_path):
    # fb at rho = 1/L is 2/3-averaged: lambda = 1.2 is eta = 0.8, feasible
    # at alpha = 0.1 in both forms
    constant = _precheck(tmp_path, "schedule.alpha = 0.1\nschedule.lambda = 1.2")
    relax = next(l for l in constant.splitlines() if l.startswith("relaxation("))
    assert relax.startswith("relaxation(eta=0.79999999999999993)")
    # constant from k = 2, on the same limit
    table = _precheck(tmp_path, "schedule.alpha_kind = table\nschedule.alpha_table = 0.05,0.1\n"
                                "schedule.lambda_kind = table\nschedule.lambda_table = 1.2")
    seq, limit = table.splitlines()[:2]
    assert seq.startswith("relaxation_seq(eta_k=gamma*lambda_k, gamma=0.66666666666666663; "
                          "k=2..2): max=")
    assert seq.endswith(" at k=2 PASS")
    assert limit == relax
    for out in (constant, table):
        assert "FAIL" not in out and "warning" not in out


def test_sequence_precheck_fails_infeasible_table(tmp_path):
    # alpha = 0.3 at eta = 0.8 fails the relaxation bound in either form:
    # at k = 2, 0.39 + 0.25 * 0.21 - 0.25 * 0.8 = 0.2425, and at the limit
    out = _precheck(tmp_path, "schedule.alpha_kind = table\nschedule.alpha_table = 0.2,0.3\n"
                              "schedule.lambda_kind = table\nschedule.lambda_table = 1.2")
    seq, limit = out.splitlines()[:2]
    assert seq.startswith("relaxation_seq(") and seq.endswith(" at k=2 FAIL")
    assert limit.startswith("relaxation(eta=0.79999999999999993)") and limit.endswith(" FAIL")
    assert "warning: schedule fails the feasibility certificates" in out


def at(schedule, k):
    """``(alpha_k, lambda_k)`` of a schedule as Python floats."""
    a, lam = schedule.columns(np.array([k]))
    return a.item(), lam.item()


@pytest.mark.parametrize("alphas, lambdas", [
    ([0.0, 0.1, 0.2, 0.2, 0.3, 0.3, 0.35], [0.5]),  # the largest, 0.0 at k = N, fails
    ([0.0, 0.1], [0.9, 0.5, 0.9, 0.5, 0.9, 0.5, 0.9]),  # a tie at k = 4 and 6
    ([0.0] * 8, [0.5, 0.5, 1e-310, 0.5, 0.5, 1e-310, 0.5, 0.5]),  # nan at k = 3 and 6
])
@pytest.mark.parametrize("chunk", [1, 3, cli.SEQ_CHUNK])
def test_sequence_precheck_line_gives_the_first_largest_value(monkeypatch, alphas, lambdas,
                                                              chunk):
    schedule = Schedule.table(alphas, lambdas)
    ks = range(2, schedule.const_from + 1)
    values = [cert.relaxation_seq_term(*at(schedule, k), *at(schedule, k - 1)) for k in ks]
    nans = [k for k, v in zip(ks, values) if v != v]
    worst_k = nans[0] if nans else ks[values.index(max(values))]
    worst = values[worst_k - 2]
    monkeypatch.setattr(cli, "SEQ_CHUNK", chunk)
    buf = io.StringIO()
    cli.feasibility_summary(schedule, OperatorHandle(apply=lambda x: x), 1.0, buf)
    assert buf.getvalue().splitlines()[0] == (
        f"relaxation_seq(eta_k=lambda_k; k=2..{ks[-1]}): max={cli._fmt(worst)} at k={worst_k} "
        f"{'PASS' if worst < 0.0 else 'FAIL'}")


def test_precheck_fails_a_ramp_whose_limit_is_infeasible(tmp_path):
    # alpha ramps to 0.6 over 10**6 steps, and the run converges in about
    # 130, long before alpha leaves the feasible region; the certificate
    # covers the whole schedule all the same
    cfg = tmp_path / "ramp.cfg"
    trace = tmp_path / "ramp.csv"
    write(cfg, QUAD_RUN.format(trace=trace).replace(
        "schedule.alpha = 0.0", "schedule.alpha_kind = ramp\nschedule.alpha_end = 0.6\n"
        "schedule.alpha_ramp_iters = 1000000").replace(
        "schedule.lambda = 1.0", "schedule.lambda = 0.9").replace(
        "stopping.max_iters = 5000", "stopping.max_iters = 100000"))
    buf = io.StringIO()
    assert cli.cmd_run(str(cfg), out=buf) == cli.EXIT_OK
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("relaxation_seq(eta_k=gamma*lambda_k, gamma=")
    assert "; k=2..1000000): max=" in lines[0] and lines[0].endswith(" FAIL")
    assert lines[1].startswith("relaxation(eta=") and lines[1].endswith(" FAIL")
    assert "warning: schedule fails the feasibility certificates; running anyway" in lines
    assert cli.read_trace(str(trace))[2]["derived.warning"] == "1"


@pytest.mark.parametrize("schedule", [
    "schedule.alpha_kind = ramp\nschedule.alpha_end = 0.1\nschedule.alpha_ramp_iters = 5\n",
    "schedule.alpha_kind = table\nschedule.alpha_table = 0,0.1\n"
    "schedule.lambda_kind = table\nschedule.lambda_table = 0.9,0.8\n",
])
def test_sequence_precheck_is_the_same_for_a_one_iteration_run(tmp_path, schedule):
    # the certificate is the schedule's, whatever the run's budget
    certificates = []
    for max_iters, code in ((1, cli.EXIT_MAX_ITERS), (5000, cli.EXIT_OK)):
        cfg = tmp_path / f"run{max_iters}.cfg"
        trace = tmp_path / f"run{max_iters}.csv"
        text = QUAD_RUN.format(trace=trace).replace(
            "stopping.max_iters = 5000", f"stopping.max_iters = {max_iters}")
        # a parameter set by its kind reads no constant key: drop the unread one
        for name in ("alpha", "lambda"):
            if f"schedule.{name}_kind" in schedule:
                text = re.sub(f"schedule\\.{name} = .*\n", "", text)
        write(cfg, text + schedule)
        buf = io.StringIO()
        assert cli.cmd_run(str(cfg), out=buf) == code
        out = buf.getvalue()
        certificates.append((out[:out.index("status=")],
                             cli.read_trace(str(trace))[2]["derived.warning"]))
    assert certificates[0] == certificates[1]
    assert certificates[0][0].startswith("relaxation_seq(")


@pytest.mark.parametrize("text, keys", [
    # a misspelt key: the run would go at lambda 1 and pass its checks
    (QUAD_RUN + "schedule.lamda = 0.5\n", "schedule.lamda"),
    # a ramp reads no constant alpha
    (QUAD_RUN.replace("schedule.alpha = 0.0", "schedule.alpha = 0.3\nschedule.alpha_kind = ramp\n"
                      "schedule.alpha_end = 0.1\nschedule.alpha_ramp_iters = 5"),
     "schedule.alpha"),
    # the primal-dual steps are tau and sigma
    ("problem.kind = tv1d\nproblem.n = 30\nalgorithm.scheme = pd\nalgorithm.rho = 0.5\n"
     "output.trace = {trace}\n", "algorithm.rho"),
    (QUAD_RUN + "zz.last = 1\noutput.check = ck\n", "output.check, zz.last"),
], ids=["misspelt", "ramp-alpha", "pd-rho", "sorted"])
def test_run_rejects_keys_it_does_not_read(tmp_path, monkeypatch, capsys, text, keys):
    cfg = tmp_path / "unread.cfg"
    trace = tmp_path / "unread.csv"
    write(cfg, text.format(trace=trace))
    solved = []
    monkeypatch.setattr(problems.BenchmarkInstance, "fixed_point",
                        lambda *args, **steps: solved.append(args))
    capsys.readouterr()
    assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: config keys that this command does not read: {keys}\n"
    assert solved == [] and not trace.exists()


def test_run_rejects_unknown_check_before_running(tmp_path):
    cfg = tmp_path / "typo.cfg"
    trace = tmp_path / "typo.csv"
    write(cfg, QUAD_RUN.format(trace=trace) + "output.checks = ck,decent\n")
    with pytest.raises(ConfigError, match="decent; choose from none, " + ", ".join(cli.CHECKS)):
        cli.cmd_run(str(cfg), out=io.StringIO())
    assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
    assert not trace.exists()


ALL_CHECKS = "output.checks = ck,descent,contraction,product,small_o\n"
CERTIFIED = QUAD_RUN.replace("schedule.alpha = 0.0", "schedule.alpha = 0.05").replace(
    "schedule.lambda = 1.0", "schedule.lambda = 0.9")
RAMP_TABLE = QUAD_RUN.replace("schedule.alpha = 0.0", "schedule.alpha_kind = ramp\n"
                              "schedule.alpha_end = 0.1\nschedule.alpha_ramp_iters = 30").replace(
    "schedule.lambda = 1.0", "schedule.lambda_kind = table\nschedule.lambda_table = 0.5,0.7,0.9")


def _run_verdicts(text):
    """``ikm run`` check lines -> {check (small_o by part): PASS | FAIL | SKIPPED}."""
    verdicts = {}
    for line in text.splitlines():
        if not line.startswith("check "):
            continue
        name, verdict = line[len("check "):].split(": ", 1)
        if name == "small_o":
            for part in verdict.split("; "):
                label, part_verdict = part.split(": ", 1)
                verdicts["small_o " + label.split("[")[0]] = part_verdict.split()[0]
        else:
            verdicts[name] = verdict.split()[0]
    return verdicts


def _certify_verdicts(text):
    """The same map from ``ikm certify`` lines."""
    names = {"Ck monotone": "ck", "descent": "descent", "contraction": "contraction",
             "product bound": "product"}
    verdicts = {}
    for line in text.splitlines():
        label, verdict = line.split(": ", 1)
        if label.startswith("small-o k*"):
            verdicts["small_o " + label[len("small-o k*"):].split()[0]] = verdict.split()[0]
            continue
        verdicts[names[label]] = verdict.split()[0]
        if label == "contraction" and verdict.startswith("SKIPPED"):
            verdicts["product"] = "SKIPPED"  # one line covers both replays
    return verdicts


@pytest.mark.parametrize("config, run_code, expect", [
    (CERTIFIED, cli.EXIT_OK, {"PASS"}),
    (CERTIFIED + "run.p_ref = none\n", cli.EXIT_OK, {"PASS", "SKIPPED"}),
    (INFEASIBLE_RUN.replace("output.checks = ck,descent\n", ""), cli.EXIT_CHECK_FAILED,
     {"PASS", "FAIL"}),
    (RAMP_TABLE, cli.EXIT_OK, {"PASS"}),
])
def test_run_and_certify_agree_per_check(tmp_path, config, run_code, expect):
    cfg = tmp_path / "run.cfg"
    trace = tmp_path / "run.csv"
    write(cfg, config.format(trace=trace) + ALL_CHECKS)
    run_out, certify_out = io.StringIO(), io.StringIO()
    assert cli.cmd_run(str(cfg), out=run_out) == run_code
    certify_code = cli.cmd_certify(str(trace), out=certify_out)
    run_verdicts = _run_verdicts(run_out.getvalue())
    assert run_verdicts == _certify_verdicts(certify_out.getvalue())
    assert len(run_verdicts) == 6 and set(run_verdicts.values()) == expect
    assert certify_code == (cli.EXIT_CHECK_FAILED if "FAIL" in expect else cli.EXIT_OK)
    if "SKIPPED" in expect:  # no reference point: every replay that needs it is skipped
        assert {name for name, v in run_verdicts.items() if v == "SKIPPED"} == {
            "ck", "descent", "contraction", "product"}


def test_certify_rejects_a_trace_with_rows_deleted(tmp_path, capsys):
    # without the rows k = 50..59 the replays would pair rows 49 and 60 as
    # if they were one step apart; at seed 1 every one of them passes so
    cfg = tmp_path / "quad.cfg"
    trace = tmp_path / "quad.csv"
    write(cfg, CERTIFIED.format(trace=trace).replace("problem.seed = 2", "problem.seed = 1"))
    assert cli.cmd_run(str(cfg), out=io.StringIO()) == cli.EXIT_OK
    lines = trace.read_text().splitlines()
    head = 4  # three comment lines and the column header
    assert len(lines) > head + 60 and lines[head + 49].startswith("50,")
    del lines[head + 49:head + 59]
    trace.write_text("\n".join(lines) + "\n")
    assert cli.main(["certify", str(trace)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {trace}: column k must be 1, 2, ..., n, one row per step\n"


@pytest.mark.parametrize("gamma", ["nan", "0", "-1", "2", "inf"])
def test_certify_rejects_a_gamma_outside_0_1(tmp_path, capsys, gamma):
    # the replays divide by gamma * lambda_k, and a gamma outside (0, 1], nan
    # included, is no averagedness constant: a usage error, not a verdict
    cfg = tmp_path / "quad.cfg"
    trace = tmp_path / "quad.csv"
    write(cfg, CERTIFIED.format(trace=trace).replace("stopping.max_iters = 5000",
                                                     "stopping.max_iters = 300"))
    cli.cmd_run(str(cfg), out=io.StringIO())
    text = trace.read_text()
    assert re.search("; derived.gamma=[^;]+;", text)
    trace.write_text(re.sub("; derived.gamma=[^;]+;", f"; derived.gamma={gamma};", text))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["certify", str(trace)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {trace}: derived.gamma must lie in (0, 1]\n"


@pytest.mark.parametrize("q", ["nan", "0", "-1", "2", "inf", "x"])
def test_certify_rejects_a_q_factor_outside_0_1(tmp_path, capsys, q):
    # the contraction replays raise q to powers; a q outside (0, 1], or no
    # number, is a usage error that names the file and the key
    cfg = tmp_path / "quad.cfg"
    trace = tmp_path / "quad.csv"
    write(cfg, CERTIFIED.format(trace=trace).replace("stopping.max_iters = 5000",
                                                     "stopping.max_iters = 300"))
    cli.cmd_run(str(cfg), out=io.StringIO())
    text = trace.read_text()
    assert re.search("; derived.q_factor=[^;]+;", text)
    trace.write_text(re.sub("; derived.q_factor=[^;]+;", f"; derived.q_factor={q};", text))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["certify", str(trace)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    why = ("key 'derived.q_factor': not a number: 'x'" if q == "x"
           else "derived.q_factor must lie in (0, 1]")
    assert out == "" and err == f"error: {trace}: {why}\n"


QUAD_RUN_WORKLOAD = """
problem.kind = quadratic
problem.dim = 50
problem.mu = 0.01
problem.L = 10
problem.seed = 1
algorithm.scheme = gradient
schedule.alpha = 0.05
schedule.lambda = 0.9
stopping.max_iters = 100000
stopping.residual_tol = 1e-12
output.trace = {trace}
"""


def test_run_and_certify_form_no_full_length_lyapunov_column(tmp_path, monkeypatch):
    cfg = tmp_path / "quad.cfg"
    trace = tmp_path / "quad.csv"
    write(cfg, QUAD_RUN_WORKLOAD.format(trace=trace) + ALL_CHECKS)
    sizes = []  # the rows of C_k each call of the ck replay's helper forms
    ck_rows = engine._ck_rows

    def recording(trace, lo, hi):
        values = ck_rows(trace, lo, hi)
        sizes.append(values.size)
        return values

    monkeypatch.setattr(engine, "_ck_rows", recording)
    assert cli.cmd_run(str(cfg), out=io.StringIO()) == cli.EXIT_OK
    rows, *_ = cli.read_trace(str(trace))
    assert len(rows) > 10_000
    runs = len(sizes)
    assert cli.cmd_certify(str(trace), out=io.StringIO()) == cli.EXIT_OK
    # the ck replay of each command forms C_k a chunk at a time, with one
    # row of look-ahead
    assert 0 < runs < len(sizes) and max(sizes) <= engine.ROW_CHUNK + 1


def test_certify_rejects_a_v1_trace(tmp_path, capsys):
    # no writer has made ikm-trace-v1 since v2; the reader no longer takes it
    cfg = tmp_path / "run.cfg"
    trace = tmp_path / "run.csv"
    write(cfg, CERTIFIED.format(trace=trace))
    cli.cmd_run(str(cfg), out=io.StringIO())
    rows, config, *_ = cli.read_trace(str(trace))
    v1 = tmp_path / "v1.csv"
    v1.write_text(v1_trace_text(rows, config), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["certify", str(v1)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "ikm-trace-v1" in err


def assert_same_trace(got, want):
    """Two traces hold the same stored columns by ``tobytes`` (or both lack
    one), the same gamma, and schedules with the same bits at their ks."""
    for name in engine.STORED_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.tobytes() == b.tobytes(), name
    assert got.gamma == want.gamma
    for a, b in zip(got.schedule.columns(got.k), want.schedule.columns(want.k)):
        assert a.tobytes() == b.tobytes()


def test_certify_flags_a_v2_rate_bound_that_disagrees(tmp_path):
    cfg = tmp_path / "run.cfg"
    trace = tmp_path / "run.csv"
    write(cfg, CERTIFIED.format(trace=trace))
    cli.cmd_run(str(cfg), out=io.StringIO())
    clean = io.StringIO()
    assert cli.cmd_certify(str(trace), out=clean) == cli.EXIT_OK
    lines = trace.read_text().splitlines()
    row = lines[11].split(",")  # k = 8
    row[-1] = "%.17g" % (2.0 * float(row[-1]))
    lines[11] = ",".join(row)
    trace.write_text("\n".join(lines) + "\n")
    buf = io.StringIO()
    assert cli.cmd_certify(str(trace), out=buf) == cli.EXIT_CHECK_FAILED
    assert buf.getvalue() == clean.getvalue() + "consistency: FAIL at k=[8]\n"



# one small run per generator, leaving some keys to their defaults, on each
# schedule kind; (config, exit code)
RERUN_CONFIGS = {
    "quadratic": ("problem.kind = quadratic\nproblem.dim = 8\nalgorithm.scheme = proximal\n"
                  "schedule.alpha = 0.1\nschedule.lambda = 0.9\n"
                  "output.checks = ck, descent,contraction,product,small_o\n", cli.EXIT_OK),
    "lasso": ("problem.kind = lasso\nproblem.m = 12\nproblem.n = 30\nproblem.seed = 4\n"
              "algorithm.scheme = fb\nschedule.alpha_kind = ramp\nschedule.alpha_end = 0.2\n"
              "schedule.alpha_ramp_iters = 20\nstopping.max_iters = 2000\n", cli.EXIT_OK),
    "tv1d": ("problem.kind = tv1d\nproblem.n = 30\nalgorithm.scheme = pd\n"
             "schedule.alpha_kind = table\nschedule.alpha_table = 0,0.1,0.2\n"
             "schedule.lambda_kind = table\nschedule.lambda_table = 1.2, 1.5\n"
             "output.checks = ck\n", cli.EXIT_OK),
    "three_term": ("problem.kind = three_term\nproblem.m = 12\nproblem.n = 30\n"
                   "algorithm.scheme = dy\nalgorithm.rho = 0.1\nschedule.lambda = 0.9\n"
                   "schedule.xi = 0.5\nstopping.stall_tol = 1e-9\n", cli.EXIT_MAX_ITERS),
    "feasibility": ("problem.kind = feasibility\nproblem.dim = 10\nalgorithm.scheme = dr\n"
                    "schedule.alpha = 0.2\nschedule.lambda = 1.38\nrun.p_ref = none\n"
                    "stopping.max_iters = 2\n", cli.EXIT_MAX_ITERS),
}

# the output.checks a trace's config line holds, when not none
RERUN_CHECKS = {"quadratic": "ck,descent,contraction,product,small_o", "tv1d": "ck"}


def config_line(path):
    """The ``# config:`` line of an output file, as config text."""
    line = next(line for line in path.read_text().splitlines() if line.startswith("# config: "))
    return "".join(item + "\n" for item in line[len("# config: "):].split("; "))


@pytest.mark.parametrize("kind", sorted(RERUN_CONFIGS))
def test_a_trace_config_line_reruns_the_run(tmp_path, capsys, kind):
    # the line used to mix the run's outcome (derived.*, run.status) with its
    # inputs and to name problem.L problem.L_smooth: a rerun exited 64
    text, code = RERUN_CONFIGS[kind]
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    write(tmp_path / "first.cfg", text + f"output.trace = {first}\n")
    assert cli.main(["run", str(tmp_path / "first.cfg")]) == code
    out = capsys.readouterr().out
    inputs = config_line(first)
    assert f"output.checks={RERUN_CHECKS.get(kind, 'none')}\n" in inputs
    write(tmp_path / "again.cfg", inputs + f"output.trace = {again}\n")
    assert cli.main(["run", str(tmp_path / "again.cfg")]) == code
    assert capsys.readouterr().out == out.replace(str(first), str(again))
    assert again.read_bytes() == first.read_bytes()
    assert all(f"problem.{name}=" in inputs for name in cli.PROBLEMS[kind])


def test_a_sweep_table_config_line_reruns_the_sweep(tmp_path, capsys):
    # the line named no problem parameter but the kind, and no entry
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    write(tmp_path / "first.cfg", "problem.kind = quadratic\nproblem.dim = 10\nproblem.seed = 3\n"
          "algorithm.scheme = gradient\nschedule.xi = 0.8\nstopping.residual_tol = 1e-9\n"
          "sweep.1.alpha = 0.05\nsweep.1.lambda = 0.9\nsweep.1.label = inertial = 0.05\n"
          "sweep.2.alpha = 0.1\nsweep.2.lambda = 0.5\nsweep.2.xi = 1\n"
          "sweep.10.alpha = 0\nsweep.10.lambda = 0.9\n" + f"output.table = {first}\n")
    assert cli.main(["sweep", str(tmp_path / "first.cfg")]) == cli.EXIT_OK
    out = capsys.readouterr().out
    inputs = config_line(first)
    assert "sweep.1.label=inertial = 0.05\n" in inputs and "problem.mu=1\n" in inputs
    write(tmp_path / "again.cfg", inputs + f"output.table = {again}\n")
    assert cli.main(["sweep", str(tmp_path / "again.cfg")]) == cli.EXIT_OK
    assert capsys.readouterr().out == out.replace(str(first), str(again))
    assert again.read_bytes() == first.read_bytes()
    # the two configured rows and the lambda = 0.9 baseline, then the added one
    assert [row.split(",")[0] for row in again.read_text().splitlines()[3:]] == [
        "inertial = 0.05", "s2", "s10", "baseline(lambda=0.5)"]


@pytest.mark.parametrize("kind", sorted(RERUN_CONFIGS))
def test_certify_reads_a_trace_whose_outcome_sits_in_its_config_line(tmp_path, kind):
    # the layout written before the outcome had a line of its own: one
    # '# config:' line holding derived.*, run.status and problem.L_smooth
    text, _ = RERUN_CONFIGS[kind]
    trace = tmp_path / "run.csv"
    write(tmp_path / "run.cfg", text + f"output.trace = {trace}\n")
    cli.main(["run", str(tmp_path / "run.cfg")])
    lines = trace.read_text().splitlines()
    assert lines[1].startswith("# config: ") and lines[2].startswith("# derived: ")
    config = deserialize_config(lines[1][len("# config: "):])
    header = {("problem.L_smooth" if key == "problem.L" else key): value
              for key, value in config.items() if key not in ("output.checks", "run.p_ref")}
    header.update(deserialize_config(lines[2][len("# derived: "):]))
    old = tmp_path / "old.csv"
    old.write_text("\n".join([lines[0], "# config: " + serialize_config(header)] + lines[3:])
                   + "\n")
    outs = []
    for path in (trace, old):
        buf = io.StringIO()
        outs.append((cli.cmd_certify(str(path), out=buf), buf.getvalue()))
    assert outs[1] == outs[0] and "derived.gamma" in cli.read_trace(str(old))[1]


def test_a_disagreeing_rate_bound_is_read_in_the_memory_of_an_agreeing_one(tmp_path, long_run):
    # the reader kept every k at which the file's rate_bound differs: with
    # derived.q_factor edited by one part in 10^12, 99,999 ks and a peak of
    # 8.22 columns of float64s, against 6.28 for the file that agrees
    run_trace, q = long_run
    trace = engine.Trace(run_trace.schedule, run_trace.gamma,
                         **{name: getattr(run_trace, name) for name in engine.STORED_COLUMNS})
    trace.rate_bound = cli.rate_bound_column(trace, trace.schedule, q, 1.0)
    peaks, verdicts = {}, {}
    for name, q_file in (("clean", q), ("edited", q * (1.0 + 1e-12))):
        path = tmp_path / f"{name}.csv"
        cli.write_trace(str(path), trace, {"schedule.alpha": "0.05", "schedule.lambda": "0.9"},
                        {"derived.gamma": cli._fmt(trace.gamma),
                         "derived.q_factor": cli._fmt(q_file)})
        tracemalloc.start()
        try:
            verdicts[name] = cli.read_trace(str(path))[3]
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    n = len(trace)
    assert verdicts["clean"] == engine.Verdict("consistency", "PASS", n)
    assert verdicts["edited"] == engine.Verdict("consistency", "FAIL", n, (2, 3, 4, 5, 6))
    assert peaks["edited"] <= peaks["clean"] + 0.1 * trace.k.nbytes

TV_RUN_WORKLOAD = """
problem.kind = tv1d
problem.n = 200
problem.mu_reg = 0.5
problem.seed = 1
algorithm.scheme = pd
schedule.alpha = 0.2
schedule.lambda = 1.0
stopping.max_iters = 100000
stopping.residual_tol = 1e-10
output.trace = {trace}
output.checks = ck,descent,small_o
"""


def _set_nan(path, k, columns):
    """Set ``columns`` of the trace row ``k`` of the file at ``path`` to nan."""
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("k,"))
    names = lines[head].split(",")
    row = lines[head + k].split(",")
    assert row[0] == str(k)
    for name in columns:
        row[names.index(name)] = "nan"
    lines[head + k] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload, columns, lines", [
    # every check that reads dist_to_ref fails at the rows that read row
    # 5001, C_5000 -> C_5001 the first of them; small_o reads no distance
    (QUAD_RUN_WORKLOAD + ALL_CHECKS, ["dist_to_ref"],
     ["Ck monotone: FAIL at k=5000", "descent: FAIL at k=[5000, 5001, 5002]",
      "contraction: FAIL at k=[5000, 5001, 5002]", "product bound: FAIL at k=[5000, 5001]",
      "small-o k*res^2 (prefix 12775): PASS", "small-o k*step^2 (prefix 12775): PASS"]),
    # C_5001 and the descent rows that read the step or residual of row 5001
    # fail, and each small_o prefix ends before the nan
    (TV_RUN_WORKLOAD, ["residual", "step"],
     ["Ck monotone: FAIL at k=5000", "descent: FAIL at k=[5000, 5001]",
      "contraction: SKIPPED (needs certified q, dist column, lambda <= 1)",
      "small-o k*res^2 (prefix 5000): PASS", "small-o k*step^2 (prefix 4999): PASS"]),
], ids=["quad-run-dist", "tv-residual-step"])
def test_certify_fails_a_workload_trace_with_a_nan_row(tmp_path, workload, columns, lines):
    # a nan compares false both ways: written as "lhs > rhs" a failing
    # predicate passed it, and every line printed PASS with exit 0
    cfg = tmp_path / "run.cfg"
    trace = tmp_path / "run.csv"
    write(cfg, workload.format(trace=trace))
    assert cli.cmd_run(str(cfg), out=io.StringIO()) == cli.EXIT_OK
    _set_nan(trace, 5001, columns)
    buf = io.StringIO()
    assert cli.cmd_certify(str(trace), out=buf) == cli.EXIT_CHECK_FAILED
    assert buf.getvalue().splitlines() == lines


ROUND_TRIP_SCHEDULES = {
    "constant": {"schedule.alpha": "0.05", "schedule.lambda": "{lam}"},
    "ramp": {"schedule.alpha_kind": "ramp", "schedule.alpha_end": "0.1",
             "schedule.alpha_ramp_iters": "30", "schedule.lambda_kind": "table",
             "schedule.lambda_table": "0.5,0.7,{lam}"},
    "table": {"schedule.alpha_kind": "table", "schedule.alpha_table": "0,0.02,0.04,0.05",
              "schedule.lambda": "{lam}"},
}
# (lambda, StoppingRule arguments) that end a run on a quadratic each way
ROUND_TRIP_ENDS = {
    "converged": ("0.9", (5000, 1e-11)),
    "max_iters": ("0.9", (40, 1e-11)),
    "stalled": ("0.9", (5000, 0.0, 1e-6)),
    "diverged": ("2.5", (5000, 0.0)),
}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(ROUND_TRIP_SCHEDULES)),
       end=st.sampled_from(sorted(ROUND_TRIP_ENDS)), with_ref=st.booleans(),
       with_objective=st.booleans(), dim=st.integers(2, 8), seed=st.integers(1, 20))
def test_v2_round_trip_gives_the_runs_trace(kind, end, with_ref, with_objective, dim, seed):
    lam, stop_args = ROUND_TRIP_ENDS[end]
    keys = {key: value.format(lam=lam) for key, value in ROUND_TRIP_SCHEDULES[kind].items()}
    view = ConfigView(keys)
    schedule, xi = cli.read_schedule(view)
    inst = problems.make_quadratic(dim, 1.0, 10.0, seed)
    op = inst.operator("gradient")
    objective = (lambda x: inst.objective(op.extract_solution(x))) if with_objective else None
    result = engine.run(op, inst.start_point("gradient"), schedule, StoppingRule(*stop_args),
                        p_ref=inst.reference_solution if with_ref else None,
                        objective=objective)
    assert result.status == end
    trace = result.rows
    trace.rate_bound = cli.rate_bound_column(trace, schedule, op.q_factor, xi)
    outcome = {"run.status": end, "derived.gamma": cli._fmt(op.gamma),
               "derived.q_factor": cli._fmt(op.q_factor)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        cli.write_trace(path, trace, view.read, outcome)
        back, cfg, derived, consistency, _, _ = cli.read_trace(path)
    assert cfg == view.read and derived == outcome and consistency.status == "PASS"
    assert (trace.rate_bound is not None) == (with_ref and kind == "constant" and lam == "0.9")
    assert_same_trace(back, trace)


@pytest.fixture(scope="module")
def long_run():
    """A converged 100,000-row run with every check passing, and its q."""
    inst = problems.make_quadratic(5, 0.01, 10.0, 1)
    op = inst.operator("gradient")
    res = engine.run(op, inst.start_point("gradient"), Schedule.constant(0.05, 0.9),
                     StoppingRule(100_000, 0.0), p_ref=inst.reference_solution)
    assert len(res.rows) == 100_000
    return res.rows, op.q_factor


def test_evaluate_checks_holds_one_report_at_a_time(long_run):
    trace, q = long_run
    tracemalloc.start()
    try:
        verdicts = cli.evaluate_checks(trace, cli.CHECKS, q, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {verdict.status for verdict in verdicts.values()} == {"PASS"}
    # chunks only: 0.042 columns; one squared column of small_o at a time
    # took 1.02, whole-column replays 12, and replays that kept lhs and rhs 2.04
    assert peak <= 0.05 * trace.k.nbytes


def test_read_and_check_a_long_v2_trace_in_its_stored_columns(tmp_path, long_run):
    # what ikm certify holds: the parsed trace, then one check at a time
    run_trace, q = long_run
    # a copy, whose rate_bound the fixture's trace does not get
    trace = engine.Trace(run_trace.schedule, run_trace.gamma,
                         **{name: getattr(run_trace, name) for name in engine.STORED_COLUMNS})
    trace.rate_bound = cli.rate_bound_column(trace, trace.schedule, q, 1.0)
    path = tmp_path / "long.csv"
    cli.write_trace(str(path), trace, {"schedule.alpha": "0.05", "schedule.lambda": "0.9"},
                    {"derived.gamma": cli._fmt(trace.gamma), "derived.q_factor": cli._fmt(q)})
    tracemalloc.start()
    try:
        back, _, _, _, q_back, xi = cli.read_trace(str(path))
        read_peak = tracemalloc.get_traced_memory()[1]
        verdicts = cli.evaluate_checks(back, cli.CHECKS, q_back, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (q_back, xi) == (q, 1.0)
    assert {verdict.status for verdict in verdicts.values()} == {"PASS"}
    n = len(trace)
    with np.errstate(over="ignore", invalid="ignore"):
        assert engine._ck_rows(back, 0, n).tobytes() == engine._ck_rows(trace, 0, n).tobytes()
    # in columns of 100,000 float64s, read_trace alone peaks at 6.18: its
    # five stored columns, each one buffer grown in place, and the
    # recomputed rate_bound.  Parsed chunks joined at the end, with the
    # file's rate_bound kept beside the recomputed one, took 8.09
    assert read_peak < 7 * trace.k.nbytes
    # then the checks stay under the read's own peak; replays that kept
    # their lhs and rhs reached 7.17, and deriving the six Lyapunov columns
    # at read took 15.2
    assert peak < 7 * trace.k.nbytes


SCHEDULE_KEYS = {
    "constant": {"schedule.alpha": "0.15"},
    "ramp": {"schedule.alpha_start": "0.05", "schedule.alpha_end": "0.3",
             "schedule.alpha_ramp_iters": "7"},
    "table": {"schedule.alpha_table": "0.1,0.2,0.25"},
}
LAMBDA_KEYS = {
    "constant": {"schedule.lambda": "0.8"},
    "table": {"schedule.lambda_table": "0.5,0.9,1.1,0.7"},
}


def _documented_alpha(kind, k):
    if kind == "constant":
        return 0.15
    if kind == "ramp":  # linear over the first ramp_iters indices, then held
        return 0.05 + (0.3 - 0.05) * (k - 1) / (7 - 1) if k < 7 else 0.3
    return [0.1, 0.2, 0.25][min(k, 3) - 1]  # a table holds its last entry


def _documented_lambda(kind, k):
    return 0.8 if kind == "constant" else [0.5, 0.9, 1.1, 0.7][min(k, 4) - 1]


@pytest.mark.parametrize("l_kind", ["constant", "table"])
@pytest.mark.parametrize("a_kind", ["constant", "ramp", "table"])
def test_read_schedule_every_kind(tmp_path, a_kind, l_kind):
    keys = {"schedule.alpha_kind": a_kind, "schedule.lambda_kind": l_kind,
            **SCHEDULE_KEYS[a_kind], **LAMBDA_KEYS[l_kind]}
    view = ConfigView(keys)
    schedule, xi = cli.read_schedule(view)
    resolved = view.read
    assert set(resolved) == set(keys) | {"schedule.xi"} and xi == 1.0
    # the longest ramp or table, and the values past it
    assert schedule.const_from == max({"constant": 1, "ramp": 7, "table": 3}[a_kind],
                                      {"constant": 1, "table": 4}[l_kind])
    assert schedule.limit == (_documented_alpha(a_kind, 10), _documented_lambda(l_kind, 10))
    ks = range(1, 7 + 3)  # past the longest ramp or table
    # the column form the replays read holds the documented floats
    a_col, l_col = schedule.columns(np.arange(1, 7 + 3))
    assert a_col.tobytes() == np.array([_documented_alpha(a_kind, k) for k in ks]).tobytes()
    assert l_col.tobytes() == np.array([_documented_lambda(l_kind, k) for k in ks]).tobytes()

    # the schedule certify rebuilds from the trace's embedded config
    cfg = tmp_path / "run.cfg"
    trace = tmp_path / "run.csv"
    text = QUAD_RUN.format(trace=trace).replace("stopping.max_iters = 5000",
                                                "stopping.max_iters = 3")
    lines = [line for line in text.splitlines() if not line.startswith("schedule.")]
    write(cfg, "\n".join(lines + [f"{key} = {value}" for key, value in keys.items()]) + "\n")
    assert cli.cmd_run(str(cfg), out=io.StringIO()) == cli.EXIT_MAX_ITERS
    view_again = ConfigView(cli.read_trace(str(trace))[1])
    rebuilt, _ = cli.read_schedule(view_again)
    assert view_again.read == resolved
    assert (rebuilt.const_from, rebuilt.limit) == (schedule.const_from, schedule.limit)
    a_again, l_again = rebuilt.columns(np.arange(1, 7 + 3))
    assert (a_again.tobytes(), l_again.tobytes()) == (a_col.tobytes(), l_col.tobytes())


# --------------------------------------------------------------------------
# check-params command


def test_check_params_pass_and_fail():
    assert cli.cmd_check_params(0.0, 0.5, None, None, None, out=io.StringIO()) == cli.EXIT_OK
    assert cli.cmd_check_params(0.2, 0.5, None, None, None, out=io.StringIO()) == cli.EXIT_OK
    buf = io.StringIO()
    code = cli.cmd_check_params(0.5, 0.9, 0.9, 1.0, None, out=buf)
    assert code == cli.EXIT_CHECK_FAILED
    assert "margin=-" in buf.getvalue()


def test_check_params_gamma_rescales_relaxation():
    # lambda=1.4 infeasible raw, feasible through a 1/2-averaged operator
    assert cli.cmd_check_params(0.0, 1.4, None, None, None,
                                out=io.StringIO()) == cli.EXIT_CHECK_FAILED
    assert cli.cmd_check_params(0.0, 1.4, None, None, 0.5,
                                out=io.StringIO()) == cli.EXIT_OK


def test_check_params_usage_errors():
    assert cli.main(["check-params", "--alpha", "1.2", "--lambda", "0.5"]) == cli.EXIT_USAGE
    assert cli.main(["check-params", "--alpha", "0.2", "--lambda", "1.5",
                     "--q", "0.9"]) == cli.EXIT_USAGE
    # nan fails `lambda > 0` although it also fails `lambda <= 0`
    assert cli.main(["check-params", "--alpha", "0.1", "--lambda", "nan"]) == cli.EXIT_USAGE
    # every argument is checked before any line is printed
    buf = io.StringIO()
    with pytest.raises(cli.UsageError, match="needs lambda <= 1"):
        cli.cmd_check_params(0.2, 1.5, 0.9, None, None, out=buf)
    assert buf.getvalue() == ""


def test_check_params_tiny_alpha_prints_consistent_lines():
    # feasibility_poly(1) = -alpha q^2 (1 + alpha) rounds to 0 at alpha = 1e-17,
    # so lambda_alpha_q is the feasible end of its bisection, not an error
    args = ["check-params", "--alpha", "1e-17", "--lambda", "0.5", "--q", "0.5"]
    assert cli.main(args) == cli.EXIT_OK
    buf = io.StringIO()
    assert cli.cmd_check_params(1e-17, 0.5, 0.5, None, None, out=buf) == cli.EXIT_OK
    lines = buf.getvalue().splitlines()
    assert lines[0].endswith(" PASS") and lines[1].startswith("contraction(")
    assert lines[1].endswith(" PASS")
    poly, lam_q, lam_1 = (float(f.split("=")[1]) for f in lines[2].split())
    assert lam_q == 0.9999999999990905 and lam_1 == 1.0
    assert cert.feasibility_poly(lam_q, 1e-17, 0.5) > 0.0
    # lambda = 0.5 lies below lambda_alpha_q, where the polynomial is positive,
    # and the contraction PASS at xi = 1 needs a threshold of at most 1
    assert poly > 0.0 and 0.5 < lam_q
    assert lines[3].startswith("xi_threshold=") and 0.0 < float(lines[3].split("=")[1]) <= 1.0


# --------------------------------------------------------------------------
# lambda-grid command


def test_lambda_grid_file(tmp_path):
    out = tmp_path / "grid.csv"
    assert cli.cmd_lambda_grid(10, 9, str(out), out=io.StringIO()) == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[2] == "alpha,q,lambda_alpha_q"
    body = [l.split(",") for l in lines[3:]]
    assert len(body) == 90
    assert all(row[2] == "1" for row in body if row[0] == "0")


def test_lambda_grid_usage():
    assert cli.main(["lambda-grid", "--alpha-steps", "1", "--q-steps", "9",
                     "--out", "/tmp/x.csv"]) == cli.EXIT_USAGE


# --------------------------------------------------------------------------
# sweep command


SWEEP_CFG = """
problem.kind = tv1d
problem.n = 60
problem.mu_reg = 0.3
problem.seed = 1
algorithm.scheme = pd
stopping.max_iters = 60000
stopping.residual_tol = 1e-6
sweep.1.alpha = 0.2
sweep.1.lambda = 1.0
sweep.2.alpha = 0.45
sweep.2.lambda = 1.8
output.table = {table}
"""


@pytest.mark.parametrize("stopping", [
    "stopping.residual_tol = nan",
    # the sweep used to ignore stall_tol and exit 0
    "stopping.stall_tol = -1",
    "stopping.stall_tol = nan",
])
def test_sweep_bad_stopping_tolerance_is_usage_error(tmp_path, capsys, stopping):
    cfg = tmp_path / "sweep.cfg"
    table = tmp_path / "sweep.csv"
    write(cfg, SWEEP_CFG.format(table=table) + stopping + "\n")
    assert cli.main(["sweep", str(cfg)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    name = stopping.split()[0].split(".")[1]
    assert out == "" and err == f"error: {name} must be >= 0\n"
    assert not table.exists()


def test_sweep_rows_stop_on_stall_tol(tmp_path):
    # every row converges (117-231 steps) without the tolerance
    cfg = tmp_path / "sweep.cfg"
    table = tmp_path / "sweep.csv"
    write(cfg, "problem.kind = quadratic\nproblem.dim = 10\nproblem.mu = 1\n"
               "problem.L = 10\nproblem.seed = 1\nalgorithm.scheme = gradient\n"
               "stopping.residual_tol = 1e-10\nstopping.stall_tol = 1e-3\n"
               "sweep.1.alpha = 0.05\nsweep.1.lambda = 0.9\n"
               "sweep.2.alpha = 0.1\nsweep.2.lambda = 0.5\n"
               f"output.table = {table}\n")
    assert cli.main(["sweep", str(cfg)]) == cli.EXIT_OK
    lines = table.read_text().splitlines()
    assert "stopping.stall_tol=0.001" in lines[1].split("; ")
    body = [line.split(",") for line in lines[3:]]
    assert len(body) == 4 and {row[4] for row in body} == {"stalled"}


def test_sweep_adds_baselines_and_flags_infeasible(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    table = tmp_path / "sweep.csv"
    write(cfg, SWEEP_CFG.format(table=table))
    assert cli.cmd_sweep(str(cfg), out=io.StringIO()) == cli.EXIT_OK
    lines = table.read_text().splitlines()
    header = lines[2].split(",")
    assert header[0] == "label"
    body = [l.split(",") for l in lines[3:]]
    # two configured rows plus automatic alpha=0 baselines for both lambdas
    assert len(body) == 4
    alphas = [row[1] for row in body]
    assert alphas.count("0") == 2
    infeasible = [row for row in body if row[-1] == "infeasible-relaxation"]
    assert len(infeasible) == 1  # the alpha=0.45, lambda=1.8 row is flagged, not dropped
    for row in body:
        if row[-1] == "":
            assert row[4] == "converged"


@pytest.mark.parametrize("max_iters, statuses", [
    (60000, {"converged", "diverged"}),  # the lambda=1.8 row diverges
    (200, {"max_iters"}),
])
def test_sweep_final_objective_is_last_row_objective(tmp_path, max_iters, statuses):
    cfg = tmp_path / "sweep.cfg"
    table = tmp_path / "sweep.csv"
    write(cfg, SWEEP_CFG.format(table=table).replace(
        "stopping.max_iters = 60000", f"stopping.max_iters = {max_iters}"))
    assert cli.cmd_sweep(str(cfg), out=io.StringIO()) == cli.EXIT_OK
    body = [l.split(",") for l in table.read_text().splitlines()[3:]]
    assert {row[4] for row in body} == statuses

    spec, instance, op, objective = cli.build_problem(str(cfg), cli.read_sweep)
    scheme, steps = spec.scheme, spec.steps
    assert spec.stop == StoppingRule(max_iters, 1e-6)
    stop = spec.stop
    for row in body:
        schedule = Schedule.constant(float(row[1]), float(row[2]))
        rows = engine.run(op, instance.start_point(scheme), schedule, stop,
                          p_ref=instance.fixed_point(scheme, **steps), objective=objective).rows
        assert row[7] == cli._fmt(rows[-1].objective)


def test_sweep_requires_two_entries(tmp_path):
    cfg = tmp_path / "sweep1.cfg"
    text = SWEEP_CFG.format(table=tmp_path / "t.csv")
    text = "\n".join(l for l in text.splitlines() if not l.startswith("sweep.2"))
    write(cfg, text)
    assert cli.main(["sweep", str(cfg)]) == cli.EXIT_USAGE


@pytest.mark.parametrize("key, value, message", [
    ("sweep.3.alpha", "1.5", "sweep.3.alpha must lie in [0, 1)"),
    ("sweep.3.lambda", "0", "sweep.3.lambda must be > 0"),
    ("sweep.2.xi", "5", "sweep.2.xi must lie in [0, 1]"),
    ("schedule.xi", "-0.5", "schedule.xi must lie in [0, 1]"),
    # a comma would add a field to the table row
    ("sweep.2.label", "a,b", "sweep.2.label must not contain ','"),
    # "; " would end the label's entry of the table's config line
    ("sweep.2.label", "a; b", "sweep.2.label must not contain '; '"),
])
def test_sweep_checks_every_entry_before_the_first_run(tmp_path, monkeypatch, key, value,
                                                       message):
    cfg = tmp_path / "bad.cfg"
    table = tmp_path / "bad.csv"
    write(cfg, SWEEP_CFG.format(table=table) + "sweep.3.alpha = 0.1\nsweep.3.lambda = 1.0\n"
          + f"{key} = {value}\n")
    runs = []
    monkeypatch.setattr(engine, "run", lambda *args: runs.append(args))
    with pytest.raises(ConfigError, match=re.escape(message)):
        cli.cmd_sweep(str(cfg), out=io.StringIO())
    assert cli.main(["sweep", str(cfg)]) == cli.EXIT_USAGE
    assert runs == [] and not table.exists()


@pytest.mark.parametrize("extra, keys", [
    # a key with three dots is no sweep entry key
    ("sweep.1.alpha.x = 0.3\n", "sweep.1.alpha.x"),
    # a sweep replays nothing and runs no configured schedule
    ("output.checks = ck\nschedule.alpha = 0.1\n", "output.checks, schedule.alpha"),
    ("algorithm.rho = 0.5\n", "algorithm.rho"),
], ids=["three-dot", "run-only", "pd-rho"])
def test_sweep_rejects_keys_it_does_not_read(tmp_path, monkeypatch, capsys, extra, keys):
    cfg = tmp_path / "unread.cfg"
    table = tmp_path / "unread.csv"
    write(cfg, SWEEP_CFG.format(table=table) + extra)
    forks = []
    monkeypatch.setattr(workers, "map_rows", lambda *args: forks.append(args))
    capsys.readouterr()
    assert cli.main(["sweep", str(cfg)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: config keys that this command does not read: {keys}\n"
    assert forks == [] and not table.exists()


@pytest.mark.parametrize("index", ["01", "x", "+1", "-1", "1_0", "\uff11"])
def test_sweep_rejects_an_index_that_is_not_a_plain_integer(tmp_path, capsys, index):
    # "01" or "+1" would alias entry 1 and drop one of the two rows, and a
    # non-integer index must name its key
    cfg = tmp_path / "bad.cfg"
    table = tmp_path / "bad.csv"
    write(cfg, SWEEP_CFG.format(table=table) + f"sweep.{index}.alpha = 0.3\n"
          + f"sweep.{index}.lambda = 1.0\n")
    assert cli.main(["sweep", str(cfg)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    key = next(line.split()[0] for line in cfg.read_text().splitlines()
               if line.startswith(f"sweep.{index}."))
    assert out == "" and err == (f"error: {key}: the sweep index must be a decimal integer "
                                 "without sign or leading zeros\n")
    assert not table.exists()


@pytest.mark.parametrize("kind, scheme", [("lasso", "fb"), ("three_term", "dy")])
def test_sweep_runs_no_reference_and_run_runs_one(tmp_path, monkeypatch, kind, scheme):
    # a call made in a sweep worker would never reach a list kept here, so
    # any picard call fails the sweep instead, in whichever process it runs
    picard = problems.picard

    def no_picard(*args):
        raise AssertionError("ikm sweep called problems.picard")

    monkeypatch.setattr(problems, "picard", no_picard)
    use_cpus(monkeypatch, 3)
    problem = (f"problem.kind = {kind}\nproblem.m = 20\nproblem.n = 50\nproblem.seed = 2\n"
               f"algorithm.scheme = {scheme}\nstopping.max_iters = 3000\n")
    sweep_cfg = tmp_path / "ls_sweep.cfg"
    run_cfg = tmp_path / "ls.cfg"
    write(sweep_cfg, problem + "sweep.1.alpha = 0.1\nsweep.1.lambda = 0.9\n"
                     "sweep.2.alpha = 0.3\nsweep.2.lambda = 0.9\n"
                     f"output.table = {tmp_path / 'ls.csv'}\n")
    write(run_cfg, problem + "schedule.alpha = 0.1\nschedule.lambda = 0.9\n"
                   f"output.trace = {tmp_path / 'ls_trace.csv'}\n")
    assert cli.main(["sweep", str(sweep_cfg)]) == cli.EXIT_OK
    calls = []
    monkeypatch.setattr(problems, "picard", lambda *args: calls.append(args) or picard(*args))
    assert cli.main(["run", str(run_cfg)]) == cli.EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("kind, scheme", [("lasso", "fb"), ("three_term", "dy")])
@pytest.mark.parametrize("key, value, message", [
    ("sparsity", "1.5", "sparsity must lie in (0, 1)"),
    ("sparsity", "0", "sparsity must lie in (0, 1)"),
    ("m", "0", "m and n must be >= 2"),
    ("n", "1", "m and n must be >= 2"),
])
def test_least_squares_data_parameters_are_checked(tmp_path, capsys, kind, scheme, key, value,
                                                   message):
    cfg = tmp_path / "ls.cfg"
    trace = tmp_path / "ls.csv"
    problem = "".join(f"problem.{name} = {val}\n"
                      for name, val in {"m": 20, "n": 50, key: value}.items())
    write(cfg, f"problem.kind = {kind}\n{problem}algorithm.scheme = {scheme}\n"
               f"run.p_ref = none\noutput.trace = {trace}\n")
    capsys.readouterr()
    assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not trace.exists()


@pytest.mark.parametrize("ratio", [0.5, 1.5])
def test_three_term_run_at_another_rho_solves_the_default_reference_once(tmp_path, monkeypatch,
                                                                          ratio):
    calls = []
    picard = problems.picard
    monkeypatch.setattr(problems, "picard", lambda *args: calls.append(args) or picard(*args))
    rho0 = problems.make_three_term(20, 50, 0.1, -1.0, 1.0, 2).default_steps["dy"]["rho"]
    cfg = tmp_path / "tt.cfg"
    trace = tmp_path / "tt.csv"
    write(cfg, "problem.kind = three_term\nproblem.m = 20\nproblem.n = 50\nproblem.seed = 2\n"
               f"algorithm.scheme = dy\nalgorithm.rho = {cli._fmt(ratio * rho0)}\n"
               "schedule.alpha = 0.1\nschedule.lambda = 0.9\nstopping.max_iters = 20000\n"
               f"output.trace = {trace}\n")
    assert cli.main(["run", str(cfg)]) == cli.EXIT_OK
    # the one Picard run is made at the default steps, whose gamma is 2/3
    assert len(calls) == 1 and calls[0][0].gamma == pytest.approx(2.0 / 3.0)
    rows = cli.read_trace(str(trace))[0]
    assert rows.dist_to_ref is not None and rows.dist_to_ref[-1] < 1e-6


def test_run_whose_reference_misses_the_tolerance_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(problems, "REFERENCE_CAP", 3)
    cfg = tmp_path / "ls.cfg"
    write(cfg, "problem.kind = lasso\nproblem.m = 20\nproblem.n = 50\n"
               f"algorithm.scheme = fb\noutput.trace = {tmp_path / 'ls.csv'}\n")
    assert cli.main(["run", str(cfg)]) == cli.EXIT_MAX_ITERS
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: lasso reference run did not reach 1e-12 in 3 steps"]


def test_run_whose_other_rho_reference_misses_the_tolerance_exits_2(tmp_path, monkeypatch,
                                                                    capsys):
    # the Davis-Yin fixed point at another rho maps the default reference,
    # whose miss exits 2: no run goes on without distances
    monkeypatch.setattr(problems, "REFERENCE_CAP", 3)
    cfg = tmp_path / "tt.cfg"
    trace = tmp_path / "tt.csv"
    write(cfg, "problem.kind = three_term\nproblem.m = 20\nproblem.n = 50\n"
               f"algorithm.scheme = dy\nalgorithm.rho = 0.1\noutput.trace = {trace}\n")
    capsys.readouterr()
    assert cli.main(["run", str(cfg)]) == cli.EXIT_MAX_ITERS
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: three_term reference run did not reach 1e-12 in 3 steps"]
    assert not trace.exists()


def test_sweep_reruns_give_identical_tables(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    t1, t2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    write(cfg, SWEEP_CFG.format(table=t1))
    cli.cmd_sweep(str(cfg), out=io.StringIO())
    write(cfg, SWEEP_CFG.format(table=t2))
    cli.cmd_sweep(str(cfg), out=io.StringIO())
    assert t1.read_bytes() == t2.read_bytes()


# sweep rows on every usable CPU: ``os.sched_getaffinity`` sets the width


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _ppid(pid):
    """The parent pid of a live process, None for one gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8", errors="replace") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return None if fields[0] in "ZX" else int(fields[1])


def _children(pid):
    return [int(name) for name in os.listdir("/proc") if name.isdigit()
            and _ppid(int(name)) == pid]


LASSO_SWEEP_CFG = """
problem.kind = lasso
problem.m = 20
problem.n = 50
problem.seed = 3
algorithm.scheme = fb
stopping.residual_tol = 1e-9
sweep.1.alpha = 0.1
sweep.1.lambda = 0.9
sweep.2.alpha = 0.3
sweep.2.lambda = 0.9
sweep.3.alpha = 0.2
sweep.3.lambda = 1.2
sweep.4.alpha = 0
sweep.4.lambda = 1.5
output.table = {table}
"""


# rows that run to a budget of 10**8 steps: minutes each
LONG_ROWS = LASSO_SWEEP_CFG.replace("stopping.residual_tol = 1e-9", "stopping.residual_tol = 0\n"
                                    "stopping.max_iters = 100000000")


def record_row_pids(monkeypatch, path):
    """Wrap ``engine.run`` so that each row appends its process id to ``path``."""
    run = engine.run

    def recorded(*args):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return run(*args)

    monkeypatch.setattr(engine, "run", recorded)


@pytest.mark.parametrize("config, rows", [(LASSO_SWEEP_CFG, 6), (SWEEP_CFG, 4)],
                         ids=["lasso-fb", "tv1d-pd"])
def test_sweep_table_does_not_depend_on_the_worker_count(tmp_path, monkeypatch, config, rows):
    cfg = tmp_path / "sweep.cfg"
    pids = tmp_path / "pids.txt"
    record_row_pids(monkeypatch, pids)
    tables = {}
    for cpus in (1, 2, rows + 3):
        use_cpus(monkeypatch, cpus)
        table = tmp_path / f"w{cpus}.csv"
        write(cfg, config.format(table=table))
        pids.write_text("")
        out = io.StringIO()
        assert cli.cmd_sweep(str(cfg), out=out) == cli.EXIT_OK
        assert out.getvalue() == f"sweep table ({rows} rows) written to {table}\n"
        # the caller runs rows 0, W, ... and W - 1 workers the others
        width = min(cpus, rows)
        ran = pids.read_text().split()
        assert len(ran) == rows and len(set(ran)) == width
        assert ran.count(str(os.getpid())) == len(range(0, rows, width))
        tables[cpus] = table.read_bytes()
    assert tables[1] == tables[2] == tables[rows + 3]


def failing_rows(monkeypatch, alphas):
    """Make the sweep rows at these alphas raise a ConfigError naming the alpha."""
    run = engine.run

    def failing(op, x1, schedule, *args):
        alpha = schedule.limit[0]
        if alpha in alphas:
            raise ConfigError(f"row alpha={alpha} failed")
        return run(op, x1, schedule, *args)

    monkeypatch.setattr(engine, "run", failing)


# rows in configuration order: alpha 0.1, 0.3, 0.2 and 0, then the alpha-0 baselines at
# lambda 0.9 and 1.2
@pytest.mark.parametrize("alphas, message", [
    ({0.3}, "row alpha=0.3 failed"),
    ({0.3, 0.2}, "row alpha=0.3 failed"),
    ({0.2, 0.0}, "row alpha=0.2 failed"),
    ({0.1, 0.0}, "row alpha=0.1 failed"),
])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_failing_row_gives_the_sequential_error(tmp_path, monkeypatch, capsys, alphas,
                                                  message, cpus):
    # with 2 CPUs rows 1, 3 and 5 run in the worker; with 3, rows 1 and 4 in
    # one worker and rows 2 and 5 in the other: the lowest failing row's
    # error wins either way
    cfg = tmp_path / "sweep.cfg"
    table = tmp_path / "sweep.csv"
    write(cfg, LASSO_SWEEP_CFG.format(table=table))
    use_cpus(monkeypatch, cpus)
    failing_rows(monkeypatch, alphas)
    assert cli.main(["sweep", str(cfg)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not table.exists()
    assert _children(os.getpid()) == []


def test_an_interrupt_in_the_callers_row_kills_the_workers(tmp_path, monkeypatch):
    cfg = tmp_path / "sweep.cfg"
    write(cfg, LONG_ROWS.format(table=tmp_path / "sweep.csv"))
    use_cpus(monkeypatch, 3)
    run = engine.run

    def interrupted(op, x1, schedule, *args):
        if schedule.limit[0] == 0.1:
            time.sleep(0.2)
            raise KeyboardInterrupt
        return run(op, x1, schedule, *args)

    monkeypatch.setattr(engine, "run", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli.main(["sweep", str(cfg)])
    assert time.monotonic() - start < 30
    assert _children(os.getpid()) == []


def test_an_unexpected_error_in_a_worker_carries_its_traceback(tmp_path, monkeypatch):
    cfg = tmp_path / "sweep.cfg"
    write(cfg, LASSO_SWEEP_CFG.format(table=tmp_path / "sweep.csv"))
    use_cpus(monkeypatch, 2)
    run = engine.run

    def broken(op, x1, schedule, *args):
        if schedule.limit[0] == 0.3:
            raise KeyError("no such row")
        return run(op, x1, schedule, *args)

    monkeypatch.setattr(engine, "run", broken)
    with pytest.raises(KeyError, match="no such row") as info:
        cli.main(["sweep", str(cfg)])
    cause = info.value.__cause__
    assert isinstance(cause, workers._WorkerTraceback)
    assert "in broken" in str(cause) and "KeyError: 'no such row'" in str(cause)


def test_a_worker_that_cannot_send_its_rows_fails_the_sweep(tmp_path, monkeypatch):
    class Local(Exception):  # a class defined in a function does not pickle
        pass

    cfg = tmp_path / "sweep.cfg"
    table = tmp_path / "sweep.csv"
    write(cfg, LASSO_SWEEP_CFG.format(table=table))
    use_cpus(monkeypatch, 2)
    run = engine.run

    def unpicklable(op, x1, schedule, *args):
        if schedule.limit[0] == 0.3:
            raise Local("row alpha=0.3")
        return run(op, x1, schedule, *args)

    monkeypatch.setattr(engine, "run", unpicklable)
    with pytest.raises(RuntimeError, match="before it sent its rows"):
        cli.main(["sweep", str(cfg)])
    assert not table.exists() and _children(os.getpid()) == []


KILLED_SWEEP = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1, 2}
from ikm import cli
sys.exit(cli.main(["sweep", sys.argv[1]]))
"""


def test_workers_die_with_a_killed_sweep(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    write(cfg, LONG_ROWS.format(table=tmp_path / "sweep.csv"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.Popen([sys.executable, "-c", KILLED_SWEEP, str(cfg)],
                            env=dict(os.environ, PYTHONPATH=src))
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.05)
            workers = _children(proc.pid)
        assert len(workers) == 2, "the sweep did not fork its two workers"
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 1.0
        while any(_ppid(pid) is not None for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if _ppid(pid) is not None] == []
    finally:
        proc.kill()
        proc.wait(timeout=10)
        for pid in workers:
            if _ppid(pid) is not None:
                os.kill(pid, signal.SIGKILL)


# --------------------------------------------------------------------------
# main entry


def test_main_dispatch_and_usage():
    assert cli.main([]) == cli.EXIT_USAGE
    assert cli.main(["unknown-cmd"]) == cli.EXIT_USAGE
