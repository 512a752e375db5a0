import io
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikm import cli, engine, problems
from ikm.config import (
    ConfigError,
    ConfigView,
    deserialize_config,
    parse_config,
    serialize_config,
)
from ikm.engine import COLUMNS, DivergenceError, Schedule, StoppingRule


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
    assert lines[2] == cli.TRACE_COLUMNS
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


def reference_trace_text(trace, resolved, fields=cli.TRACE_FIELDS, version="v2"):
    """ikm-trace-v2 written field by field, as a row writer would; with
    ``fields=COLUMNS`` and ``version="v1"``, the ikm-trace-v1 that writers
    before v2 wrote."""
    def fmt(x):
        return "" if x is None else "%.17g" % x

    lines = [f"# ikm-trace-{version}", "# config: " + serialize_config(resolved),
             ",".join(fields)]
    for r in trace:
        lines.append(",".join([str(r.k)] + [fmt(getattr(r, name)) for name in fields[1:]]))
    return "\n".join(lines) + "\n"


def v1_trace_text(trace, resolved):
    return reference_trace_text(trace, resolved, COLUMNS, "v1")


def trace_for(cfg, residual, step, dist_to_ref=None, objective=None):
    """The trace of these measured columns with the rest derived from ``cfg``
    (its schedule, q and xi), as a run under that config records it."""
    schedule, _, xi = cli.build_schedule(ConfigView(cfg))
    k = np.arange(1, residual.size + 1)
    alpha, lam = engine.schedule_columns(schedule, k)
    trace = engine.derive_trace(residual, step, alpha, lam, dist_to_ref, objective)
    trace.rate_bound = cli.rate_bound_column(trace, schedule, cli._certified_q(cfg), xi)
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
    resolved = dict(IO_CFG, **{"run.status": "max_iters"})
    path = tmp_path / "edge.csv"
    cli.write_trace(str(path), trace, resolved)
    assert path.read_text(encoding="utf-8") == reference_trace_text(trace, resolved)
    back, cfg = cli.read_trace(str(path))
    assert cfg == resolved and len(back) == n
    for name in COLUMNS if n else ():  # a header-only file has no columns to compare
        a, b = getattr(back, name), getattr(trace, name)
        assert (a is None) == (b is None), name
        if a is not None:  # bit for bit, the sign of zero and nan included
            assert a.tobytes() == b.tobytes(), name
    again = tmp_path / "again.csv"
    cli.write_trace(str(again), back, cfg)
    assert again.read_bytes() == path.read_bytes()
    # the same rows as v1, derived columns included: they agree with the
    # re-derivation, nan and inf entries too
    v1 = tmp_path / "v1.csv"
    v1.write_text(v1_trace_text(trace, resolved), encoding="utf-8")
    back_v1, cfg_v1, mismatch = cli.read_trace(str(v1), consistency=True)
    assert cfg_v1 == resolved and mismatch.size == 0
    if n:
        assert_same_trace(back_v1, trace)


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
    rows, resolved = cli.read_trace(str(trace))
    assert len(rows) > 100 and rows.rate_bound is not None and rows.objective is not None
    assert trace.read_text(encoding="utf-8") == reference_trace_text(rows, resolved)
    again = tmp_path / "again.csv"
    cli.write_trace(str(again), rows, resolved)
    assert again.read_bytes() == trace.read_bytes()


@pytest.mark.parametrize("edit, message", [
    (lambda row: row[:-1], "malformed row"),  # one field short
    (lambda row: row + [""], "malformed row"),  # one field too many
    (lambda row: row[:2] + ["0.5x"] + row[3:], "column step"),  # not a number
    (lambda row: row[:DIST] + [""] + row[DIST + 1:], "dist_to_ref mixes empty and filled"),
    (lambda row: [""] + row[1:], "column k"),
    (lambda row: ["0"] + row[1:], "column k must be >= 1"),
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
    columns = sum(getattr(trace, name).nbytes for name in COLUMNS)
    tracemalloc.start()
    try:
        back, _ = cli.read_trace(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == trace
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
    back, cfg = cli.read_trace(str(path))
    assert back == trace and cfg == FULL_CFG


@pytest.mark.parametrize("text", [
    "# ikm-trace-v1\n# config: a.x=1\n\n# no header follows\n",
    "# ikm-trace-v1\n1,2,3\n" + ",".join(COLUMNS) + "\n",  # the header must come first
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
    rows, cfg_map = cli.read_trace(str(trace))
    assert "derived.q_factor" in cfg_map
    assert rows[0].rate_bound == pytest.approx(rows[0].dist_to_ref ** 2, rel=1e-12)
    for r in rows:
        assert r.rate_bound is not None
        assert r.dist_to_ref ** 2 <= r.rate_bound + 1e-10
    buf = io.StringIO()
    assert cli.cmd_certify(str(trace), out=buf) == cli.EXIT_OK
    assert "contraction: PASS" in buf.getvalue()
    assert "product bound: PASS" in buf.getvalue()


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
    assert "relaxation(eta=0.79999999999999993)" in constant
    table = _precheck(tmp_path, "schedule.alpha_kind = table\nschedule.alpha_table = 0.1\n"
                                "schedule.lambda_kind = table\nschedule.lambda_table = 1.2")
    line = next(l for l in table.splitlines() if l.startswith("relaxation_seq("))
    assert "eta_k=gamma*lambda_k, gamma=0.66666666666666663" in line
    assert " PASS " in line
    for out in (constant, table):
        assert "FAIL" not in out and "warning" not in out


def test_sequence_precheck_fails_infeasible_table(tmp_path):
    # alpha = 0.3 at eta = 0.8 fails the relaxation bound in either form
    out = _precheck(tmp_path, "schedule.alpha_kind = table\nschedule.alpha_table = 0.3\n"
                              "schedule.lambda_kind = table\nschedule.lambda_table = 1.2")
    line = next(l for l in out.splitlines() if l.startswith("relaxation_seq("))
    assert " FAIL " in line
    assert "warning: schedule fails the feasibility certificates" in out


@pytest.mark.parametrize("schedule", [
    "schedule.alpha_kind = ramp\nschedule.alpha_end = 0.1\nschedule.alpha_ramp_iters = 5\n",
    "schedule.alpha_kind = table\nschedule.alpha_table = 0,0.1\n"
    "schedule.lambda_kind = table\nschedule.lambda_table = 0.9,0.8\n",
])
def test_sequence_precheck_skips_a_one_iteration_run(tmp_path, schedule):
    # max_iters = 1 leaves no index k >= 2 for the sequence form to test
    cfg = tmp_path / "one.cfg"
    trace = tmp_path / "one.csv"
    write(cfg, QUAD_RUN.format(trace=trace).replace("stopping.max_iters = 5000",
                                                    "stopping.max_iters = 1") + schedule)
    buf = io.StringIO()
    assert cli.cmd_run(str(cfg), out=buf) == cli.EXIT_MAX_ITERS
    out = buf.getvalue()
    line = next(l for l in out.splitlines() if l.startswith("relaxation_seq("))
    assert line.endswith(": SKIPPED (no index k >= 2 within max_iters)")
    assert "warning" not in out
    read, cfg_out = cli.read_trace(str(trace))
    assert len(read) == 1 and cfg_out["derived.warning"] == "0"


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


def test_certify_rederives_a_doctored_v1_trace(tmp_path):
    # a v1 file with one dist_to_ref scaled and C_k left as written: before
    # v2, certify replayed the file's C_k and printed "Ck monotone: PASS"
    cfg = tmp_path / "quad.cfg"
    trace = tmp_path / "quad.csv"
    write(cfg, QUAD_RUN_WORKLOAD.format(trace=trace))
    assert cli.cmd_run(str(cfg), out=io.StringIO()) == cli.EXIT_OK
    rows, resolved = cli.read_trace(str(trace))
    assert len(rows) > 5000
    rows.dist_to_ref[4999] *= 1.5  # k = 5000; every other column as the run wrote it
    v1 = tmp_path / "doctored.csv"
    v1.write_text(v1_trace_text(rows, resolved), encoding="utf-8")
    buf = io.StringIO()
    assert cli.cmd_certify(str(v1), out=buf) == cli.EXIT_CHECK_FAILED
    lines = buf.getvalue().splitlines()
    assert lines[-1] == "consistency: FAIL at k=[5000, 5001]"  # Delta_k and C_k there
    assert lines[0].startswith("Ck monotone: FAIL at k=")


CONFIGS = {
    "certified": CERTIFIED,
    "no-ref": CERTIFIED + "run.p_ref = none\n",
    "infeasible": INFEASIBLE_RUN.replace("output.checks = ck,descent\n", ""),
    "ramp-table": RAMP_TABLE,
    "diverged": QUAD_RUN.replace("schedule.lambda = 1.0", "schedule.lambda = 2.5"),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_v1_trace_reads_to_the_same_trace_and_certifies_alike(tmp_path, name):
    cfg = tmp_path / "run.cfg"
    trace = tmp_path / "run.csv"
    write(cfg, CONFIGS[name].format(trace=trace) + ALL_CHECKS)
    cli.cmd_run(str(cfg), out=io.StringIO())
    rows, resolved = cli.read_trace(str(trace))
    v1 = tmp_path / "v1.csv"
    v1.write_text(v1_trace_text(rows, resolved), encoding="utf-8")
    back, cfg_back, mismatch = cli.read_trace(str(v1), consistency=True)
    assert cfg_back == resolved and mismatch.size == 0
    assert_same_trace(back, rows)
    assert cli.read_trace(str(trace), consistency=True)[2] is None
    out_v1, out_v2 = io.StringIO(), io.StringIO()
    code = cli.cmd_certify(str(trace), out=out_v2)
    assert cli.cmd_certify(str(v1), out=out_v1) == code
    assert out_v1.getvalue() == out_v2.getvalue() + "consistency: PASS\n"
    assert "consistency" not in out_v2.getvalue()


def assert_same_trace(got, want):
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("column, row, expect", [
    ("C_k", 7, "[8]"),
    ("nu_k", 0, "[1]"),
    ("k_res_sq", -1, None),  # the last row
    ("rate_bound", 3, "[4]"),
])
def test_certify_flags_each_derived_column_of_a_v1_trace(tmp_path, column, row, expect):
    cfg = tmp_path / "run.cfg"
    trace = tmp_path / "run.csv"
    write(cfg, CERTIFIED.format(trace=trace))
    cli.cmd_run(str(cfg), out=io.StringIO())
    rows, resolved = cli.read_trace(str(trace))
    col = getattr(rows, column)
    col[row] = np.nextafter(col[row], np.inf)  # one ulp
    v1 = tmp_path / "v1.csv"
    v1.write_text(v1_trace_text(rows, resolved), encoding="utf-8")
    buf = io.StringIO()
    assert cli.cmd_certify(str(v1), out=buf) == cli.EXIT_CHECK_FAILED
    k = f"[{len(rows)}]" if expect is None else expect
    assert buf.getvalue().splitlines()[-1] == f"consistency: FAIL at k={k}"


def test_certify_flags_a_v2_rate_bound_that_disagrees(tmp_path):
    cfg = tmp_path / "run.cfg"
    trace = tmp_path / "run.csv"
    write(cfg, CERTIFIED.format(trace=trace))
    cli.cmd_run(str(cfg), out=io.StringIO())
    clean = io.StringIO()
    assert cli.cmd_certify(str(trace), out=clean) == cli.EXIT_OK
    lines = trace.read_text().splitlines()
    row = lines[10].split(",")  # k = 8
    row[-1] = "%.17g" % (2.0 * float(row[-1]))
    lines[10] = ",".join(row)
    trace.write_text("\n".join(lines) + "\n")
    buf = io.StringIO()
    assert cli.cmd_certify(str(trace), out=buf) == cli.EXIT_CHECK_FAILED
    assert buf.getvalue() == clean.getvalue() + "consistency: FAIL at k=[8]\n"


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
    schedule, resolved, xi = cli.build_schedule(ConfigView(keys))
    inst = problems.make_quadratic(dim, 1.0, 10.0, seed)
    op = inst.operator("gradient")
    objective = (lambda x: inst.objective(op.extract_solution(x))) if with_objective else None
    result = cli._run(op, inst.start_point("gradient"), schedule, StoppingRule(*stop_args),
                      inst.reference_solution if with_ref else None, objective)
    assert result.status == end
    trace = result.rows
    trace.rate_bound = cli.rate_bound_column(trace, schedule, op.q_factor, xi)
    resolved.update({"run.status": end, "derived.q_factor": cli._fmt(op.q_factor)})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        cli.write_trace(path, trace, resolved)
        back, cfg = cli.read_trace(path)
    assert cfg == resolved
    assert (trace.rate_bound is not None) == (with_ref and kind == "constant" and lam == "0.9")
    assert_same_trace(back, trace)


def test_evaluate_checks_holds_one_report_at_a_time():
    inst = problems.make_quadratic(5, 0.01, 10.0, 1)
    op = inst.operator("gradient")
    schedule = Schedule.constant(0.05, 0.9)
    res = engine.run(op, inst.start_point("gradient"), schedule, StoppingRule(100_000, 0.0),
                     p_ref=inst.reference_solution)
    trace = res.rows
    assert len(trace) == 100_000
    tracemalloc.start()
    try:
        verdicts = cli.evaluate_checks(trace, cli.CHECKS, schedule, op.q_factor, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {status for status, _ in verdicts.values()} == {"PASS"}
    # one report's lhs and rhs, and chunks; whole-column replays took 12 columns
    assert peak <= 2.5 * trace.k.nbytes


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
def test_build_schedule_every_kind(tmp_path, a_kind, l_kind):
    keys = {"schedule.alpha_kind": a_kind, "schedule.lambda_kind": l_kind,
            **SCHEDULE_KEYS[a_kind], **LAMBDA_KEYS[l_kind]}
    schedule, resolved, xi = cli.build_schedule(ConfigView(keys))
    assert set(resolved) == set(keys) | {"schedule.xi"} and xi == 1.0
    assert schedule.const == ((0.15, 0.8) if a_kind == l_kind == "constant" else None)
    ks = range(1, 7 + 3)  # past the longest ramp or table
    alphas = [schedule.alpha_at(k) for k in ks]
    lambdas = [schedule.lambda_at(k) for k in ks]
    assert alphas == [_documented_alpha(a_kind, k) for k in ks]
    assert lambdas == [_documented_lambda(l_kind, k) for k in ks]
    # the column form the replays read holds the same floats
    a_col, l_col = engine.schedule_columns(schedule, np.arange(1, 7 + 3))
    assert a_col.tobytes() == np.array(alphas).tobytes()
    assert l_col.tobytes() == np.array(lambdas).tobytes()

    # the schedule certify rebuilds from the trace's embedded config
    cfg = tmp_path / "run.cfg"
    trace = tmp_path / "run.csv"
    text = QUAD_RUN.format(trace=trace).replace("stopping.max_iters = 5000",
                                                "stopping.max_iters = 3")
    lines = [line for line in text.splitlines() if not line.startswith("schedule.")]
    write(cfg, "\n".join(lines + [f"{key} = {value}" for key, value in keys.items()]) + "\n")
    assert cli.cmd_run(str(cfg), out=io.StringIO()) == cli.EXIT_MAX_ITERS
    rebuilt, resolved_again, _ = cli.build_schedule(ConfigView(cli.read_trace(str(trace))[1]))
    assert resolved_again == resolved and rebuilt.const == schedule.const
    assert [rebuilt.alpha_at(k) for k in ks] == alphas
    assert [rebuilt.lambda_at(k) for k in ks] == lambdas


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

    _, instance, scheme, steps, op, objective = cli.build_problem(str(cfg))
    stop = StoppingRule(max_iters, 1e-6)
    for row in body:
        schedule = Schedule.constant(float(row[1]), float(row[2]))
        try:
            rows = engine.run(op, instance.start_point(scheme), schedule, stop,
                              p_ref=instance.fixed_point(scheme, **steps),
                              objective=objective).rows
        except DivergenceError as exc:
            rows = exc.partial.rows
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
])
def test_sweep_checks_every_entry_before_the_first_run(tmp_path, monkeypatch, key, value,
                                                       message):
    cfg = tmp_path / "bad.cfg"
    table = tmp_path / "bad.csv"
    write(cfg, SWEEP_CFG.format(table=table) + "sweep.3.alpha = 0.1\nsweep.3.lambda = 1.0\n"
          + f"{key} = {value}\n")
    runs = []
    monkeypatch.setattr(cli, "_run", lambda *args: runs.append(args))
    with pytest.raises(ConfigError, match=re.escape(message)):
        cli.cmd_sweep(str(cfg), out=io.StringIO())
    assert cli.main(["sweep", str(cfg)]) == cli.EXIT_USAGE
    assert runs == [] and not table.exists()


def test_sweep_reruns_give_identical_tables(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    t1, t2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    write(cfg, SWEEP_CFG.format(table=t1))
    cli.cmd_sweep(str(cfg), out=io.StringIO())
    write(cfg, SWEEP_CFG.format(table=t2))
    cli.cmd_sweep(str(cfg), out=io.StringIO())
    assert t1.read_bytes() == t2.read_bytes()


# --------------------------------------------------------------------------
# main entry


def test_main_dispatch_and_usage():
    assert cli.main([]) == cli.EXIT_USAGE
    assert cli.main(["unknown-cmd"]) == cli.EXIT_USAGE
