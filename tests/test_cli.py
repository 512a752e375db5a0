import io

import pytest

from ikm import cli, engine
from ikm.config import (
    ConfigError,
    ConfigView,
    deserialize_config,
    parse_config,
    serialize_config,
)
from ikm.engine import DivergenceError, Schedule, StoppingRule


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
    assert lines[0] == "# ikm-trace-v1"
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
    # corrupt dist_to_ref of a mid-trace row (column 8 of the CSV)
    row = lines[100].split(",")
    row[7] = "%.17g" % (float(row[7]) + 1.0)
    lines[100] = ",".join(row)
    trace.write_text("\n".join(lines) + "\n")
    buf = io.StringIO()
    assert cli.cmd_certify(str(trace), out=buf) == cli.EXIT_CHECK_FAILED
    assert "FAIL" in buf.getvalue()


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
