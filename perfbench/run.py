"""Benchmark of the ikm command line, end to end and layer by layer.

Usage::

    python3 perfbench/run.py --workload quad-run --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                 # every workload, one report
    python3 perfbench/run.py --workload all --smoke --seconds 1

Each workload is a short sequence of ``ikm`` commands (see ``workloads.py``)
run one process at a time, closed loop, from this single parent process,
against the ``src/`` tree of the checkout this file sits in.

``--trace 0`` repeats rounds until ``--seconds`` have passed (at least three
rounds).  A round runs the host-speed probe (``hostspeed.py``), the setup
command (the first command cut to one iteration) and then the command
sequence, and reports the medians of:

* ``setup_s``: wall time of the setup command, process start to exit;
* ``wall_s``: wall time of the command sequence, summed over its commands;
* ``peak_rss_mb``: the largest max-RSS among the sequence's processes.

Each round's two times are scaled by ``HOST_REF_S`` over the probe time
next to them (see ``host_scaled``), so that drift in the speed of a shared
host cancels; the raw medians are printed beside them.

``--trace 1`` alternates an untraced round of the sequence with a traced one
(each command run through ``traced.py``), plus the bare-loop baseline and an
``-X importtime`` probe, and reports the per-layer metrics listed in
``BENCHMARK.json`` as medians over traced rounds.

Every command is checked: its exit code, its workload gate, and that its
output files are byte-identical to the first ones written in this run (traced
runs included).  Each failure is printed; ``error_rate`` is failed commands
over commands attempted.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACED = os.path.join(BENCH_DIR, "traced.py")
HOSTSPEED = os.path.join(BENCH_DIR, "hostspeed.py")

sys.path.insert(0, BENCH_DIR)
import workloads  # noqa: E402

MIN_ROUNDS = 3
# Nominal wall time of hostspeed.py; setup_s and wall_s are scaled to a host
# on which the probe takes this long.
HOST_REF_S = 0.45
# no round starts after this many seconds, so a run ends well inside 180 s
ROUND_CUTOFF_S = 120.0
COMMAND_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
VERIFY = ("verify_descent", "verify_contraction", "verify_product_bound", "verify_Ck_monotone")
PER_LAYER_UNITS = {
    "import.s": "s",
    "import.scipy_s": "s",
    "problems.build.s": "s",
    "problems.reference.s": "s",
    "problems.reference.steps": "count",
    "linalg.norm_estimate.s": "s",
    "operators.build.s": "s",
    "operators.apply.calls": "count",
    "operators.apply.us": "us",
    "operators.apply.bytes": "computed_bytes",
    "engine.iterations": "count",
    "engine.run.s": "s",
    "engine.run.us_per_iter": "us",
    "engine.overhead.us_per_iter": "us",
    "engine.bare_loop.us_per_iter": "us",
    "engine.history.mb": "computed_MiB",
    **{f"engine.{name}.s": "s" for name in VERIFY},
    "certificates.s": "s",
    "cli.self.s": "s",
    "cli.write_trace.s": "s",
    "cli.read_trace.s": "s",
    "cli.trace.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

ENV_PROBE = (
    "import json, numpy, scipy, ikm.cli\n"
    "blas = getattr(numpy.__config__, 'CONFIG', {}).get('Build Dependencies', {}).get('blas', {})\n"
    "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,\n"
    "                  'blas': blas.get('name'), 'blas_version': blas.get('version')}))\n"
)


class Session:
    """Runs one workload's commands, applies its gates and counts failures."""

    def __init__(self, workload: workloads.Workload, workdir: str, env: Dict[str, str]):
        self.workload = workload
        self.workdir = workdir
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[Tuple[Tuple[str, ...], str], str] = {}

    def spawn(self, argv: List[str]) -> Tuple[float, float, int, str, str]:
        """Run ``argv`` to completion: (wall s, max RSS MiB, exit code, stdout, stderr)."""
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr

    def report(self, label: str, fails: List[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            for msg in fails:
                print(f"FAIL {self.workload.name} {label}: {msg}", flush=True)

    def run(self, cmd: workloads.Command, spans_out: Optional[str] = None,
            run_id: str = "") -> Tuple[float, float]:
        """One gated CLI command, untraced or (with ``spans_out``) traced."""
        if spans_out is None:
            argv = [sys.executable, "-m", "ikm.cli"] + cmd.args
        else:
            argv = [sys.executable, TRACED, "--out", spans_out, "--workload", self.workload.name,
                    "--run-id", run_id, "--"] + cmd.args
        label = "ikm " + " ".join(cmd.args) + (" (traced)" if spans_out else "")
        wall, rss, rc, stdout, stderr = self.spawn(argv)
        fails = []
        if rc != cmd.expect_rc:
            fails.append(f"exit code {rc}, expected {cmd.expect_rc}; stderr: {stderr[-500:]!r}")
        if cmd.gate is not None:
            try:
                fails += cmd.gate(stdout, self.workdir)
            except (OSError, ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
                fails.append(f"gate could not read the output: {exc!r}")
        for name in cmd.outputs:
            try:
                digest = _sha256(os.path.join(self.workdir, name))
            except OSError as exc:
                fails.append(f"missing output {name}: {exc}")
                continue
            first = self.digests.setdefault((tuple(cmd.args), name), digest)
            if digest != first:
                fails.append(f"{name} is not byte-identical to the first run's")
        self.report(label, fails)
        return wall, rss


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------------
# untraced rounds: end-to-end metrics


def _probe(session: Session) -> float:
    wall, _, rc, _, stderr = session.spawn([sys.executable, HOSTSPEED])
    session.report("host-speed probe", [] if rc == 0 else [f"exit code {rc}: {stderr[-500:]}"])
    return wall


def measure(session: Session, seconds: float) -> Dict[str, List[float]]:
    """Raw samples per round; ``host_s`` holds the probe before each round and one after."""
    wl = session.workload
    samples: Dict[str, List[float]] = {"setup_s": [], "wall_s": [], "peak_rss_mb": [],
                                       "host_s": []}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(samples["wall_s"])
        if (done >= MIN_ROUNDS and elapsed >= seconds) or (done and elapsed >= ROUND_CUTOFF_S):
            break
        samples["host_s"].append(_probe(session))
        samples["setup_s"].append(session.run(wl.setup)[0])
        wall, peak = 0.0, 0.0
        for cmd in wl.commands:
            w, rss = session.run(cmd)
            wall += w
            peak = max(peak, rss)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(peak)
    samples["host_s"].append(_probe(session))
    return samples


def host_scaled(samples: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """Per-round times at reference host speed.

    Each time is multiplied by ``HOST_REF_S`` over the probe time next to it:
    the probe just before the setup command, and the mean of the probes
    before and after the command sequence.
    """
    host = samples["host_s"]
    return {
        "setup_s": [t * HOST_REF_S / host[r] for r, t in enumerate(samples["setup_s"])],
        "wall_s": [t * HOST_REF_S * 2.0 / (host[r] + host[r + 1])
                   for r, t in enumerate(samples["wall_s"])],
        "peak_rss_mb": samples["peak_rss_mb"],
    }


# --------------------------------------------------------------------------
# traced rounds: per-layer metrics


def _scipy_import_s(session: Session) -> float:
    """Cumulative import time of the outermost scipy modules under ``import ikm``."""
    _, _, rc, _, stderr = session.spawn([sys.executable, "-X", "importtime", "-c", "import ikm"])
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit() and name.strip().startswith("scipy"):
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            entries.append((depth, int(cumulative)))
    session.report("python -X importtime -c 'import ikm'",
                   [] if rc == 0 and entries else [f"importtime probe failed (exit {rc})"])
    if not entries:
        return 0.0
    top = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == top) / 1e6


def _bare_loop(session: Session, iters: int, engine_residual: Optional[float]) -> float:
    """Microseconds per iteration of the bare KM loop; checks it matches the engine."""
    cfg, alpha, lam = session.workload.bare
    out = os.path.join(session.workdir, "bare.json")
    argv = [sys.executable, TRACED, "--out", out, "--bare-loop", cfg,
            "--alpha", repr(alpha), "--lambda", repr(lam), "--iters", str(iters)]
    _, _, rc, _, stderr = session.spawn(argv)
    fails = [] if rc == 0 else [f"exit code {rc}; stderr: {stderr[-500:]!r}"]
    result = {"iters": 1, "seconds": 0.0, "final_residual": None}
    if not fails:
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        if result["final_residual"] != engine_residual:
            fails.append(f"final residual {result['final_residual']!r} differs from the "
                         f"engine's {engine_residual!r} after {iters} iterations")
    session.report("bare loop", fails)
    return result["seconds"] / max(result["iters"], 1) * 1e6


def layer_metrics(traces: List[dict], workload: workloads.Workload) -> Dict[str, float]:
    """Per-layer totals of one traced round; ``.s`` metrics are self time."""
    self_s: Dict[str, float] = defaultdict(float)
    run_s = apply_s = apply_in_run_s = 0.0
    calls = iters = picard = trace_bytes = 0
    history = 0
    for tr in traces:
        covered: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, *_ in tr["spans"]:
            if parent is not None:
                covered[parent] += end - start
        for sid, (n, t) in tr["apply"].items():
            covered[int(sid)] += t
            calls += n
            apply_s += t
        names = {span[0]: span[1] for span in tr["spans"]}
        for sid, name, start, end, *_ in tr["spans"]:
            self_s[name] += end - start - covered[sid]
            if name == "engine.run":
                run_s += end - start
        for sid, (n, t) in tr["apply"].items():
            if names.get(int(sid)) == "engine.run":
                apply_in_run_s += t
        for _, n_rows, n_bytes, _ in tr["runs"]:
            iters += n_rows
            history = max(history, n_bytes)
        picard += tr["picard_steps"]
        trace_bytes += tr["trace_bytes"]
    per_iter = 1e6 / iters if iters else 0.0
    metrics = {
        "import.s": _median([tr["import_s"] for tr in traces]),
        "problems.build.s": self_s["problems.make"],
        "problems.reference.s": self_s["problems.reference"],
        "problems.reference.steps": picard,
        "linalg.norm_estimate.s": self_s["linalg.norm_estimate"],
        "operators.build.s": self_s["operators.build"],
        "operators.apply.calls": calls,
        "operators.apply.us": apply_s / calls * 1e6 if calls else 0.0,
        "operators.apply.bytes": workload.apply_bytes,
        "engine.iterations": iters,
        "engine.run.s": run_s,
        "engine.run.us_per_iter": run_s * per_iter,
        "engine.overhead.us_per_iter": (run_s - apply_in_run_s) * per_iter,
        "engine.history.mb": history / 2 ** 20,
        "certificates.s": self_s["certificates"],
        "cli.self.s": self_s["cli.main"],
        "cli.write_trace.s": self_s["cli.write_trace"],
        "cli.read_trace.s": self_s["cli.read_trace"],
        "cli.trace.bytes": trace_bytes,
    }
    for name in VERIFY:
        metrics[f"engine.{name}.s"] = self_s[f"engine.{name}"]
    return metrics


def measure_traced(session: Session, seconds: float) -> Dict[str, List[float]]:
    wl = session.workload
    untraced: List[float] = []
    traced: List[float] = []
    rounds: List[Dict[str, float]] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if rounds and elapsed >= min(seconds, ROUND_CUTOFF_S):
            break
        untraced.append(sum(session.run(cmd)[0] for cmd in wl.commands))
        traces, wall = [], 0.0
        run_id = f"{os.path.basename(session.workdir)}-r{len(rounds)}"
        for i, cmd in enumerate(wl.commands):
            path = os.path.join(session.workdir, f"spans-r{len(rounds)}-c{i}.json")
            wall += session.run(cmd, spans_out=path, run_id=run_id)[0]
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    traces.append(json.load(fh))
        traced.append(wall)
        metrics = layer_metrics(traces, wl)
        first_run = next((r for tr in traces for r in tr["runs"]), None)
        metrics["engine.bare_loop.us_per_iter"] = _bare_loop(
            session, first_run[1] if first_run else 1, first_run[3] if first_run else None)
        metrics["import.scipy_s"] = _scipy_import_s(session)
        rounds.append(metrics)
    samples = {name: [r[name] for r in rounds] for name in rounds[0]}
    samples["trace.overhead_frac"] = [_median(traced) / _median(untraced) - 1.0]
    return samples


# --------------------------------------------------------------------------
# environment record


def _git_sha() -> Optional[str]:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ikm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _cache_sizes() -> Dict[str, Optional[int]]:
    sizes: Dict[str, Optional[int]] = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
            sizes[name] = int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            sizes[name] = None
    return sizes


def environment(seed: int, versions: dict) -> dict:
    return {
        "seed": seed,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var, "default")
                         for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cache_bytes": _cache_sizes(),
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------
# entry point


def child_env() -> Dict[str, str]:
    """Environment of the CLI processes: ``src/`` first on the path, defaults otherwise."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    env.pop("IKM_THREADS", None)  # sweeps run their rows sequentially, the default
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 env: Dict[str, str]) -> Tuple[Session, Dict[str, List[float]]]:
    wl = workloads.make(name, seed, smoke)
    workdir = os.path.join(WORK, f"{name}-s{seed}-t{int(trace)}" + ("-smoke" if smoke else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for fname, text in wl.files.items():
        with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
    session = Session(wl, workdir, env)
    samples = measure_traced(session, seconds) if trace else measure(session, seconds)
    return session, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes: checks the harness, measures nothing useful")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through spawn() so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "ikm", "cli.py")):
        print(f"error: no ikm sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    os.makedirs(WORK, exist_ok=True)
    # the probe also warms the page cache before the first timed command
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=WORK, env=env,
                           capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    if probe.returncode != 0:
        print(f"error: cannot import ikm from {SRC}:\n{probe.stderr}", file=sys.stderr)
        return 2
    env_record = environment(args.seed, json.loads(probe.stdout))
    print("env " + json.dumps(env_record, sort_keys=True), flush=True)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    for name in names:
        session, samples = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        args.smoke, env)
        attempted += session.attempted
        failed += session.failed
        prefix = f"{name}/" if args.workload == "all" else ""
        reported = samples if args.trace else host_scaled(samples)
        if not args.trace:
            print(f"{name:15s} {'host-speed probe':30s} median {_median(samples['host_s']):.6g} s "
                  f"(n={len(samples['host_s'])}, reference {HOST_REF_S} s)", flush=True)
        for metric, unit in units.items():
            values = reported[metric]
            value = _median(values)
            metrics[prefix + metric] = {"value": value, "unit": unit}
            raw = "" if values is samples[metric] else f"raw median {_median(samples[metric]):.6g}, "
            print(f"{name:15s} {metric:30s} median {value:.6g} {unit} ({raw}n={len(values)}, "
                  f"min {min(values):.6g}, max {max(values):.6g})", flush=True)
        print(f"{name:15s} {'error_rate':30s} {session.failed / session.attempted:.6g} "
              f"({session.failed} failed of {session.attempted} commands)", flush=True)
        with open(os.path.join(session.workdir, "result.json"), "w", encoding="utf-8") as fh:
            json.dump({"env": env_record, "workload": name, "trace": args.trace,
                       "attempted": session.attempted, "failed": session.failed,
                       "raw_samples": samples, "samples": reported}, fh, indent=1,
                      sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
