"""Benchmark of the gigkdv command line: time and memory to a verdict.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each workload is one `gigkdv` CLI command (see WORKLOADS).  The benchmark is a
closed loop with one client: it starts one child process at a time
(`child.py`), which imports `gigkdv.cli` from this checkout's `src/`, signals
that it is ready, and dispatches the command.  The report the child prints is
checked, and its sha256 must be the same on every repeat of one seed.

With ``--trace 0`` it first runs SETUP_PROBES import-only children, then
repeats the command while the next repeat still fits in ``--seconds``, and
reports end-to-end medians.  The times are scaled to a reference processor
speed, which the `Pace` process measures on the children's processor.  With
``--trace 1`` it runs the command once plainly and once with every gigkdv
layer wrapped by `tracer.Tracer`, and reports per-layer metrics.  Each workload names its dominant layer metrics;
the traced run is marked incorrect when their spans record no calls.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every run, the verdict and report hash per (workload, seed), each metric
with its quartiles, and a fingerprint of the machine.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SETUP_PROBES = 2
RUN_LIMIT_S = 170.0  # a run stops starting children and kills a late one here

# The pace process (see Pace) repeats one chunk of fixed work: PACE_STEPS calls
# of a small Python function, then a gather of PACE_ROWS permuted rows of a
# 1000 x 1000 table (8 MB), the access pattern of the distance-correlation
# permutation test.  At the reference speed it does PACE_RATE chunks per
# CPU-second while it shares the processor with a child; the time metrics are
# scaled to that speed.
PACE_STEPS = 2000
PACE_ROWS = 20
PACE_RATE = 1700.0

# Four commands, each led by a different layer (the "dominant" metrics, whose
# spans must record calls in a traced run); README.md says why each was chosen.
WORKLOADS = {
    "scalar_verify": {
        "argv": ("balance verify --variant fdk --alpha 1 --beta 2 --c1 1 --c2 1"
                 " --lambda 0.5 --n 100000").split(),
        "seed": 7, "report": "balance-verify",
        "dominant": ("balance.dcor_s",),
    },
    "lattice_stationarity": {
        "argv": ("lattice stationarity --n 100000 --t 50 --alpha 1 --beta 2"
                 " --lambda 0.5 --c 1 --probes 10,25,50").split(),
        "seed": 9, "report": "lattice-stationarity",
        "dominant": ("lattice.evolve_self_s", "maps.map_s"),
    },
    "matrix_verify": {
        "argv": "balance verify --variant matrix --r 2 --n 12000".split(),
        "seed": 7, "report": "balance-verify",
        "dominant": ("matrix.mcmc_s", "matrix.is_s"),
    },
    "dist_check": {
        "argv": ["dist", "check"],
        "seed": 20260809, "report": "dist-check",
        "dominant": ("dist.cdf_s",),
    },
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s", "cli.dispatch_s": "s", "cli.write_s": "s",
    "cli.report_bytes": "bytes",
    "balance.dcor_s": "s", "balance.dcor_calls": "count", "balance.dcor_m": "count",
    "balance.dcor_perms": "count", "balance.dcor_perms_per_s": "1/s",
    "balance.transport_s": "s", "balance.self_s": "s",
    "dist.cdf_s": "s", "dist.cdf_points": "count", "dist.cdf_points_per_s": "1/s",
    "dist.draw_s": "s", "dist.draws": "count", "dist.draws_per_s": "1/s",
    "scipy.ks_s": "s",
    "maps.map_s": "s", "maps.map_calls": "count", "maps.map_cells": "count",
    "maps.ns_per_cell": "ns",
    "lattice.evolve_self_s": "s", "lattice.cells": "count", "lattice.cells_per_s": "1/s",
    "matrix.mcmc_s": "s", "matrix.mcmc_steps": "count", "matrix.mcmc_steps_per_s": "1/s",
    "matrix.mcmc_accept_rate": "ratio", "matrix.mcmc_min_ess_per_draw": "ratio",
    "matrix.is_s": "s", "matrix.is_draws": "count", "matrix.is_draws_per_s": "1/s",
    "matrix.is_se_max": "nat", "matrix.map_s": "s",
    "specfun.bessel_calls": "count", "specfun.bessel_s": "s",
    "trace_overhead_s": "s", "dominant_share": "ratio",
}

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _pace_step(i):
    return (i * 0.5) % 7.0


def _pace_loop(counts, parent):
    os.nice(19)
    import numpy as np

    rng = np.random.default_rng(0)
    table = rng.random((1000, 1000))
    weights = rng.random((PACE_ROWS, 1000))
    perms = [rng.permutation(1000) for _ in range(64)]
    done = 0
    while os.getppid() == parent:
        acc = 0.0
        for i in range(PACE_STEPS):
            acc += _pace_step(i)
        rows, cols = perms[done % 64][:PACE_ROWS], perms[(done + 1) % 64]
        acc += float((weights * table[np.ix_(rows, cols)]).mean())
        done += 1
        counts[1] = thread_time()
        counts[0] = done


class Pace:
    """Measures how fast the processor runs while a child runs on it.

    The host's processors are shared, and their speed swings by a factor of
    two within seconds, alike for all code on one processor but apart
    between processors.  So the benchmark, its children and this process are
    pinned to one processor, and this process runs fixed chunks of work at
    the lowest priority, which takes about 1.5 % of the processor from a busy
    child.  Its chunks per CPU-second over a child's lifetime, over
    PACE_RATE, is the speed of the processor during that child relative to
    the reference speed.  On a busy host, memory-bound work such as the dcor
    test slows down more than interpreter work, so the chunk holds both
    kinds, about half of its time each.
    """

    def __enter__(self):
        ctx = multiprocessing.get_context("fork")
        self.counts = ctx.RawArray("d", 2)
        self.proc = ctx.Process(target=_pace_loop, args=(self.counts, os.getpid()), daemon=True)
        self.proc.start()
        deadline = perf_counter() + 30.0
        while self.counts[0] == 0:  # wait for its first chunk
            if perf_counter() > deadline or not self.proc.is_alive():
                self.__exit__()
                raise RuntimeError("the pace process did not start")
            self.proc.join(0.01)
        return self

    def __exit__(self, *exc):
        self.proc.kill()
        self.proc.join()

    def read(self):
        return self.counts[0], self.counts[1]

    @staticmethod
    def speed(start, end):
        chunks, cpu = end[0] - start[0], end[1] - start[1]
        if chunks < 1 or cpu <= 0.0:
            raise RuntimeError("the pace process did not run during a child")
        return chunks / cpu / PACE_RATE


class Run:
    """One finished child process; speed is the processor's speed relative to
    the reference speed while it ran (1.0 when not measured)."""

    def __init__(self, code, wall, setup, rusage, out, trace, speed):
        self.code, self.wall, self.setup, self.out, self.trace = code, wall, setup, out, trace
        self.speed = speed
        self.cpu = rusage.ru_utime + rusage.ru_stime
        self.rss_mb = rusage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.sha = hashlib.sha256(out).hexdigest()
        self.verdict, self.problem = None, None


def spawn(mode, argv, deadline, pace=None):
    """Run child.py once; wall time runs from spawn to exit, set-up time from
    spawn to the child's ready signal."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    rfd, wfd = os.pipe()
    pace_start = pace.read() if pace else None
    t0 = perf_counter()
    try:
        proc = subprocess.Popen([sys.executable, str(CHILD), str(wfd), mode, *argv],
                                stdout=subprocess.PIPE, pass_fds=(wfd,), env=env, cwd=ROOT)
    except BaseException:
        os.close(rfd)
        raise
    finally:
        os.close(wfd)
    killer = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
    killer.start()
    try:
        with os.fdopen(rfd, "rb") as status, proc.stdout:
            ready = status.readline()
            t_ready = perf_counter()
            out = proc.stdout.read()
            trace = status.read()
        _, wstatus, rusage = os.wait4(proc.pid, 0)
        t_end = perf_counter()
        speed = Pace.speed(pace_start, pace.read()) if pace else 1.0
        proc.returncode = os.waitstatus_to_exitcode(wstatus)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if ready != b"ready\n":
        raise RuntimeError(f"child {mode} exited with status {proc.returncode} "
                           "before gigkdv.cli was ready")
    return Run(proc.returncode, t_end - t0, t_ready - t0, rusage, out,
               json.loads(trace) if trace.strip() else None, speed)


# ---------------------------------------------------------------------------
# report checks: each returns the verdict (True for PASS) or raises ValueError
# ---------------------------------------------------------------------------

def _require(cond, what):
    if not cond:
        raise ValueError(what)


def _p_value(p):
    _require(isinstance(p, float) and 0.0 <= p <= 1.0, f"p-value {p!r} outside [0, 1]")


def _check_json(text, command, seed):
    doc = json.loads(text)
    _require(doc["schema"] == "gigkdv-report-v1", "unknown schema")
    _require(doc["command"] == command, f"command {doc['command']!r}")
    _require(doc["seed"] == seed, f"seed {doc['seed']!r}")
    rep = doc["report"]
    if command == "balance-verify":
        _p_value(rep["independence"]["p_value"])
        for stat in rep["ks_stats"].values():
            _p_value(stat["p_value"])
        flags = rep["pass_flags"]
        _require(flags and all(isinstance(v, bool) for v in flags.values()), "pass flags")
        _require(rep["passed"] == all(flags.values()), "verdict disagrees with its flags")
    else:
        tests = rep["tests"]
        _require(len(tests) == 4 * len(rep["probe_times"]) and rep["n_sites"] > 0,
                 "stationarity test count")
        for row in tests:
            _p_value(row["p_value"])
        _require(rep["passed"] == all(row["pass"] for row in tests),
                 "verdict disagrees with its tests")
    return rep["passed"]


def _check_csv(text, command, seed):
    lines = text.splitlines()
    head = lines[0].split()
    _require(head[:2] == ["#", "gigkdv"] and f"cmd={command}" in head
             and f"seed={seed}" in head, "header line")
    _require(lines[1] == "test,statistic,threshold,pass", "column line")
    rows = [line.split(",") for line in lines[2:]]
    _require(len(rows) == 5 and all(len(r) == 4 and r[3] in ("True", "False") for r in rows),
             "battery rows")
    for r in rows:
        float(r[1]), float(r[2])
    return all(r[3] == "True" for r in rows)


def check_run(run, report, seed):
    """Fill in run.verdict, or run.problem when the run failed."""
    if run.code not in (0, 1):
        run.problem = f"exit status {run.code}"
        return
    check = _check_csv if report == "dist-check" else _check_json
    try:
        passed = check(run.out.decode(), report, seed)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        run.problem = f"malformed report: {exc!r}"
        return
    if passed != (run.code == 0):
        run.problem = f"verdict {passed} disagrees with exit status {run.code}"
        return
    run.verdict = "PASS" if passed else "FAIL"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _rate(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(trace, report_bytes, overhead_s, dominant):
    spans, c = trace["spans"], trace["counters"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    m = {
        "cli.import_s": trace["import_s"], "cli.dispatch_s": trace["dispatch_s"],
        "cli.write_s": total("cli.write"), "cli.report_bytes": report_bytes,
        "balance.dcor_s": total("balance.dcor"), "balance.dcor_calls": calls("balance.dcor"),
        "balance.dcor_m": c.get("balance.dcor_m", 0), "balance.dcor_perms": c.get("balance.dcor_perms", 0),
        "balance.transport_s": total("balance.transport"), "balance.self_s": self_s("balance.mc"),
        "dist.cdf_s": total("dist.cdf"), "dist.cdf_points": c.get("dist.cdf_points", 0),
        "dist.draw_s": total("dist.draw"), "dist.draws": c.get("dist.draws", 0),
        "scipy.ks_s": self_s("scipy.ks"),
        "maps.map_s": total("maps.map"), "maps.map_calls": calls("maps.map"),
        "maps.map_cells": c.get("maps.map_cells", 0),
        "lattice.evolve_self_s": self_s("lattice.evolve"), "lattice.cells": c.get("lattice.cells", 0),
        "matrix.mcmc_s": total("matrix.mcmc"), "matrix.mcmc_steps": c.get("matrix.mcmc_steps", 0),
        "matrix.mcmc_accept_rate": _rate(c.get("matrix.mcmc_accept_sum", 0), calls("matrix.mcmc")),
        "matrix.mcmc_min_ess_per_draw": c.get("matrix.mcmc_min_ess_per_draw", 0),
        "matrix.is_s": total("matrix.is"), "matrix.is_draws": c.get("matrix.is_draws", 0),
        "matrix.is_se_max": c.get("matrix.is_se_max", 0), "matrix.map_s": total("matrix.map"),
        "specfun.bessel_calls": calls("specfun.bessel"), "specfun.bessel_s": total("specfun.bessel"),
        "trace_overhead_s": overhead_s,
    }
    m["balance.dcor_perms_per_s"] = _rate(m["balance.dcor_perms"], m["balance.dcor_s"])
    m["dist.cdf_points_per_s"] = _rate(m["dist.cdf_points"], m["dist.cdf_s"])
    m["dist.draws_per_s"] = _rate(m["dist.draws"], m["dist.draw_s"])
    m["maps.ns_per_cell"] = _rate(1e9 * m["maps.map_s"], m["maps.map_cells"])
    m["lattice.cells_per_s"] = _rate(m["lattice.cells"], total("lattice.evolve"))
    m["matrix.mcmc_steps_per_s"] = _rate(m["matrix.mcmc_steps"], m["matrix.mcmc_s"])
    m["matrix.is_draws_per_s"] = _rate(m["matrix.is_draws"], m["matrix.is_s"])
    m["dominant_share"] = _rate(sum(m[k] for k in dominant), m["cli.dispatch_s"])
    return m


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _git_commit():
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def fingerprint():
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), **versions,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
            "git_commit": _git_commit(), "max_concurrent_children": 1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="CLI seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gigkdv" / "cli.py").is_file():
        print(f"run.py: no gigkdv sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = wl["seed"] if args.seed is None else args.seed
    if not 0 <= seed < 2 ** 63:
        ap.error("--seed must lie in [0, 2**63)")
    cli_argv = [*wl["argv"], "--seed", str(seed)]
    deadline = perf_counter() + RUN_LIMIT_S
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    print(f"workload {args.workload} seed {seed}: gigkdv {' '.join(cli_argv)}")

    # one processor for the benchmark, its children and the pace process
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runs, probes = [], []
    if args.trace:
        spawn("probe", [], deadline)  # warm-up, so that both timed runs start alike
        runs = [spawn("run", cli_argv, deadline), spawn("trace", cli_argv, deadline)]
    else:
        with Pace() as pace:
            probes = [spawn("probe", [], deadline, pace) for _ in range(SETUP_PROBES)]
            t_loop = perf_counter()
            while True:
                runs.append(spawn("run", cli_argv, deadline, pace))
                now = perf_counter()
                if now - t_loop + runs[-1].wall > args.seconds or now + runs[-1].wall > deadline:
                    break

    for i, run in enumerate(runs):
        check_run(run, wl["report"], seed)
        if run.problem is None and run.sha != runs[0].sha:
            run.problem = "report differs from the first repeat of this seed"
        print(f"run {i} {'trace' if run.trace else 'plain'}: exit {run.code} "
              f"{run.verdict or 'FAILED (' + run.problem + ')'} wall {run.wall:.4f} s "
              f"setup {run.setup:.4f} s cpu {run.cpu:.4f} s rss {run.rss_mb:.1f} MB "
              f"speed {run.speed:.4f} sha256 {run.sha}")
    failed = sum(run.problem is not None for run in runs)
    correct = failed == 0
    print(f"verdict {args.workload} seed={seed} {runs[0].verdict or 'none'} "
          f"sha256={runs[0].sha}")
    print(f"ops_failed_frac {failed / len(runs)} ratio ({failed} of {len(runs)} runs)")

    if args.trace:
        plain, traced = runs
        if traced.trace is None:  # the traced child died before writing its spans
            traced.trace = {"spans": {}, "counters": {}, "bindings": {},
                            "import_s": 0.0, "dispatch_s": 0.0}
            correct = False
        metrics = layer_metrics(traced.trace, len(traced.out), traced.wall - plain.wall,
                                wl["dominant"])
        units = PER_LAYER
        for name in wl["dominant"]:  # metric <span>_s or <span>_self_s
            span = name.removesuffix("_s").removesuffix("_self")
            if traced.trace["spans"].get(span, [0])[0] == 0:
                print(f"self-test: dominant span {span} recorded no calls")
                correct = False
        print("bindings replaced " + json.dumps(traced.trace["bindings"], sort_keys=True))
        for name in units:
            print(f"metric {name} {metrics[name]} {units[name]}")
    else:
        # times as measured, and scaled to the reference speed (see Pace)
        raw = {"wall_s": [r.wall for r in runs],
               "setup_s": [r.setup for r in probes + runs], "cpu_s": [r.cpu for r in runs]}
        samples = {"wall_s": [r.wall * r.speed for r in runs],
                   "setup_s": [r.setup * r.speed for r in probes + runs],
                   "cpu_s": [r.cpu * r.speed for r in runs],
                   "peak_rss_mb": [r.rss_mb for r in runs]}
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        units = END_TO_END
        print(f"speed median {statistics.median(r.speed for r in probes + runs)} "
              "of the reference")
        for name in units:
            q1, q3 = _quartiles(samples[name])
            print(f"metric {name} median {metrics[name]} {units[name]} "
                  f"(n={len(samples[name])}, q1 {q1}, q3 {q3})")
            if name in raw:
                print(f"unscaled {name} median {statistics.median(raw[name])} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
