"""The measuring process started by run.py; one per run.

    python3 perfbench/worker.py --workload spectra --seed 1 --seconds 10 --trace 0 [--probe]

It imports scqsim from ./src, warms its lazy caches and prints ``ready``
(with ``--probe`` it stops there: run.py times such probes as set-up
samples).  Then it draws the seeded inputs and references, forks, and
the forked copy runs one warm-up pass and times passes over the task
list until ``--seconds`` have gone by (at least one pass); the copy's
peak RSS is ``peak_rss_mb``.  Pass times are speed-scaled (ScaledClock).
It prints one ``result {json}`` line.  With ``--trace 1`` it times one
untraced pass, installs the span wrappers and times one traced pass
instead.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
LIBRARY_WORKLOADS = ("spectra", "drive", "decoherence")
OVERHEAD_SUBSET = ("spectrum_cpb", "cnot", "noise_psd")  # cli commands also run untraced when tracing
# spectra's passes are LAPACK-bound and do not follow the speed kernel, so
# scaling would only add the kernel's noise (README, "Speed-scaled timings")
RAW_WALL_WORKLOADS = ("spectra",)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, log_path):
    """Run a process to completion: (wall seconds, exit code, peak RSS in MB)."""
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=log, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


KERNEL_NOMINAL_S = 0.015  # the speed kernel's typical time on the baseline machine (README)


def kernel_s() -> float:
    """The fastest of three runs of a fixed pure-Python kernel on the calling
    thread's CPU (the first runs after an idle wait read slow)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - start)
    return min(times)


class ScaledClock:
    """Wall time rescaled to a nominal machine speed.

    The host's speed shifts by up to 1.8x for tens of seconds at a time,
    which no run length averages out.  So the speed kernel runs before
    and after each timed piece of work, and the work's wall time is
    multiplied by KERNEL_NOMINAL_S over the mean of the two kernel times.
    """

    def __init__(self):
        self.kernel = kernel_s()

    def time(self, fn):
        """Call ``fn()``: (wall s, scaled s, the exception it raised or None)."""
        error = None
        start = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # a task failure counts in error_rate, not a crash
            error = exc
        wall = time.perf_counter() - start
        return wall, self.scale(wall), error

    def scale(self, wall: float) -> float:
        """Rescale ``wall`` seconds of work that began at the last kernel and ended now."""
        before, self.kernel = self.kernel, kernel_s()
        return wall * KERNEL_NOMINAL_S / ((before + self.kernel) / 2)


def run_pass(tasks, tracer=None):
    """Run every task once: (wall s, scaled s, failures).  A failing task is
    recorded, its time counts, and the pass goes on."""
    clock, wall, scaled, failures = ScaledClock(), 0.0, 0.0, []
    for name, fn in tasks:
        if tracer:
            fn = _in_span(tracer, f"task.{name}", fn)
        task_wall, task_scaled, error = clock.time(fn)
        wall += task_wall
        scaled += task_scaled
        if error is not None:
            failures.append(f"{name}: {type(error).__name__}: {error}")
    return wall, scaled, failures


def _in_span(tracer, name, fn):
    def call():
        idx = tracer.begin(name)
        try:
            fn()
        finally:
            tracer.end(idx)

    return call


# --- run record ------------------------------------------------------------------


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None  # not a git checkout, or a packed ref


def _src_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def calibrate() -> dict:
    """A fixed kernel timed in every run, to make machine drift visible (ms, median of 5)."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
    kernels = {
        "matmul_c192_x10": lambda: [a @ a for _ in range(10)],
        "telegraph_draws_1M": lambda: np.cumsum(rng.random(1 << 20) < 0.01),
        "python_loop_200k": lambda: sum(i * i for i in range(200_000)),
    }
    out = {}
    for name, kernel in kernels.items():
        times = []
        for _ in range(5):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        out[name] = 1e3 * statistics.median(times)
    return out


def run_record(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads_inherited": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "calibration_ms": calibrate(),
    }


# --- per-layer metrics -----------------------------------------------------------


def layer_metrics(tracer, derived: dict) -> dict:
    """Every per_layer metric named in BENCHMARK.json, from the spans and counts."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    selfs = tracer.self_times()
    counts = tracer.counts
    rk4 = counts.get("core.rk4.steps", 0)
    td = counts.get("integrate.schrodinger_td.steps", 0) + counts.get("integrate.lindblad_td.steps", 0)
    samples = counts.get("noise.samples", 0)
    segments = counts.get("noise.welch.segments", 0)
    derived = {
        "core.rk4.us_per_step": 1e6 * tracer.inclusive("core.rk4") / rk4 if rk4 else 0.0,
        "integrate.us_per_step": 1e6 * (tracer.inclusive("integrate.schrodinger_td")
                                        + tracer.inclusive("integrate.lindblad_td")) / td if td else 0.0,
        "noise.ns_per_sample": 1e9 * tracer.inclusive("noise.rtn") / samples if samples else 0.0,
        "noise.welch.ms_per_segment": 1e3 * tracer.inclusive("noise.welch") / segments if segments else 0.0,
        "trace.spans": len(tracer.spans),
        "trace.absent": len(tracer.absent),
        **derived,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".self_s"):
            out[name] = selfs.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            out[name] = tracer.calls(name[: -len(".calls")])
        elif name.endswith(".s"):
            out[name] = tracer.inclusive(name[:-2])
        else:
            out[name] = counts.get(name, 0)
    return out


# --- workloads -------------------------------------------------------------------


def in_fork(fn):
    """Run ``fn()`` in a forked copy of this process: (its JSON result, the copy's peak RSS in MB).

    A forked process's peak RSS starts at the memory resident when it is
    forked, not at this process's high-water mark, so what was allocated
    and freed here before (references, calibration) does not count.
    The only threads here are OpenBLAS's pool, which OpenBLAS shuts down
    before a fork (pthread_atfork) and restarts on its next call.
    """
    gc.collect()
    try:  # give freed heap back to the OS (glibc) so that it is not resident in the copy
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # another C library: freed heap stays resident and counts in the copy's peak
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "w") as out:
                json.dump(fn(), out)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as inp:
        data = inp.read()
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"forked pass process exited with {code}")
    return json.loads(data), usage.ru_maxrss / 1024.0


def timed_passes(tasks, seconds):
    """One untimed warm-up pass, then timed passes for ``seconds`` (at least one).
    Every pass is checked; its failures count."""
    _, _, failures = run_pass(tasks)
    walls, scaled, start = [], [], time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, wall_scaled, failed = run_pass(tasks)
        walls.append(wall)
        scaled.append(wall_scaled)
        failures += failed
    return walls, scaled, failures


def library_run(args, tasks) -> dict:
    if not args.trace:
        (walls, scaled, failures), peak = in_fork(lambda: timed_passes(tasks, args.seconds))
        wall_s = statistics.median(walls if args.workload in RAW_WALL_WORKLOADS else scaled)
        return {"passes": walls, "scaled_passes": scaled, "wall_s": wall_s, "failures": failures,
                "attempted": len(tasks) * (1 + len(walls)), "peak_rss_mb": peak}

    import tracing

    untraced, _, failures = run_pass(tasks)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced, _, failed = run_pass(tasks, tracer)
    tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    derived = {"trace.pass_s": traced, "trace.untraced_s": untraced, "trace.overhead": traced / untraced - 1.0}
    return {"passes": [untraced, traced], "failures": failures + failed, "attempted": 2 * len(tasks),
            "layers": layer_metrics(tracer, derived), "absent": tracer.absent,
            "self_s": tracer.self_times()}


def cli_run(args, workdir) -> dict:
    import cliwork
    import tracing

    env = child_env()
    cmds = cliwork.commands(args.seed, workdir)
    peaks, walls = {}, {}

    def task(cmd, tracer=None):
        def run():
            log = os.path.join(workdir, f"{cmd.label}.log")
            if tracer is None:
                argv = [sys.executable, "-m", "scqsim", *cmd.args]
                walls[cmd.label], code, peaks[cmd.label] = run_child(argv, env, log)
            else:
                spans = os.path.join(workdir, f"{cmd.label}.spans.json")
                idx = tracer.begin(f"cli.cmd.{cmd.label}")
                try:
                    argv = [sys.executable, os.path.join(HERE, "cli_child.py"), *cmd.args]
                    walls[cmd.label], code, peaks[cmd.label] = run_child(argv, dict(env, PERFBENCH_SPANS=spans), log)
                finally:
                    tracer.end(idx)
                if os.path.exists(spans):
                    with open(spans, encoding="utf-8") as fh:
                        child = json.load(fh)
                    tracer.graft(child["spans"], idx)
                    for key, value in child["counts"].items():
                        (tracer.peak if key.endswith(".max") else tracer.add)(key, value)
                    tracer.absent.update(child["absent"])
            if code != 0:
                with open(log, encoding="utf-8", errors="replace") as fh:
                    tail = fh.read().strip().splitlines()[-1:] or ["(no stderr)"]
                raise RuntimeError(f"exit code {code}: {tail[0]}")
            cmd.check(cmd.out)

        return (cmd.label, run)

    if not args.trace:
        timed = [c for c in cmds if not c.traced_only]
        wall, scaled, failures = run_pass([task(c) for c in timed])
        return {"passes": [wall], "scaled_passes": [scaled], "wall_s": scaled, "failures": failures,
                "attempted": len(timed),
                "peak_rss_mb": max(peaks.values()), "commands_s": walls}

    tracer = tracing.Tracer()
    traced, _, failures = run_pass([task(c, tracer) for c in cmds], tracer)
    rss_traced = max(peaks.values())
    subset = [c for c in cmds if c.label in OVERHEAD_SUBSET]
    untraced, _, failed = run_pass([task(c) for c in subset])
    traced_subset = sum(tracer.inclusive(f"cli.cmd.{label}") for label in OVERHEAD_SUBSET)
    tracer.dump(os.path.join(OUT_DIR, f"trace-cli-seed{args.seed}.json"))
    serial = tracer.inclusive("cli.cmd.spectrum_flux3_threads1")
    pooled = tracer.inclusive("cli.cmd.spectrum_flux3_threads2")
    derived = {
        "trace.pass_s": traced,
        "trace.untraced_s": untraced,
        "trace.overhead": traced_subset / untraced - 1.0,
        "cli.pool_speedup": serial / pooled if pooled else 0.0,
        "cli.child_peak_rss_mb": rss_traced,
    }
    return {"passes": [traced, untraced], "failures": failures + failed,
            "attempted": len(cmds) + len(subset),
            "layers": layer_metrics(tracer, derived), "absent": tracer.absent,
            "self_s": tracer.self_times()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=LIBRARY_WORKLOADS + ("cli",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit once set-up is done")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    if args.workload in LIBRARY_WORKLOADS:
        import scqsim

        if os.path.dirname(os.path.abspath(scqsim.__file__)) != os.path.join(SRC, "scqsim"):
            print(f"worker: scqsim imported from {scqsim.__file__}, not {SRC}", file=sys.stderr)
            return 2
        import workloads

        warm, build = workloads.LIBRARY[args.workload]
        warm()
    print("ready", flush=True)
    if args.probe:
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        record = run_record(args.workload, args.seed)
        if args.workload == "cli":
            result = cli_run(args, workdir)
        else:
            result = library_run(args, build(args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["record"] = record
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
