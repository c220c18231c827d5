"""scqsim benchmark: one command, four seeded workloads, every metric by name.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 10 --trace 0

Run from the repository root.  Workloads: spectra, drive, decoherence
(warm library process) and cli (a fresh interpreter per command).  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics from a separate traced run.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

The tasks, references, tolerances and baseline are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from worker import HERE, ROOT, SRC, ScaledClock, child_env

SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0  # the whole run, set-up samples included
DEADLINE = time.monotonic() + RUN_TIMEOUT_S


def worker_argv(args, probe=False) -> list:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + ["--probe"] if probe else argv


def start_worker(argv, env):
    """Start a worker; return (process, seconds until it printed 'ready')."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc)
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, ready


def finish(proc) -> str:
    """Wait for a worker (killing its process group on timeout); return its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"run exceeded {RUN_TIMEOUT_S:.0f} s")
    return out


def cli_setup_sample(env) -> float:
    """Wall time of a no-op CLI invocation: interpreter, imports and argparse."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "scqsim", "--help"], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"'python -m scqsim --help' exited with {done.returncode}")
    return time.perf_counter() - start


def measure(args, env):
    """Set-up samples as (wall, scaled) pairs (untraced runs only) and the worker's result."""
    samples, clock = [], ScaledClock()
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        if args.workload == "cli":
            wall = cli_setup_sample(env)
        else:
            proc, wall = start_worker(worker_argv(args, probe=True), env)
            finish(proc)
        samples.append((wall, clock.scale(wall)))
    proc, _ = start_worker(worker_argv(args), env)
    out = finish(proc)
    results = [line[len("result "):] for line in out.splitlines() if line.startswith("result ")]
    if proc.returncode != 0 or not results:
        raise RuntimeError(f"worker exited with {proc.returncode} and no result")
    return samples, json.loads(results[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="scqsim benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=("spectra", "drive", "decoherence", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10, help="measure passes for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "scqsim", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"perfbench: {ROOT} holds no src/scqsim or BENCHMARK.json; run from the repository root",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    try:
        samples, res = measure(args, child_env())
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], len(res["failures"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("record " + json.dumps(res["record"], sort_keys=True))
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    print(f"passes wall_s = {', '.join(f'{w:.4f}' for w in res['passes'])}")
    if "scaled_passes" in res:
        print(f"passes scaled_s = {', '.join(f'{w:.4f}' for w in res['scaled_passes'])}")
    if "commands_s" in res:
        print("commands_s = " + ", ".join(f"{k} {v:.3f}" for k, v in res["commands_s"].items()))
    print(f"error_rate = {failed / attempted:.4g} ({failed} of {attempted} tasks failed)")

    if args.trace:
        values = res["layers"]
        wanted = spec["per_layer"]
        for target, reason in sorted(res["absent"].items()):
            print(f"absent span {target}: {reason}")
        base = values["trace.pass_s"]
        shares = ", ".join(f"{k} {100 * v / base:.1f}%" for k, v in sorted(res["self_s"].items(), key=lambda kv: -kv[1]) if v > 0)
        print(f"self-time shares of trace.pass_s = {base:.3f} s: {shares}")
    else:
        setup = statistics.median(scaled for _, scaled in samples)
        values = {"wall_s": res["wall_s"], "setup_s": setup, "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
        print(f"setup samples wall_s = {', '.join(f'{w:.4f}' for w, _ in samples)}")
        print(f"setup samples scaled_s = {', '.join(f'{s:.4f}' for _, s in samples)}")
        print(f"unscaled medians: wall_s = {statistics.median(res['passes']):.4f} s, "
              f"setup_s = {statistics.median(w for w, _ in samples):.4f} s")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
