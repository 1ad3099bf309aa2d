"""cavitysim benchmark: time to a solution on three scenario workloads.

    python3 bench/run.py --workload {fig2_rabi,fig5_d3_map,wstate_n4}
                         --seed N --seconds S --trace {0,1}

Run from the root of a cavitysim checkout.  Each sample is a fresh
interpreter (bench/worker.py) that imports cavitysim from ./src, parses
the workload config and calls `cavitysim.cli.main(["run", ...])` once,
exactly as a user would; its run directory is then checked against the
workload's closed form (bench/workloads.py).  Samples repeat until S
seconds have passed; the figures reported are medians over the samples.
On the interpreter-bound workloads, chunks of a fixed reference kernel are
timed inside each worker during its run call, and the sample's run time is
scaled by the host speed they measure (bench/hostspeed.py).

--trace 0 reports the end-to-end metrics (set-up time, run time, output
steps per second, peak resident memory).  --trace 1 alternates untraced
and traced samples and reports per-layer self times and counts from the
traced ones (bench/tracing.py), plus the tracing overhead.  Every line of
output names its metric and unit; the last line is one JSON object.
Results, the environment and the last traced sample's spans are written
under ./.bench_work/.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Set-up-only interpreters started before the samples, so that setup_s is
# a median over several set-ups even when few samples fit in a run.
SETUP_PROBES = 2
# Every run must end well inside 180 s: no sample starts after
# START_LIMIT_S, and a sample still running at HARD_LIMIT_S is killed.
START_LIMIT_S = 120.0
HARD_LIMIT_S = 170.0

# per-layer metric -> (unit, source, span names or key).  "self" sums the
# self time of the named spans, "calls" counts them, "counter" reads a
# tracer counter and "output" a figure the output check measured.
# tracing_overhead_s is the traced minus the untraced median run_s.
PER_LAYER = {
    "config.parse_s": ("s", "self", "config.parse_config"),
    "coupling.synth_fieldmap_s": ("s", "self", "coupling.synth_fieldmap"),
    "coupling.coupling_ratio_s": ("s", "self", "coupling.coupling_ratio"),
    "coupling.coupling_ratio_calls": ("count", "calls", "coupling.coupling_ratio"),
    "model.build_generator_s": ("s", "self", "model.build_generator"),
    "model.build_generator_calls": ("count", "calls", "model.build_generator"),
    "model.liouvillian_s": ("s", "self", "model.liouvillian_matrix"),
    "model.liouvillian_calls": ("count", "calls", "model.liouvillian_matrix"),
    "model.liouvillian_mb": ("MB-computed", "counter", "model.liouvillian_mb"),
    "dynamics.integrate_self_s": ("s", "self", "dynamics.integrate"),
    "dynamics.integrate_calls": ("count", "calls", "dynamics.integrate"),
    "dynamics.output_steps": ("count", "counter", "dynamics.output_steps"),
    "dynamics.analysis_s": ("s", "self", "dynamics.rabi_frequency",
                            "dynamics.envelope_lifetime"),
    "entanglement.partial_trace_s": ("s", "self", "entanglement.partial_trace"),
    "entanglement.partial_trace_calls": ("count", "calls", "entanglement.partial_trace"),
    "entanglement.entropy_s": ("s", "self", "entanglement.entropy_normalized"),
    "entanglement.entropy_calls": ("count", "calls", "entanglement.entropy_normalized"),
    "entanglement.concurrence_s": ("s", "self", "entanglement.concurrence"),
    "entanglement.concurrence_calls": ("count", "calls", "entanglement.concurrence"),
    "dynamics.csv_write_s": ("s", "self", "dynamics.write_trajectory_csv"),
    "dynamics.csv_rows": ("count", "output", "output_steps"),
    "runner.bytes_written": ("B", "output", "bytes_written"),
    "runner.self_s": ("s", "self", "runner.run_scenario"),
    "tracing_overhead_s": ("s", "overhead"),
}


def pin_threads(workload_threads) -> int:
    """Pin BLAS threads for this process and its workers; return the count.

    Called before numpy is imported here or in a worker.  Only one worker
    runs at a time, so a run never uses more threads than cores.  Fixing
    the string hash seed keeps dict and set layouts the same in every
    worker.
    """
    nproc = len(os.sched_getaffinity(0))
    threads = nproc if workload_threads is None else min(workload_threads, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ["PYTHONHASHSEED"] = "0"
    return threads


def environment(seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cavitysim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    git_rev = None
    # Only the checkout's own repository: git would otherwise search the
    # directories above it.
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            git_rev = rev.stdout.strip() if rev.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads_env": blas_threads,
        "openblas_threads": _openblas_threads(),
        "workers": 1,
        "seed": seed,
    }


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def spawn(cfg_path: str, sample_dir: str, run: bool, trace: bool, host_probe: bool,
          timeout: float) -> dict:
    """Start one worker, wait for it, and return its result with setup_s."""
    os.makedirs(sample_dir)
    result_path = os.path.join(sample_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--config", cfg_path, "--result", result_path]
    if run:
        cmd += ["--output-dir", os.path.join(sample_dir, "out")]
    if trace:
        cmd.append("--trace")
    if host_probe:
        cmd.append("--host-probe")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {timeout:.0f} s and was killed"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = (proc.stderr or "").strip().splitlines()[-5:]
        return {"error": f"worker exit {proc.returncode}: " + " | ".join(tail)}
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    res["setup_s"] = res["setup_done"] - started
    if not res["cavitysim_file"].startswith(SRC + os.sep):
        res["error"] = f"imported cavitysim from {res['cavitysim_file']}, not {SRC}"
    return res


def layer_metrics(sample: dict) -> dict:
    """Per-layer figures of one traced sample, except tracing_overhead_s."""
    import tracing

    self_s, calls = tracing.self_times(sample["spans"], sample["probe_intervals"])
    sources = {"self": self_s, "calls": calls, "counter": sample["counters"], "output": sample}
    return {
        name: sum(sources[source].get(key, 0) for key in keys)
        for name, (_, source, *keys) in PER_LAYER.items()
        if source != "overhead"
    }


def summarize(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cavitysim", "__init__.py")):
        print(f"error: no cavitysim package under {SRC}; run from a cavitysim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # this script's directory is first on sys.path

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    blas_threads = pin_threads(wl.blas_threads)
    g = workloads.draw_g(args.seed, wl.base_g)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg_path = os.path.join(work, "workload.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(wl.config(g))

    env = environment(args.seed, blas_threads)
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} g_ghz={g!r}")

    start = time.monotonic()
    setups, untraced, traced = [], [], []
    attempted = failed = 0
    for k in range(SETUP_PROBES):
        res = spawn(cfg_path, os.path.join(work, f"setup{k}"), False, False, False,
                    HARD_LIMIT_S - (time.monotonic() - start))
        if "error" in res:
            print(f"setup probe failed: {res['error']}", file=sys.stderr)
        else:
            setups.append(res["setup_s"])

    k = 0
    while True:
        elapsed = time.monotonic() - start
        have_both = untraced and traced if args.trace else untraced
        if (elapsed >= args.seconds and have_both) or elapsed >= START_LIMIT_S:
            break
        trace = bool(args.trace) and k % 2 == 1
        sample_dir = os.path.join(work, f"sample{k}")
        k += 1
        attempted += 1
        res = spawn(cfg_path, sample_dir, True, trace, wl.host_corrected,
                    HARD_LIMIT_S - elapsed)
        if "error" not in res:
            try:
                res.update(workloads.check_outputs(
                    args.workload, os.path.join(sample_dir, "out"), g))
            except (workloads.CheckError, OSError, KeyError, ValueError) as exc:
                res["error"] = f"output check: {exc}"
        if "error" in res:
            failed += 1
            print(f"sample {k - 1} failed: {res['error']}", file=sys.stderr)
        else:
            setups.append(res["setup_s"])
            if trace:
                res["layers"] = layer_metrics(res)
                last_spans = res.pop("spans")
                traced.append(res)
            else:
                untraced.append(res)
        shutil.rmtree(sample_dir, ignore_errors=True)

    if not untraced or not setups:
        print(f"error: no sample of {args.workload} succeeded", file=sys.stderr)
        return 1

    # wall_s is the measured wall time of the run call.  On host-corrected
    # workloads run_s, the figure reported, is the program's own time (wall_s
    # less the probe's chunks) scaled by the host's speed (hostspeed.py); on
    # the others it is wall_s.
    if wl.host_corrected:
        import hostspeed

        for r in untraced + traced:
            r["run_s"] = hostspeed.corrected(r["run_s"], r["probe_chunks"], r["probe_s"])

    stats = {
        "setup_s": ("s", summarize(setups)),
        "run_s": ("s", summarize([r["run_s"] for r in untraced])),
        "steps_per_s": ("1/s", summarize([r["output_steps"] / r["run_s"] for r in untraced])),
        "peak_rss_mb": ("MB", summarize([r["peak_rss_mb"] for r in untraced])),
    }
    for name, (unit, s) in stats.items():
        print(f"{name} [{unit}] median={s['median']:.6g} q1={s['q1']:.6g} "
              f"q3={s['q3']:.6g} n={s['n']}")
    wall = summarize([r["wall_s"] for r in untraced])
    print(f"wall_s [s] median={wall['median']:.6g} q1={wall['q1']:.6g} "
          f"q3={wall['q3']:.6g} n={wall['n']} (run_s before host correction)")
    if wl.host_corrected:
        chunk_s = [r["probe_s"] / r["probe_chunks"] for r in untraced]
        print(f"host probe chunk [s] median={statistics.median(chunk_s):.6g} "
              f"n={len(chunk_s)} samples, scale {hostspeed.REF_CHUNK_S} s")
    print(f"failures {failed} of {attempted} runs attempted")

    if args.trace:
        if not traced:
            print(f"error: no traced sample of {args.workload} succeeded", file=sys.stderr)
            return 1
        layers = {}
        for name, (unit, source, *_) in PER_LAYER.items():
            if source == "overhead":
                value = (statistics.median(r["run_s"] for r in traced)
                         - stats["run_s"][1]["median"])
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            layers[name] = {"value": value, "unit": unit}
            print(f"{name} [{unit}] {value:.6g} (median of {len(traced)} traced)")
        metrics = layers
        with open(os.path.join(WORK, f"spans-{args.workload}.json"), "w", encoding="utf-8") as fh:
            json.dump({"tag": tag, "columns": ["name", "start_ns", "end_ns", "parent"],
                       "spans": last_spans}, fh)
    else:
        metrics = {name: {"value": s["median"], "unit": unit} for name, (unit, s) in stats.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(WORK, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "workload": args.workload, "g_ghz": g,
                   "summaries": {n: {"unit": u, **s} for n, (u, s) in stats.items()},
                   "host_corrected": wl.host_corrected,
                   "samples": {"setup_s": setups,
                               "wall_s": [r["wall_s"] for r in untraced],
                               "run_s": [r["run_s"] for r in untraced],
                               "probe_chunk_s": [r["probe_s"] / r["probe_chunks"]
                                                 for r in untraced if wl.host_corrected]},
                   "result": result}, fh, indent=2, sort_keys=True)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
