"""One benchmark sample, run in a fresh interpreter.

    python3 bench/worker.py --root DIR --config FILE --result FILE
                            [--output-dir DIR] [--trace] [--host-probe]

Imports cavitysim from DIR/src, parses the config (the end of set-up),
then calls the user entry point `cavitysim.cli.main(["run", ...])` once
and writes a JSON result: the monotonic time set-up ended, the wall time of
the run call, its exit code, the peak resident memory of this process and,
with --trace, the spans and counters recorded around each layer.  With
--host-probe, chunks of a reference kernel run around and during the call
(bench/hostspeed.py); their count and time are recorded, and run_s is the
wall time less that of the chunks inside the call.  Without --output-dir it stops after set-up.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--output-dir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--host-probe", action="store_true")
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    from cavitysim import cli
    from cavitysim.config import parse_config

    with open(args.config, encoding="utf-8") as fh:
        parse_config(fh.read())
    setup_done = time.monotonic()
    import hostspeed  # this script's directory is first on sys.path

    result = {
        "setup_done": setup_done,
        "cavitysim_file": os.path.abspath(sys.modules["cavitysim"].__file__),
    }
    if args.output_dir:
        argv = ["run", args.config, "--output-dir", args.output_dir]
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        entry = tracer.wrap("cli.main", cli.main) if tracer else cli.main
        probe = hostspeed.Probe() if args.host_probe else contextlib.nullcontext()
        with probe:
            t0 = time.perf_counter_ns()
            code = entry(argv)
            t1 = time.perf_counter_ns()
        # Probe chunks that ran inside the call; the program's own time is
        # the wall time less theirs.
        inside = [(s, e) for s, e in getattr(probe, "intervals", ()) if t0 <= s and e <= t1]
        result["wall_s"] = (t1 - t0) / 1e9
        result["run_s"] = result["wall_s"] - sum(e - s for s, e in inside) / 1e9
        result["exit_code"] = code
        if args.host_probe:
            result["probe_chunks"] = len(probe.intervals)
            result["probe_s"] = sum(e - s for s, e in probe.intervals) / 1e9
        if tracer:
            result["spans"] = tracer.spans
            result["probe_intervals"] = inside
            result["counters"] = dict(tracer.counters)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if result.get("exit_code", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
