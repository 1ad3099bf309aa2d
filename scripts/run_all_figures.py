#!/usr/bin/env python3
"""Run every figure scenario with its defaults and collect the outputs.

Usage: python scripts/run_all_figures.py [output_root]

Writes one directory per scenario under output_root (default ./runs) and
prints each scenario's run time in ms and its summary scalars.  Medians
of 11 fresh processes at each BLAS thread count, alternated, on a noisy
2-core host (Python 3.11.7, numpy 2.4.6): 0.63 s of run time with
OMP_NUM_THREADS=1 and with two threads, of which the two fig5 maps take
0.18 s each (all 81 points of a map propagate as one stack) and
wstate_n3 19 ms; the whole process takes 0.95 and 0.94 s.  The outputs
are the same bytes at either count.
"""

import sys
import time

from cavitysim.config import parse_config
from cavitysim.runner import run_scenario

RUNS = [
    ("fig2_single_atom", 'scenario = "fig2_single_atom"\n'),
    ("fig3_two_atom", 'scenario = "fig3_two_atom"\n'),
    ("fig4_correlations", 'scenario = "fig4_correlations"\n'),
    ("fig5_D1", 'scenario = "fig5_position_map"\ndesign = "D1"\n'),
    ("fig5_D3", 'scenario = "fig5_position_map"\ndesign = "D3"\n'),
    ("wstate_n3", 'scenario = "n_atom_wstate"\nn_atoms = 3\n'),
]


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else "runs"
    for name, text in RUNS:
        cfg = parse_config(text)
        t0 = time.perf_counter()
        report = run_scenario(cfg, output_dir=f"{root}/{name}")
        dt = time.perf_counter() - t0
        print(f"== {name} ({1e3 * dt:.1f} ms) -> {report.output_dir}")
        for key in sorted(report.summary):
            print(f"   {key} = {report.summary[key]:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
