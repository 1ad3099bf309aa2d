#!/usr/bin/env python3
"""Run every figure scenario with its defaults and collect the outputs.

Usage: python scripts/run_all_figures.py [output_root]

Writes one directory per scenario under output_root (default ./runs) and
prints each scenario's summary scalars.  Medians of 11 fresh processes
on a noisy 2-core host (Python 3.11.7, numpy 2.4.6): 0.57 s of run time
with OMP_NUM_THREADS=1 and 0.61 s with two BLAS threads, of which writing
the trajectory CSVs, on both cores, is 0.40-0.44 s, and 0.31-0.33 s is
the two fig5 maps (0.15-0.17 s each, with all 81 points of a map
propagated as one stack); the whole process takes 0.74 and 0.81 s, of
which about 0.2 s is start-up.
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
        print(f"== {name} ({dt:.1f} s) -> {report.output_dir}")
        for key in sorted(report.summary):
            print(f"   {key} = {report.summary[key]:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
