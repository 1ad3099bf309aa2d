#!/usr/bin/env python3
"""Run every figure scenario with its defaults and collect the outputs.

Usage: python scripts/run_all_figures.py [output_root]

Writes one directory per scenario under output_root (default ./runs) and
prints each scenario's summary scalars.  Medians of 7 fresh processes
on a noisy 2-core host (Python 3.11.7, numpy 2.4.6): 0.99 s of run time
with OMP_NUM_THREADS=1 and 1.07 s with two BLAS threads, about 60% of it
in the two fig5 maps (0.30-0.32 s each, of which CSV writing is most,
with all 81 points of a map propagated as one stack); the whole process
takes 1.41 and 1.47 s, of which about 0.4 s is start-up.  With one
propagation call per sweep point, as before the stacks, the same configs
took 1.34 s of run time under both settings (fig5 maps 0.40-0.46 s each,
fig4 0.22-0.24 s against 0.18-0.19 s) on the same host in the same hour.
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
