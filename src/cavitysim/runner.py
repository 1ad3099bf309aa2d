"""Scenario runner: executes a config's plan and writes its CSVs.

What a scenario computes is its plan (`config.SCENARIOS`): fixed runs, at
most one sweep with a run per point, and a summary.  Every one of those
runs comes from trajectory(): the config's cavity and atoms with the run's
couplings, started in |n, g..g> and propagated over the run's uniform grid.

Output contract (per run directory):
  config.txt    -- canonical config (TOML), execution-only fields normalized
  traj_*.csv    -- one per kept trajectory (schema cavitysim-trajectory-v1)
  map.csv       -- fig5 only: one row per sweep point
  alpha_map.csv -- fig4 only: peak correlations vs coupling ratio
  summary.csv   -- name,value rows of derived scalars
  manifest.json -- tool version, scenario, config hash

The same config produces byte-identical files: sweep points are computed
in order, floats are written with repr(), and nothing records wall time.
The `workers` field is accepted and ignored; each trajectory propagates and
evaluates its output times in stacks, so there is nothing left to spread
over threads.
"""

import hashlib
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, dynamics as dyn, fockspace as fs
from .config import SCENARIOS, ExperimentConfig, Run, canonical_text
from .model import SystemParams, build_generator
from .units import ghz_to_angular, mhz_to_angular

ENV_OUTPUT_ROOT = "CAVITYSIM_OUTPUT_ROOT"


@dataclass
class RunReport:
    output_dir: str
    summary: dict
    trajectory_files: list


def resolve_output_dir(cfg: ExperimentConfig, override: str | None = None) -> str:
    if override:
        return override
    if cfg.output_dir:
        return cfg.output_dir
    root = os.environ.get(ENV_OUTPUT_ROOT, "runs")
    return os.path.join(root, cfg.scenario)


def physics_canonical_text(cfg: ExperimentConfig) -> str:
    """Canonical text with execution-only fields normalized, so the config
    hash identifies the physics of a run, not where or how wide it ran."""
    return canonical_text(replace(cfg, workers=1, output_dir=""))


def trajectory(cfg: ExperimentConfig, run: Run) -> dyn.Trajectory:
    """Propagate |run.n_photons, g..g> with the config's cavity and atoms
    over run.times(), recording run.track and run.projections."""
    layout = fs.HilbertLayout(n_max=cfg.n_max_for(run.n_photons), n_atoms=run.n_atoms)
    params = SystemParams(
        omega_c=0.0,
        omega_0=ghz_to_angular(cfg.detuning_ghz),
        kappa=mhz_to_angular(cfg.resolved_kappa_mhz),
        gamma=mhz_to_angular(cfg.resolved_gamma_mhz),
        couplings=tuple(ghz_to_angular(g) for g in run.couplings_ghz()),
    )
    gen = build_generator(layout, params)
    return dyn.integrate(
        gen, fs.basis_state(layout, run.n_photons, "g" * layout.n_atoms), run.times(),
        track=run.track,
        projections=run.projections(layout, run) if run.projections else None,
    )


def run_plan(cfg: ExperimentConfig):
    """Execute the config's plan: (kept trajectories by name, summary,
    tables by file name)."""
    plan = SCENARIOS[cfg.scenario].plan(cfg)
    kept, rows = {}, []
    for point, run in plan.schedule(cfg):
        traj = trajectory(cfg, run)
        if run.name:
            kept[run.name] = traj
        if point is not None:
            rows.append(point | {f"peak_{c}": float(np.max(traj.series(c)))
                                 for c in plan.sweep.peaks})
    tables = {plan.sweep.table: rows} if plan.sweep else {}
    return kept, plan.summarize(cfg, kept, rows), tables


def _write_rows_csv(path: str, rows: list):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cols = list(rows[0].keys())
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(row[c])) for c in cols) + "\n")


def run_scenario(cfg: ExperimentConfig, output_dir: str | None = None) -> RunReport:
    out = resolve_output_dir(cfg, output_dir)
    os.makedirs(out, exist_ok=True)

    runs, summary, extra_tables = run_plan(cfg)

    canon = physics_canonical_text(cfg)
    with open(os.path.join(out, "config.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canon)

    traj_files = []
    for name in sorted(runs):
        fname = f"traj_{name}.csv"
        with open(os.path.join(out, fname), "w", encoding="utf-8", newline="\n") as fh:
            dyn.write_trajectory_csv(runs[name], fh)
        traj_files.append(fname)

    for fname, rows in extra_tables.items():
        _write_rows_csv(os.path.join(out, fname), rows)

    with open(os.path.join(out, "summary.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("name,value\n")
        for key in sorted(summary):
            fh.write(f"{key},{repr(float(summary[key]))}\n")

    manifest = {
        "tool": "cavitysim",
        "version": __version__,
        "scenario": cfg.scenario,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        "n_trajectories": len(traj_files),
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return RunReport(output_dir=out, summary=summary, trajectory_files=traj_files)
