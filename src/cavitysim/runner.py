"""Scenario runner: executes a config's plan and writes its CSVs.

What a scenario computes is its plan (`config.SCENARIOS`): fixed runs, at
most one sweep with a run per point, and a summary.  Every one of those
runs comes from trajectory(): the config's cavity and atoms with the run's
couplings, started in |n, g..g> and propagated over the run's uniform grid.
A fixed run propagates alone; a sweep's points propagate a block at a
time, each block as one stack in one `integrate` call (as many points as
`dynamics.stack_runs` fits in its memory budget: all of a fig5 map).

Output contract (per run directory):
  config.txt    -- canonical config (TOML), execution-only fields normalized
  traj_*.csv    -- one per kept trajectory (schema cavitysim-trajectory-v1)
  map.csv       -- fig5 only: one row per sweep point
  alpha_map.csv -- fig4 only: peak correlations vs coupling ratio
  summary.csv   -- name,value rows of derived scalars
  manifest.json -- tool version, scenario, config hash

The same config produces byte-identical files: sweep points are computed
in order, each exactly as it would be alone, floats are written with
repr(), and nothing records wall time.  The `workers` field is accepted
and ignored.  What runs where:
  - the plan (every propagation, observable and fit) runs in this process,
    its points and output times in stacks, on one CPU;
  - the traj_*.csv files, most of a default run's time, are written on
    config.trajectory_writers processes: this one and a child forked for
    each other share (write_trajectories).  The files of one config are
    the same bytes on any number of them;
  - this process writes config.txt before them, and the tables,
    summary.csv and manifest.json once every trajectory file is written.
Known limit: Python >= 3.12 warns (DeprecationWarning) on a fork in a
process that runs threads, such as BLAS's; a writer child calls no BLAS.
"""

import hashlib
import json
import os
import pickle
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, dynamics as dyn, fockspace as fs
from .config import SCENARIOS, ExperimentConfig, Run, canonical_text, trajectory_writers
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


def trajectory(cfg: ExperimentConfig, run: Run | list) -> dyn.Trajectory | list:
    """Propagate |run.n_photons, g..g> with the config's cavity and atoms
    over run.times(), recording run.track and run.projections.

    run may also be a list of runs that differ only in their couplings and
    grids, without projections, such as a block of sweep points: they
    propagate as one stack, and their trajectories return as a list."""
    runs = run if isinstance(run, list) else [run]
    first = runs[0]
    if len(runs) > 1 and any(r.projections for r in runs):
        raise ValueError("a stack of runs records no projections")
    layout = first.layout()
    cavity = dict(
        omega_c=0.0,
        omega_0=ghz_to_angular(cfg.detuning_ghz),
        kappa=mhz_to_angular(cfg.resolved_kappa_mhz),
        gamma=mhz_to_angular(cfg.resolved_gamma_mhz),
    )
    gens = [
        build_generator(layout, SystemParams(
            **cavity, couplings=tuple(ghz_to_angular(g) for g in r.couplings_ghz())))
        for r in runs
    ]
    trajectories = dyn.integrate(
        gens, fs.basis_state(layout, first.n_photons, "g" * layout.n_atoms),
        [r.times() for r in runs],
        track=first.track,
        projections=first.projections(layout, first) if first.projections else None,
    )
    return trajectories if isinstance(run, list) else trajectories[0]


def run_plan(cfg: ExperimentConfig):
    """Execute the config's plan: (kept trajectories by name, summary,
    tables by file name).  The sweep's points propagate a block of
    dynamics.stack_runs at a time, each block as one stack."""
    plan = SCENARIOS[cfg.scenario].plan(cfg)
    kept = {run.name: trajectory(cfg, run) for run in plan.runs}
    rows = []
    if plan.sweep:
        points = list(plan.sweep.points(cfg))
        first = points[0][1]
        size = dyn.stack_runs(first.n_atoms, first.n_photons, cfg.lossy, first.outputs())
        for start in range(0, len(points), size):
            block = points[start:start + size]
            for (point, run), traj in zip(block, trajectory(cfg, [run for _, run in block])):
                if run.name:
                    kept[run.name] = traj
                rows.append(point | {f"peak_{c}": float(np.max(traj.series(c)))
                                     for c in plan.sweep.peaks})
            # its columns are views of the block's arrays: free them before the
            # next block propagates
            del traj
    tables = {plan.sweep.table: rows} if plan.sweep else {}
    return kept, plan.summarize(cfg, kept, rows), tables


def check_fits(cfg: ExperimentConfig) -> None:
    """Make the summary's fits as run_plan does; raises SummaryFitError where one fails."""
    plan = SCENARIOS[cfg.scenario].plan(cfg)
    if plan.reads:
        plan.summarize(cfg, {run.name: trajectory(cfg, run)
                             for run in plan.runs if run.name in plan.reads}, [])


def _write_rows_csv(path: str, rows: list):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cols = list(rows[0].keys())
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(row[c])) for c in cols) + "\n")


def _shares(runs: dict, writers: int) -> list:
    """The trajectories' names in `writers` shares of about equal rows:
    longest first, each to the share with the fewest rows so far."""
    shares, rows = [[] for _ in range(writers)], [0] * writers
    for name in sorted(runs, key=lambda name: -runs[name].times.size):
        i = rows.index(min(rows))
        shares[i].append(name)
        rows[i] += runs[name].times.size
    return shares


def _write_share(out: str, runs: dict, names: list) -> None:
    for name in names:
        with open(os.path.join(out, f"traj_{name}.csv"), "w", encoding="utf-8",
                  newline="\n") as fh:
            dyn.write_trajectory_csv(runs[name], fh)


def _reap(pid: int, fd: int) -> tuple:
    """Wait for writer child `pid`: (what it sent down the pipe `fd`, its
    exit code)."""
    try:
        with os.fdopen(fd, "rb") as fh:
            sent = fh.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return sent, code


def write_trajectories(out: str, runs: dict) -> None:
    """Write traj_<name>.csv in `out` for each trajectory of `runs`, on
    config.trajectory_writers processes, as many as there are files and
    CPUs to run them: this one writes the first of _shares, and a child
    forked for each other share writes that one (with one writer, this one
    writes every file, and it writes a share whose fork fails).  A child
    holds the trajectories as forked, so nothing is sent to it; it sends
    back what it raises, pickled, and leaves by os._exit, so it neither
    flushes this process's buffers nor returns into its caller.  Every
    child is reaped before this returns or raises; then what this process
    raised, or else what a child raised, is raised (an OSError for a child
    that ended with no word)."""
    own, *others = _shares(runs, trajectory_writers(len(runs)))
    children = []  # (pid, read end of its pipe)
    try:
        for share in others:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare (ENOMEM under strict overcommit)
                os.close(read)
                os.close(write)
                own += share
                continue
            if pid == 0:  # the child: never returns
                code = 1
                try:
                    os.close(read)
                    with os.fdopen(write, "wb") as fh:
                        try:
                            _write_share(out, runs, share)
                            code = 0
                        except BaseException as exc:  # the parent raises it
                            fh.write(pickle.dumps(exc))
                finally:
                    os._exit(code)
            os.close(write)  # so that no later child holds a copy of it
            children.append((pid, read))
        _write_share(out, runs, own)
    finally:
        ends = [(pid, *_reap(pid, read)) for pid, read in children]
    for pid, sent, code in ends:
        if sent:
            raise pickle.loads(sent)
        if code:
            raise OSError(f"trajectory writer process {pid} ended with exit code {code}")


def run_scenario(cfg: ExperimentConfig, output_dir: str | None = None) -> RunReport:
    runs, summary, extra_tables = run_plan(cfg)
    out = resolve_output_dir(cfg, output_dir)
    os.makedirs(out, exist_ok=True)

    canon = physics_canonical_text(cfg)
    with open(os.path.join(out, "config.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canon)

    traj_files = [f"traj_{name}.csv" for name in sorted(runs)]
    write_trajectories(out, runs)

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
