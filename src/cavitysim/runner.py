"""Scenario runner: executes a config's plan and writes its CSVs.

What a scenario computes is its plan (`config.SCENARIOS`): fixed runs, at
most one sweep with a run per point, and a summary.  Every one of those
runs comes from trajectory(): the config's cavity and atoms with the run's
couplings, started in |n, g..g> and propagated over the run's uniform grid.
A fixed run propagates alone; a sweep's points propagate together, as one
stack in one `integrate` call.

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
    config.trajectory_writers processes, up to the CPUs where each child
    is planned at least a block of dynamics.CSV_BLOCK_ROWS rows: this one
    and a child forked for each other share (write_trajectories).  A share
    is a run of the files' rows in name order, cut only at a block edge,
    of about equal rows but for this process's, planned CHILD_BLOCKS
    blocks longer; so a long file may be written by two, and the piece
    that starts inside it goes through a temporary file, appended once
    every share is written.  The files of one config are the same bytes
    on any number of writers;
  - this process writes config.txt before them, and the tables,
    summary.csv and manifest.json once every trajectory file is written.
Known limit: Python >= 3.12 warns (DeprecationWarning) on a fork in a
process that runs threads, such as BLAS's; a writer child calls no BLAS.
"""

import contextlib
import hashlib
import itertools
import json
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, dynamics as dyn, fockspace as fs
from .config import (CHILD_BLOCKS, SCENARIOS, ExperimentConfig, Run, canonical_text,
                     trajectory_writers)
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
    grids, without projections, such as a sweep's points: they
    propagate as one stack, and their trajectories return as a list."""
    runs = run if isinstance(run, list) else [run]
    first = runs[0]
    if len(runs) > 1 and any(r.projections for r in runs):
        raise ValueError("a stack of runs records no projections")
    layout = first.layout()
    cavity = dict(
        detuning=ghz_to_angular(cfg.detuning_ghz),
        kappa=mhz_to_angular(cfg.resolved_kappa_mhz),
        gamma=mhz_to_angular(cfg.resolved_gamma_mhz),
    )
    gens = [
        build_generator(layout, SystemParams(
            **cavity, couplings=tuple(ghz_to_angular(g) for g in r.couplings_ghz)))
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
    tables by file name).  The sweep's points propagate as one stack."""
    plan = SCENARIOS[cfg.scenario].plan(cfg)
    kept = {run.name: trajectory(cfg, run) for run in plan.runs}
    rows = []
    if plan.sweep:
        points = list(plan.sweep.points(cfg))
        for (point, run), traj in zip(points, trajectory(cfg, [run for _, run in points])):
            if run.name:
                kept[run.name] = traj
            rows.append(point | {f"peak_{c}": float(np.max(traj.series(c)))
                                 for c in plan.sweep.peaks})
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
    """The trajectories' rows in `writers` contiguous shares, as lists of
    pieces (name, start, stop): the files in name order, cut only where a
    block of dyn.CSV_BLOCK_ROWS rows starts.  The first share, this
    process's, is planned CHILD_BLOCKS blocks of rows longer than each
    other, which a forked child writes, and each cut is made at the block
    edge nearest its planned place (the earlier of two as near), with at
    least one block in every share."""
    size = dyn.CSV_BLOCK_ROWS
    blocks = [(name, start, min(start + size, rows))
              for name in sorted(runs) for rows in [runs[name].times.size]
              for start in range(0, max(rows, 1), size)]
    edges = [0, *itertools.accumulate(stop - start for _, start, stop in blocks)]
    child = CHILD_BLOCKS * size  # the rows a child's share is planned shorter by
    own = (edges[-1] + (writers - 1) * child) / writers
    cuts = [0]
    for i in range(1, writers):
        planned = i * own - (i - 1) * child  # the rows before share i
        cuts.append(min(range(cuts[-1] + 1, len(blocks) - writers + i + 1),
                        key=lambda k: abs(edges[k] - planned)))
    shares = []
    for first, last in zip(cuts, cuts[1:] + [len(blocks)]):
        share = []
        for name, start, stop in blocks[first:last]:
            if share and share[-1][0] == name:
                start = share.pop()[1]
            share.append((name, start, stop))
        shares.append(share)
    return shares


def _write_share(out: str, runs: dict, share: list, tails: dict) -> None:
    """Write each piece of `share`: a file's first to traj_<name>.csv, any
    other to its temporary file in `tails`, flushed."""
    for name, start, stop in share:
        if start:
            tail = tails[name, start, stop]
            dyn.write_trajectory_csv(runs[name], tail, start, stop)
            tail.flush()
        else:
            with open(os.path.join(out, f"traj_{name}.csv"), "w", encoding="utf-8",
                      newline="\n") as fh:
                dyn.write_trajectory_csv(runs[name], fh, start, stop)


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
    config.trajectory_writers processes, as many as the CPUs and the rows
    allow: this one writes the first of _shares, and a child forked for
    each other share writes that one (with one writer, this one writes
    every file, and it writes a share whose fork fails).  A piece that
    starts inside a file goes to an unnamed temporary file in `out`,
    opened here before any fork, and is appended to its file, in order,
    once every share is written.  A child holds the trajectories as
    forked, so nothing is sent to it; it sends back what it raises,
    pickled, and leaves by os._exit, so it neither flushes this process's
    buffers nor returns into its caller.  Every child is reaped before
    this returns or raises; then what this process raised, or else what a
    child raised, is raised (an OSError for a child that ended with no
    word), and nothing is appended."""
    rows = sum(traj.times.size for traj in runs.values())
    own, *others = _shares(runs, trajectory_writers(rows))
    with contextlib.ExitStack() as temporary:
        tails = {piece: temporary.enter_context(tempfile.TemporaryFile(
                     "w+", encoding="utf-8", newline="\n", dir=out))
                 for share in [own, *others] for piece in share if piece[1]}
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
                                _write_share(out, runs, share, tails)
                                code = 0
                            except BaseException as exc:  # the parent raises it
                                fh.write(pickle.dumps(exc))
                    finally:
                        os._exit(code)
                os.close(write)  # so that no later child holds a copy of it
                children.append((pid, read))
            _write_share(out, runs, own, tails)
        finally:
            ends = [(pid, *_reap(pid, read)) for pid, read in children]
        for pid, sent, code in ends:
            if sent:
                raise pickle.loads(sent)
            if code:
                raise OSError(f"trajectory writer process {pid} ended with exit code {code}")
        for (name, _, _), tail in tails.items():  # in file and row order
            tail.seek(0)
            with open(os.path.join(out, f"traj_{name}.csv"), "ab") as fh:
                shutil.copyfileobj(tail.buffer, fh)


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
