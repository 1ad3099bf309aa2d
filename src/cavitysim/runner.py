"""Scenario runner: runs a config's scenario and writes its CSVs.

Every trajectory of every scenario comes from trajectory(): the config's
cavity and atoms with the given couplings, started in |n, g..g> and
propagated over a uniform grid.  fig4's alpha sweep and fig5's points run
on a grid scaled to their first exchange (the scenario's `sweep_grid`).

Output contract (per run directory):
  config.txt    -- canonical config (TOML), execution-only fields normalized
  traj_*.csv    -- one per trajectory (schema cavitysim-trajectory-v1)
  map.csv       -- fig5 only: one row per sweep point
  alpha_map.csv -- fig4 only: peak correlations vs coupling ratio
  summary.csv   -- name,value rows of derived scalars
  manifest.json -- tool version, scenario, config hash

The same config produces byte-identical files: sweep points are computed
in order, floats are written with repr(), and nothing records wall time.
The `workers` field is accepted and ignored; each trajectory evaluates its
observables over stacks of states, so there is nothing left to spread over
threads.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, analytic, coupling, dynamics as dyn, entanglement as ent
from . import fockspace as fs, presets
from .config import SCENARIOS, ExperimentConfig, canonical_text
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


def time_grid(t_end_ns: float, dt_ns: float) -> np.ndarray:
    n = max(1, round(t_end_ns / dt_ns))
    return np.linspace(0.0, t_end_ns, n + 1)


def trajectory(cfg: ExperimentConfig, couplings_ghz, n_photons: int, times,
               projections=None, track=None) -> dyn.Trajectory:
    """Propagate |n_photons, g..g> with the config's cavity and atoms.

    couplings_ghz holds one coupling (ordinary GHz) per atom.  projections,
    when given, maps the run's HilbertLayout to {column name: ket}; track
    defaults to the config's observables.
    """
    layout = fs.HilbertLayout(n_max=cfg.n_max_for(n_photons), n_atoms=len(couplings_ghz))
    params = SystemParams(
        omega_c=0.0,
        omega_0=ghz_to_angular(cfg.detuning_ghz),
        kappa=mhz_to_angular(cfg.resolved_kappa_mhz),
        gamma=mhz_to_angular(cfg.resolved_gamma_mhz),
        couplings=tuple(ghz_to_angular(g) for g in couplings_ghz),
    )
    gen = build_generator(layout, params, dissipator_form=cfg.dissipator_form)
    rho0 = dyn.pure_state_density(fs.basis_state(layout, n_photons, "g" * layout.n_atoms))
    return dyn.integrate(
        gen, rho0, times,
        snapshot_stride=cfg.snapshot_stride if cfg.snapshot_stride > 0 else None,
        track=cfg.observables if track is None else track,
        projections=projections(layout) if projections else None,
        # The literal dissipator form exists for comparison and does not
        # preserve the trace, so the drift gate must not kill such runs.
        trace_tol=float("inf") if cfg.dissipator_form == "literal" else 1e-9,
    )


def _sweep_grid(cfg: ExperimentConfig, alpha: float) -> np.ndarray:
    """Grid of one fig4/fig5 sweep point, scaled to its first exchange."""
    c, steps = SCENARIOS[cfg.scenario].sweep_grid
    omega = ghz_to_angular(cfg.g_ghz) * np.sqrt(1.0 + alpha**2)
    t_end = c * np.pi / omega
    return time_grid(t_end, t_end / steps)


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------


def _run_fig2(cfg: ExperimentConfig):
    g = cfg.resolved_couplings_ghz()[:1]
    short = trajectory(cfg, g, cfg.n_photons, time_grid(cfg.t_end_ns, cfg.dt_ns))
    long = trajectory(cfg, g, cfg.n_photons, time_grid(cfg.t_long_ns, cfg.dt_long_ns))

    g_ang = ghz_to_angular(g[0])
    kappa_ang = mhz_to_angular(cfg.resolved_kappa_mhz)
    gamma_ang = mhz_to_angular(cfg.resolved_gamma_mhz)
    summary = {
        "rabi_frequency_ghz": dyn.rabi_frequency(short, "pop_0e"),
        "rabi_frequency_expected_ghz": g_ang / np.pi,
        "kappa_mhz": cfg.resolved_kappa_mhz,
        "gamma_mhz": cfg.resolved_gamma_mhz,
    }
    if kappa_ang + gamma_ang > 0:
        fit = dyn.envelope_lifetime(long, "pop_0e")
        summary["tau_r_ns"] = fit.tau_ns
        summary["tau_r_expected_ns"] = 2.0 / (kappa_ang + gamma_ang)
        summary["tau_fit_log_rms"] = fit.log_rms_residual
        summary["cooperativity"] = coupling.cooperativity(
            g[0] * 1e9, cfg.resolved_kappa_mhz * 1e6, cfg.resolved_gamma_mhz * 1e6
        )
    return {"short": short, "long": long}, summary, {}


def _two_atom_runs(cfg: ExperimentConfig, extra=()):
    """The four standard two-atom variants: photon number x coupling ratio,
    tracking the config's observables and `extra`."""
    g1 = cfg.resolved_couplings_ghz()[0]
    track = cfg.observables + tuple(o for o in extra if o not in cfg.observables)
    times = time_grid(cfg.t_end_ns, cfg.dt_ns)

    def run(n_photons, gs):
        gv = analytic.CouplingVector(tuple(ghz_to_angular(x) for x in gs))

        def states(layout):
            if n_photons == 2:
                chis = analytic.two_photon_states(layout, *gv.g)
                return {f"P_chi{k}": chi for k, chi in enumerate(chis)}
            chi0, chi1 = analytic.single_excitation_states(layout, gv)
            return {"P_chi0": chi0, "P_chi1": chi1,
                    "P_psi_plus": analytic.symmetric_bell_state(layout)}

        return trajectory(cfg, gs, n_photons, times, projections=states, track=track)

    equal, ratio = (g1, g1), (g1, cfg.alpha * g1)
    return {
        "one_photon_equal": run(1, equal),
        "one_photon_ratio": run(1, ratio),
        "two_photon_equal": run(2, equal),
        "two_photon_ratio": run(2, ratio),
    }


def _run_fig3(cfg: ExperimentConfig):
    runs = _two_atom_runs(cfg, extra=("concurrence",))
    ratio = runs["one_photon_ratio"]
    equal = runs["one_photon_equal"]
    metrics = analytic.peak_entanglement_metrics(cfg.alpha)
    summary = {
        "collective_frequency_ghz": dyn.rabi_frequency(equal, "P_chi1"),
        "collective_frequency_expected_ghz": np.sqrt(2.0) * 2.0 * cfg.g_ghz,
        "splitting_measured": ent.trajectory_splitting(
            ratio.series("pop_0eg"), ratio.series("pop_0ge")
        ),
        "splitting_expected": ent.splitting_magnitude(cfg.alpha),
        "fidelity_peak": float(np.sqrt(np.max(ratio.series("P_psi_plus")))),
        "fidelity_expected": metrics.fidelity,
        "concurrence_peak": float(np.max(ratio.series("C_BC"))),
        "concurrence_expected": metrics.concurrence,
    }
    return runs, summary, {}


def _run_fig4(cfg: ExperimentConfig):
    extra = ("entropies", "concurrence")
    runs = _two_atom_runs(cfg, extra)

    equal = runs["one_photon_equal"]
    g_ang = ghz_to_angular(cfg.g_ghz)
    period = np.pi / (np.sqrt(2.0) * g_ang)
    window = equal.times <= 5.0 * period + 1e-12
    summary = {
        "s_a_extrema_5_periods": dyn.count_extrema(equal.series("S_A")[window]),
        "s_b_extrema_5_periods": dyn.count_extrema(equal.series("S_B")[window]),
    }

    rows = []
    for alpha in map(float, cfg.sweep("alpha").values()):
        traj = trajectory(cfg, (cfg.g_ghz, alpha * cfg.g_ghz), 1, _sweep_grid(cfg, alpha),
                          track=("populations",) + extra)
        rows.append(
            {
                "alpha": alpha,
                "peak_S_B": float(np.max(traj.series("S_B"))),
                "peak_S_C": float(np.max(traj.series("S_C"))),
                "peak_C_BC": float(np.max(traj.series("C_BC"))),
            }
        )
    return runs, summary, {"alpha_map.csv": rows}


def _run_fig5(cfg: ExperimentConfig):
    def density(r_nm):
        return coupling.synth_density_at(cfg.design, cfg.resolution_nm, r_nm)

    # alpha = sqrt(V(r1) / V(r2)); the map's normalization and total energy cancel
    de_r1 = density((-presets.LATTICE_NM, 0.0, 0.0))
    runs = {}
    rows = []
    for i, dx in enumerate(map(float, cfg.sweep("delta_x_nm").values())):
        for j, dy in enumerate(map(float, cfg.sweep("delta_y_nm").values())):
            alpha = math.sqrt(density((presets.LATTICE_NM + dx, dy, 0.0)) / de_r1)
            traj = trajectory(cfg, (cfg.g_ghz, alpha * cfg.g_ghz), 1,
                              _sweep_grid(cfg, alpha))
            runs[f"dx{i:02d}_dy{j:02d}"] = traj
            rows.append(
                {
                    "delta_x_nm": dx,
                    "delta_y_nm": dy,
                    "alpha": alpha,
                    "peak_S_C": float(np.max(traj.series("S_C"))),
                    "peak_C_BC": float(np.max(traj.series("C_BC"))),
                }
            )
    peak_c = np.array([r["peak_C_BC"] for r in rows])
    alphas = np.array([r["alpha"] for r in rows])
    x_axis = [r for r in rows if r["delta_y_nm"] == 0.0] or rows
    y_axis = [r for r in rows if r["delta_x_nm"] == 0.0] or rows
    summary = {
        "alpha_min": float(alphas.min()),
        "alpha_max": float(alphas.max()),
        "min_peak_concurrence": float(peak_c.min()),
        "max_reduction_pct": float((1.0 - peak_c.min()) * 100.0),
        "reduction_x_axis_pct": float(
            (1.0 - min(r["peak_C_BC"] for r in x_axis)) * 100.0
        ),
        "reduction_y_axis_pct": float(
            (1.0 - min(r["peak_C_BC"] for r in y_axis)) * 100.0
        ),
    }
    return runs, summary, {"map.csv": rows}


def _run_wstate(cfg: ExperimentConfig):
    gs = cfg.resolved_couplings_ghz()
    gv = analytic.CouplingVector(tuple(ghz_to_angular(g) for g in gs))

    def states(layout):
        chi0, chi1 = analytic.single_excitation_states(layout, gv)
        return {"P_chi0": chi0, "P_chi1": chi1}

    traj = trajectory(cfg, gs, cfg.n_photons, time_grid(cfg.t_end_ns, cfg.dt_ns),
                      projections=states)
    freq = dyn.rabi_frequency(traj, "P_chi1")
    summary = {
        "collective_frequency_ghz": freq,
        "collective_frequency_expected_ghz": gv.g_norm / np.pi,
        "enhancement_over_single_atom": freq / (2.0 * gs[0]),
        "peak_p_chi1": float(np.max(traj.series("P_chi1"))),
        "w_fidelity_peak": float(np.sqrt(np.max(traj.series("P_chi1")))),
    }
    return {"wstate": traj}, summary, {}


def _run_custom(cfg: ExperimentConfig):
    traj = trajectory(cfg, cfg.resolved_couplings_ghz(), cfg.n_photons,
                      time_grid(cfg.t_end_ns, cfg.dt_ns))
    return {"custom": traj}, {}, {}


_SCENARIO_FUNCS = {
    "fig2_single_atom": _run_fig2,
    "fig3_two_atom": _run_fig3,
    "fig4_correlations": _run_fig4,
    "fig5_position_map": _run_fig5,
    "n_atom_wstate": _run_wstate,
    "custom": _run_custom,
}


def _write_rows_csv(path: str, rows: list):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if not rows:
            return
        cols = list(rows[0].keys())
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(row[c])) for c in cols) + "\n")


def run_scenario(cfg: ExperimentConfig, output_dir: str | None = None) -> RunReport:
    out = resolve_output_dir(cfg, output_dir)
    os.makedirs(out, exist_ok=True)

    runs, summary, extra_tables = _SCENARIO_FUNCS[cfg.scenario](cfg)

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
