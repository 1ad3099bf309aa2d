"""Experiment configuration, read from a TOML file, and what each scenario runs.

A config is TOML limited to top-level `key = value` pairs plus optional
`[sweep.<axis>]` tables, parsed with the stdlib `tomllib`.  On top of TOML
the checks are deliberately strict: unknown keys, sections, sweep axes and
sweep keys, sweep tables of an axis the scenario does not run (it runs those
of `default_sweeps`), bad types and out-of-range values are hard errors
carrying the line number, so a typo in a physics parameter cannot silently
run with a default.  So is a run that would not fit in physical memory,
a layout whose basis indices overflow int64, an `observables` list with
`populations` for more than dynamics.POPULATIONS_MAX_DIM basis states, and
one without a column the plan's summary or sweep reads.  All such problems
are reported together; a TOML syntax error stops the parse, so syntax
errors are reported one at a time.  Every omitted key is
filled from the scenario's defaults at parse time, and `canonical_text`
emits the fully resolved form as valid TOML; parse(canonical_text(cfg))
round-trips to an equal config.  The fields of `ExperimentConfig` are the
one list of keys: each key's type test and its line in `canonical_text`
follow from them.  `SCENARIOS` holds each scenario's `cavitysim scenarios`
note, its defaults and its plan: the runs it makes, the summary drawn
from them and the columns that summary reads, built from the config alone
with no map read.  The runner executes the plan; the memory gate adds up
what dynamics.footprint says it allocates.  Nothing here propagates:
runner.check_fits makes the summary's fits that `cavitysim validate` checks.

Example::

    scenario = "fig5_position_map"
    design = "D3"

    [sweep.delta_x_nm]
    min = 0.0
    max = 53.0
    steps = 9
"""

import functools
import itertools
import json
import math
import os
import re
import sys
import tomllib
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import analytic, coupling, dynamics as dyn, entanglement as ent, presets
from .fockspace import HilbertLayout
from .units import ghz_to_angular, mhz_to_angular

SWEEP_AXES = ("delta_x_nm", "delta_y_nm", "alpha")
SWEEP_KEYS = ("min", "max", "steps")


class ConfigError(ValueError):
    """One or more configuration problems; each entry carries its location."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class SummaryFitError(ValueError):
    """A summary's fit to the trajectory of run `name` failed with `cause`."""

    def __init__(self, name: str, cause: ValueError):
        super().__init__(f"run {name!r}: {cause}")
        self.name, self.cause = name, cause

    def config_error(self, cfg: "ExperimentConfig", text: str) -> ConfigError:
        """The failure at the first key the config `text` sets of: the loss keys, larger
        rate first, if the envelope does not decay, else the run's window, its couplings
        and then the loss keys (an overdamped exchange)."""
        run = next(run for run in SCENARIOS[cfg.scenario].plan(cfg).runs if run.name == self.name)
        window = "t_long_ns" if run.key == ("dt_long_ns",) else "t_end_ns"
        gamma_first = cfg.resolved_gamma_mhz > cfg.resolved_kappa_mhz
        loss = ("kappa_mhz", "q_factor", "gamma_mhz")[::-1 if gamma_first else 1]
        keys = (loss if isinstance(self.cause, dyn.NonDecayingEnvelopeError)
                else (window, "couplings_ghz", "g_ghz") + loss)
        lines = _key_lines(text)
        key = next((k for k in keys if (k,) in lines), keys[0])
        return ConfigError([f"line {lines.get((key,), 0)}: {key}: the fit to run {run.name!r} "
                            f"over {window} = {run.t_end_ns:g} ns failed: {self.cause}"])


@dataclass(frozen=True)
class SweepAxis:
    name: str
    min: float
    max: float
    steps: int

    def values(self):
        return np.linspace(self.min, self.max, self.steps)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    design: str = "D1"
    n_atoms: int = 1
    n_photons: int = 1
    g_ghz: float = 0.0          # 0 -> design preset
    alpha: float = 1.0
    couplings_ghz: tuple = ()   # explicit per-atom list; overrides g/alpha
    q_factor: float = 0.0       # 0 -> design preset
    kappa_mhz: float = -1.0     # <0 -> derived from q_factor and lambda
    gamma_mhz: float = presets.GAMMA_RB87_D2_MHZ
    lambda_nm: float = presets.LAMBDA_NM
    detuning_ghz: float = 0.0
    lossless: bool = False
    t_end_ns: float = 0.3
    dt_ns: float = 2e-4
    t_long_ns: float = 40.0
    dt_long_ns: float = 0.005
    observables: tuple = ("populations", "n_photon")
    resolution_nm: float = 5.0
    workers: int = 1            # accepted and ignored
    output_dir: str = ""
    sweeps: tuple = ()          # of SweepAxis, sorted by name

    def sweep(self, name: str) -> SweepAxis | None:
        for ax in self.sweeps:
            if ax.name == name:
                return ax
        return None

    @property
    def resolved_kappa_mhz(self) -> float:
        if self.lossless:
            return 0.0
        if self.kappa_mhz >= 0:
            return self.kappa_mhz
        return presets.kappa_ordinary_hz(self.q_factor, self.lambda_nm) / 1e6

    @property
    def resolved_gamma_mhz(self) -> float:
        return 0.0 if self.lossless else self.gamma_mhz

    @property
    def lossy(self) -> bool:
        return self.resolved_kappa_mhz > 0 or self.resolved_gamma_mhz > 0

    def resolved_couplings_ghz(self) -> tuple:
        """Per-atom ordinary-GHz couplings: explicit list if given, else
        (g, alpha*g, g, g, ...) with the ratio applied to atom 2."""
        if self.couplings_ghz:
            return self.couplings_ghz
        g = self.g_ghz
        out = [g] * self.n_atoms
        if self.n_atoms >= 2:
            out[1] = self.alpha * g
        return tuple(out)


class Run(NamedTuple):
    """One trajectory: n_atoms atoms with couplings_ghz(), started in
    |n_photons, g..g> and recorded on the uniform grid of about dt_ns steps
    up to t_end_ns; `key` is the config key that sizes that grid."""

    name: str | None            # written as traj_<name>.csv; None keeps nothing
    n_atoms: int
    couplings_ghz: Callable     # () -> one coupling per atom, resolved at run time
    n_photons: int
    t_end_ns: float
    dt_ns: float
    track: tuple
    projections: Callable | None = None  # (layout, run) -> {column: ket}
    key: tuple = ("dt_ns",)

    def outputs(self) -> int:
        """Number of output times of times()."""
        return max(1, round(self.t_end_ns / self.dt_ns)) + 1

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end_ns, self.outputs())

    def layout(self) -> HilbertLayout:
        """The run's Hilbert space: its start photons and one guard level,
        whose populations read 0 (no run gains a photon)."""
        return HilbertLayout(self.n_photons + 1, self.n_atoms)


class Sweep(NamedTuple):
    """A run per point of the product of `axes`: two atoms at (g, alpha g)
    from one photon, over `steps` steps up to c pi / (g sqrt(1 + alpha^2)),
    grid = (c, steps).  alpha_rule takes each axis's values and gives every
    point's alpha, one array axis per sweep axis, at run time.  Each point
    adds a row to `table`: its axis values, alpha and the maximum of each
    `peaks` column."""

    axes: tuple                 # of SweepAxis
    alpha_rule: Callable        # (values of each axis) -> alpha of each point
    grid: tuple
    track: tuple
    peaks: tuple
    table: str
    name: Callable | None = None  # axis indices -> kept trajectory's name
    n_photons = 1

    def points(self, cfg: ExperimentConfig):
        """(point, run) of each point in order, point mapping each axis and
        alpha to its value."""
        values = [ax.values() for ax in self.axes]
        alphas = self.alpha_rule(*values)
        for index in itertools.product(*(range(v.size) for v in values)):
            point = {ax.name: float(v[i]) for ax, v, i in zip(self.axes, values, index)}
            point["alpha"] = alpha = float(alphas[index])
            yield point, self.run(cfg, alpha, self.name and self.name(*index))

    def run(self, cfg: ExperimentConfig, alpha: float, name: str | None = None) -> Run:
        c, steps = self.grid
        t_end = c * np.pi / (ghz_to_angular(cfg.g_ghz) * np.sqrt(1.0 + alpha**2))
        return Run(name, 2, lambda: (cfg.g_ghz, alpha * cfg.g_ghz), self.n_photons, t_end,
                   t_end / steps, self.track,
                   key=("sweep", max(self.axes, key=lambda a: a.steps).name, "steps"))


class Plan(NamedTuple):
    runs: tuple                 # of Run: the fixed runs, each kept
    summarize: Callable         # (cfg, kept trajectories by name, table rows) -> dict
    sweep: Sweep | None = None
    reads: dict = {}            # run name -> the columns summarize reads from it


def _angular(run: Run) -> tuple:
    return tuple(ghz_to_angular(g) for g in run.couplings_ghz())


def _chi_states(layout, run: Run) -> dict:
    """P_chi0 and P_chi1: |1, g..g> and the collective atomic excitation."""
    chi0, chi1 = analytic.single_excitation_states(
        layout, analytic.CouplingVector(_angular(run)))
    return {"P_chi0": chi0, "P_chi1": chi1}


def _two_atom_states(layout, run: Run) -> dict:
    if run.n_photons == 2:
        chis = analytic.two_photon_states(layout, *_angular(run))
        return {f"P_chi{k}": chi for k, chi in enumerate(chis)}
    return _chi_states(layout, run) | {"P_psi_plus": analytic.symmetric_bell_state(layout)}


def _fit(fit: Callable, runs: dict, name: str, column: str):
    """fit(runs[name], column), raising SummaryFitError where it fails."""
    try:
        return fit(runs[name], column)
    except (dyn.TooFewExtremaError, dyn.NonDecayingEnvelopeError) as exc:
        raise SummaryFitError(name, exc) from exc


def _leading(cfg: ExperimentConfig, *ratios) -> tuple:
    """Atom 1's coupling, then that coupling times each ratio."""
    g1 = cfg.resolved_couplings_ghz()[0]
    return (g1,) + tuple(r * g1 for r in ratios)


def _fig2_plan(cfg: ExperimentConfig) -> Plan:
    g = functools.partial(_leading, cfg)
    return Plan((
        Run("short", 1, g, cfg.n_photons, cfg.t_end_ns, cfg.dt_ns, cfg.observables),
        Run("long", 1, g, cfg.n_photons, cfg.t_long_ns, cfg.dt_long_ns, cfg.observables,
            key=("dt_long_ns",)),
    ), _fig2_summary, reads={"short": ("pop_0e",), "long": ("pop_0e",)})


def _fig2_summary(cfg, runs, rows) -> dict:
    g = cfg.resolved_couplings_ghz()[0]
    kappa_ang = mhz_to_angular(cfg.resolved_kappa_mhz)
    gamma_ang = mhz_to_angular(cfg.resolved_gamma_mhz)
    summary = {
        "rabi_frequency_ghz": _fit(dyn.rabi_frequency, runs, "short", "pop_0e"),
        "rabi_frequency_expected_ghz": ghz_to_angular(g) / np.pi,
        "kappa_mhz": cfg.resolved_kappa_mhz,
        "gamma_mhz": cfg.resolved_gamma_mhz,
    }
    if kappa_ang + gamma_ang > 0:
        fit = _fit(dyn.envelope_lifetime, runs, "long", "pop_0e")
        summary["tau_r_ns"] = fit.tau_ns
        summary["tau_r_expected_ns"] = 2.0 / (kappa_ang + gamma_ang)
        summary["tau_fit_log_rms"] = fit.log_rms_residual
    if kappa_ang > 0 and gamma_ang > 0:  # one rate at zero has no cooperativity
        summary["cooperativity"] = coupling.cooperativity(
            g * 1e9, cfg.resolved_kappa_mhz * 1e6, cfg.resolved_gamma_mhz * 1e6)
    return summary


def _two_atom_runs(cfg: ExperimentConfig, extra) -> tuple:
    """The four standard two-atom runs, photon number x coupling ratio, each
    tracking the config's observables and `extra`."""
    track = cfg.observables + tuple(o for o in extra if o not in cfg.observables)
    return tuple(
        Run(f"{photons}_photon_{kind}", 2, functools.partial(_leading, cfg, ratio), n,
            cfg.t_end_ns, cfg.dt_ns, track, _two_atom_states)
        for n, photons in ((1, "one"), (2, "two"))
        for kind, ratio in (("equal", 1.0), ("ratio", cfg.alpha))
    )


def _fig3_plan(cfg: ExperimentConfig) -> Plan:
    return Plan(_two_atom_runs(cfg, ("concurrence",)), _fig3_summary, reads={
        "one_photon_equal": ("P_chi1",),
        "one_photon_ratio": ("pop_0eg", "pop_0ge", "P_psi_plus", "C_BC"),
    })


def _fig3_summary(cfg, runs, rows) -> dict:
    ratio = runs["one_photon_ratio"]
    metrics = analytic.peak_entanglement_metrics(cfg.alpha)
    return {
        "collective_frequency_ghz": _fit(dyn.rabi_frequency, runs, "one_photon_equal", "P_chi1"),
        "collective_frequency_expected_ghz": np.sqrt(2.0) * 2.0 * cfg.g_ghz,
        "splitting_measured": ent.trajectory_splitting(ratio.series("pop_0eg"),
                                                        ratio.series("pop_0ge")),
        "splitting_expected": ent.splitting_magnitude(cfg.alpha),
        "fidelity_peak": float(np.sqrt(np.max(ratio.series("P_psi_plus")))),
        "fidelity_expected": metrics.fidelity,
        "concurrence_peak": float(np.max(ratio.series("C_BC"))),
        "concurrence_expected": metrics.concurrence,
    }


def _fig4_plan(cfg: ExperimentConfig) -> Plan:
    extra = ("entropies", "concurrence")
    sweep = Sweep((cfg.sweep("alpha"),), lambda alpha: alpha, (1.2, 300),
                  ("populations",) + extra, ("S_B", "S_C", "C_BC"), "alpha_map.csv")
    return Plan(_two_atom_runs(cfg, extra), _fig4_summary, sweep,
                {"one_photon_equal": ("S_A", "S_B")})


def _fig4_summary(cfg, runs, rows) -> dict:
    equal = runs["one_photon_equal"]
    period = np.pi / (np.sqrt(2.0) * ghz_to_angular(cfg.g_ghz))
    window = equal.times <= 5.0 * period + 1e-12
    return {
        "s_a_extrema_5_periods": dyn.count_extrema(equal.series("S_A")[window]),
        "s_b_extrema_5_periods": dyn.count_extrema(equal.series("S_B")[window]),
    }


def _fig5_atom2(delta_x_nm, delta_y_nm) -> tuple:
    """Atom 2's position (nm), displaced from its trap site at x = +a; the
    displacements are numbers or arrays."""
    return (presets.LATTICE_NM + delta_x_nm, delta_y_nm, 0.0)


def _fig5_alphas(cfg: ExperimentConfig, dx_nm, dy_nm) -> np.ndarray:
    """alpha = g(r2) / g(r1) = sqrt(rho(r2) / rho(r1)) with atom 2 displaced
    from its trap site by each dx and dy (nm), as a (len(dx_nm), len(dy_nm))
    array; atom 1 sits at x = -a."""
    density = functools.partial(coupling.synth_density_plane, cfg.design, cfg.resolution_nm)
    rho1 = density([-presets.LATTICE_NM], [0.0])[0, 0]
    x2, y2, _ = _fig5_atom2(np.asarray(dx_nm), dy_nm)
    return np.sqrt(density(x2, y2) / rho1)


def _fig5_plan(cfg: ExperimentConfig) -> Plan:
    sweep = Sweep((cfg.sweep("delta_x_nm"), cfg.sweep("delta_y_nm")),
                  functools.partial(_fig5_alphas, cfg), (1.1, 240),
                  cfg.observables, ("S_C", "C_BC"), "map.csv", "dx{:02d}_dy{:02d}".format)
    return Plan((), _fig5_summary, sweep)


def _fig5_summary(cfg, runs, rows) -> dict:
    peak_c = np.array([r["peak_C_BC"] for r in rows])
    alphas = np.array([r["alpha"] for r in rows])
    summary = {
        "alpha_min": float(alphas.min()),
        "alpha_max": float(alphas.max()),
        "min_peak_concurrence": float(peak_c.min()),
        "max_reduction_pct": float((1.0 - peak_c.min()) * 100.0),
    }
    for axis, other in (("x", "delta_y_nm"), ("y", "delta_x_nm")):
        if on_axis := [r["peak_C_BC"] for r in rows if r[other] == 0.0]:  # else none
            summary[f"reduction_{axis}_axis_pct"] = float((1.0 - min(on_axis)) * 100.0)
    return summary | _trap_peak_concurrence(cfg)


# fig5's trap rows, over atom 2's Gaussian trap (presets.TRAP_SIGMAS_NM)
TRAP_CUT_SIGMAS = 6.0     # the mean sums the cells that cover +-6 sigma
TRAP_POINTS_PER_CELL = 4  # Gauss-Legendre points per cell and axis
TRAP_BOX_SIGMAS = 2.0     # the minimum is taken inside +-2 sigma
TRAP_BYTES_PER_POINT = 40  # what the rule allocates per point of the mean: 24-34 measured


def _trap_grids(cfg: ExperimentConfig) -> tuple | None:
    """Per axis of atom 2's trap (x, then y), as displacements from its trap
    site: the mean's Gauss-Legendre points, their weights times the Gaussian,
    and the box's ends with the nodes between.  sigma_z is 0, and on z = 0
    the map is bilinear in each cell: the concurrence is least where
    |ln(rho / rho_1)| is largest, at a corner of a cell's part of the box,
    which these span.  Each position p lies within a factor 2 of its site c
    or c = 0, so p - c is exact (Sterbenz) and c + (p - c) reads the map at
    p itself.  None where the closed form is not the peak concurrence: lossy
    or detuned fig5."""
    if cfg.lossy or cfg.detuning_ghz != 0.0:
        return None
    res = cfg.resolution_nm
    # nodes u and weights 2 v[0]^2 on [-1, 1] (Golub and Welsch, 1969), not
    # numpy.polynomial's leggauss, whose import costs 3 ms
    k = np.arange(1, TRAP_POINTS_PER_CELL)
    u, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    points, weights, corners = [], [], []
    for c, s in zip(_fig5_atom2(0.0, 0.0), presets.TRAP_SIGMAS_NM[cfg.design][:2]):
        cells = np.arange(math.floor((c - TRAP_CUT_SIGMAS * s) / res),
                          math.ceil((c + TRAP_CUT_SIGMAS * s) / res))
        points.append(((cells[:, None] + (1.0 + u) / 2.0) * res).ravel() - c)
        weights.append(np.tile(2.0 * v[0] ** 2, cells.size)
                       * np.exp(-0.5 * (points[-1] / s) ** 2))
        lo, hi = c - TRAP_BOX_SIGMAS * s, c + TRAP_BOX_SIGMAS * s
        nodes = np.arange(math.floor(lo / res), math.ceil(hi / res) + 1) * res
        corners.append(np.clip(nodes, lo, hi) - c)
    return points, weights, corners


def _trap_peak_concurrence(cfg: ExperimentConfig) -> dict:
    """The closed-form peak concurrence 2 alpha / (1 + alpha^2), alpha from
    the map as the sweep takes it: its mean over the trap, and its minimum
    inside the box."""
    if not (grids := _trap_grids(cfg)):
        return {}
    (dx, dy), (wx, wy), corners = grids

    def concurrence(at):
        alpha = _fig5_alphas(cfg, *at)
        return 2.0 * alpha / (1.0 + alpha * alpha)

    return {"trap_mean_peak_concurrence":
            float(wx @ concurrence((dx, dy)) @ wy / (wx.sum() * wy.sum())),
            "trap_min_peak_concurrence_2sigma": float(concurrence(corners).min())}


def _wstate_plan(cfg: ExperimentConfig) -> Plan:
    return Plan((Run("wstate", cfg.n_atoms, cfg.resolved_couplings_ghz, cfg.n_photons,
                     cfg.t_end_ns, cfg.dt_ns, cfg.observables, _chi_states),), _wstate_summary,
                reads={"wstate": ("P_chi1",)})


def _wstate_summary(cfg, runs, rows) -> dict:
    gs = cfg.resolved_couplings_ghz()
    traj = runs["wstate"]
    freq = _fit(dyn.rabi_frequency, runs, "wstate", "P_chi1")
    return {
        "collective_frequency_ghz": freq,
        "collective_frequency_expected_ghz": analytic.CouplingVector(
            tuple(ghz_to_angular(g) for g in gs)).g_norm / np.pi,
        "enhancement_over_single_atom": freq / (2.0 * gs[0]),
        "peak_p_chi1": float(np.max(traj.series("P_chi1"))),
        "w_fidelity_peak": float(np.sqrt(np.max(traj.series("P_chi1")))),
    }


def _custom_plan(cfg: ExperimentConfig) -> Plan:
    return Plan((Run("custom", cfg.n_atoms, cfg.resolved_couplings_ghz, cfg.n_photons,
                     cfg.t_end_ns, cfg.dt_ns, cfg.observables),), lambda cfg, runs, rows: {})


class Scenario(NamedTuple):
    note: str                 # the line `cavitysim scenarios` prints
    defaults: dict            # applied before the config's own keys
    plan: Callable            # cfg -> Plan


SCENARIOS = {
    "fig2_single_atom": Scenario(
        "single atom, one photon: Rabi cycles and envelope lifetime",
        dict(n_atoms=1, n_photons=1, t_end_ns=0.1, dt_ns=5e-5,
             t_long_ns=40.0, dt_long_ns=0.005), _fig2_plan),
    "fig3_two_atom": Scenario(
        "two atoms, equal/ratio coupling, one- and two-photon dynamics",
        dict(n_atoms=2, n_photons=1, alpha=0.7, t_end_ns=0.3, dt_ns=2e-4), _fig3_plan),
    "fig4_correlations": Scenario(
        "entropies and concurrence for the two-atom runs + alpha sweep",
        dict(n_atoms=2, n_photons=1, alpha=0.7, t_end_ns=0.3, dt_ns=2e-4,
             observables=("populations", "n_photon", "entropies", "concurrence")), _fig4_plan),
    "fig5_position_map": Scenario(
        "entanglement vs trap displacement on a synthetic field map",
        dict(n_atoms=2, n_photons=1, lossless=True,
             observables=("populations", "n_photon", "entropies", "concurrence")), _fig5_plan),
    "n_atom_wstate": Scenario(
        "N equally coupled atoms generating the shared-excitation state",
        dict(n_atoms=3, n_photons=1, t_end_ns=0.12, dt_ns=1e-4), _wstate_plan),
    "custom": Scenario("direct parameter run without scenario presets", {}, _custom_plan),
}

# How each two-atom scenario couples atom 2, atom 1 being at g_ghz: a
# couplings_ghz list, which none of its runs reads, is an error.
_BY_ALPHA = "atom 2 at alpha times it; set g_ghz and alpha instead"
_ATOM2_RULE = {
    "fig3_two_atom": _BY_ALPHA,
    "fig4_correlations": _BY_ALPHA,
    "fig5_position_map": "atom 2 as the field map gives at each displacement; set g_ghz instead",
}


# The sweep axes a scenario runs, each with the grid it takes where the
# config has no table for it; a table of any other axis is an error.
def default_sweeps(scenario: str, design: str) -> tuple:
    if scenario == "fig5_position_map":
        dy_max = presets.TIP_GAP_NM if design == "D3" else presets.HOLE_RADIUS_NM
        return (
            SweepAxis("delta_x_nm", 0.0, presets.HOLE_RADIUS_NM, 9),
            SweepAxis("delta_y_nm", 0.0, dy_max, 9),
        )
    if scenario == "fig4_correlations":
        return (SweepAxis("alpha", 0.0, 2.0, 21),)
    return ()


def _log2_peak_bytes(cfg: ExperimentConfig, plan: Plan) -> tuple:
    """(log2 of the plan's peak bytes, the key path of its largest part).

    The peak is the largest call of the runner (a fixed run or a block of
    sweep points as dynamics.footprint sizes it, or fig5's trap rule) plus
    what the kept trajectories and the table rows hold until the files are
    written; each part is keyed by what it grows with.  It bounds
    tracemalloc's traced peak of `run_scenario`.  The interpreter (about
    39 MB), freed blocks and the imports and argparse set-up of a process's
    first `cli.main` come on top: lossless one-atom `custom` with t_end_ns =
    1.0 and dt_ns = 0.1 is estimated at 75 658 B and traces about 251 700 B
    in a fresh process's first `cli.main(["run", ...])`, about 38 900 B in
    its second.  Where the kept trajectories are written on several
    processes at once, each holds a writer's text."""
    points = math.prod(ax.steps for ax in plan.sweep.axes) if plan.sweep else 0
    files = len(plan.runs) + (points if plan.sweep and plan.sweep.name else 0)
    writers = trajectory_writers(files)

    def footprint(run: Run, stack: int = 1) -> tuple:  # four projections at most
        return dyn.footprint(run.layout(), run.n_photons, cfg.lossy, run.track,
                             4 * bool(run.projections), run.t_end_ns / run.dt_ns + 2, stack,
                             writers)

    atoms, calls, held = ("n_atoms",), [], []  # (bytes, key) of each call, and of all held
    for run in plan.runs:
        work, keep = footprint(run)
        calls.append(list(zip(work, (atoms, run.key))))
        held += zip(keep, (atoms, run.key))
    if plan.sweep:
        point = plan.sweep.run(cfg, 0.0)  # sized alike at any alpha
        stack = min(points, dyn.stack_runs(point.n_atoms, point.n_photons, cfg.lossy,
                                           point.outputs()))
        work, keep = footprint(point, stack)
        # with no point kept, only the block in flight holds its columns: the
        # runner frees each block before the next propagates
        kept = (sum(keep) * (points if plan.sweep.name else stack), point.key)
        # a table row: a dict of Python floats, measured at 288 bytes for 4 and 5 values
        rows = (points * 64 * (len(plan.sweep.axes) + 2 + len(plan.sweep.peaks)), point.key)
        calls.append(list(zip(work, (atoms, point.key))) + ([] if plan.sweep.name else [kept]))
        held += [rows] + ([kept] if plan.sweep.name else [])
    if cfg.scenario == "fig5_position_map" and (grids := _trap_grids(cfg)):
        (x, y), _, _ = grids  # the summary's trap rule, after the sweep
        calls.append([(TRAP_BYTES_PER_POINT * x.size * y.size, ("resolution_nm",))])
    parts = max(calls, key=lambda call: sum(b for b, _ in call)) + held
    return math.log2(sum(b for b, _ in parts)), max(parts)[1]


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the OS does not report it."""
    if not hasattr(os, "sysconf"):
        return None
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _usable_cpus() -> int:
    """Number of CPUs this process may run on (1 where the OS does not say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def trajectory_writers(files: int) -> int:
    """Number of processes runner.write_trajectories writes `files`
    trajectory files on: one per file, up to the CPUs this process may run
    on, and one where it cannot fork."""
    return max(1, min(files, _usable_cpus())) if hasattr(os, "fork") else 1


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_str_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


# (type test, what the error says was expected) of each field annotation
_FLOAT = (_is_number, "a finite number")
_TYPE_TESTS = {
    int: (_is_int, "an integer"),
    float: _FLOAT,
    str: (lambda v: isinstance(v, str), "a quoted string"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
}
# key -> (type test, expected): scalar keys by their ExperimentConfig
# annotation, the two list-valued keys by hand
_KEY_TYPES = {
    **{f.name: _TYPE_TESTS[f.type] for f in fields(ExperimentConfig) if f.type in _TYPE_TESTS},
    "couplings_ghz": (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                      "a [list] of finite numbers"),
    "observables": (lambda v: isinstance(v, str) or _is_str_list(v),
                    "a [list] of strings"),
}

# A table header `[a.b]` or `[[a.b]]` (group 1) or the key of a `key = value`
# line (group 2).
_HEADER_OR_KEY = re.compile(r'\s*(?:\[\[?([^\[\]]+)\]|([\w."\s-]+?)\s*=)')


def _dotted(name: str) -> tuple:
    return tuple(part.strip().strip('"') for part in name.split("."))


def _key_lines(text: str) -> dict:
    """Line of each table header and key, by its dotted path, e.g.
    ("g_ghz",) or ("sweep", "alpha", "steps").  Only locates errors."""
    lines, table = {}, ()
    for line_no, line in enumerate(text.splitlines(), start=1):
        m = _HEADER_OR_KEY.match(line)
        if m and m[1] is not None:
            table = _dotted(m[1])
            lines.setdefault(table, line_no)
        elif m:
            lines.setdefault(table + _dotted(m[2]), line_no)
    return lines


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate; raises ConfigError listing every problem."""
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        m = re.search(r"at line (\d+)", str(exc))
        line_no = m[1] if m else len(text.splitlines())
        raise ConfigError([f"line {line_no}: {exc}"]) from None
    lines = _key_lines(text)
    errors: list = []

    def at(*path):
        return f"line {lines.get(path, 0)}"

    scalars: dict = {}
    sweeps: dict = {}
    for key, value in doc.items():
        if key == "sweep" and isinstance(value, dict):
            for axis, table in value.items():
                if axis not in SWEEP_AXES or not isinstance(table, dict):
                    errors.append(
                        f"{at('sweep', axis)}: unknown sweep axis {axis!r}; "
                        f"valid axes: {', '.join(SWEEP_AXES)}"
                    )
                    continue
                for k in [k for k in table if k not in SWEEP_KEYS]:
                    errors.append(
                        f"{at('sweep', axis, k)}: unknown sweep key {k!r} (min/max/steps)"
                    )
                sweeps[axis] = table
        elif isinstance(value, dict):
            errors.append(f"{at(key)}: unknown section {key!r} (only [sweep.<axis>])")
        elif key not in _KEY_TYPES:
            errors.append(f"{at(key)}: unknown key {key!r}")
        elif not _KEY_TYPES[key][0](value):
            errors.append(f"{at(key)}: {key}: expected {_KEY_TYPES[key][1]}, got {value!r}")
        elif _KEY_TYPES[key] is _FLOAT:
            scalars[key] = float(value)
        elif key == "couplings_ghz":
            scalars[key] = tuple(float(g) for g in value)
        elif key == "observables":
            scalars[key] = (value,) if isinstance(value, str) else tuple(value)
        else:
            scalars[key] = value

    scenario = scalars.get("scenario")
    if scenario is None:
        errors.append("line 0: missing required key 'scenario'")
    elif scenario not in SCENARIOS:
        errors.append(
            f"{at('scenario')}: scenario: unknown scenario "
            f"{scenario!r}; valid: {', '.join(SCENARIOS)}"
        )
        scenario = None
    if errors and scenario is None:
        raise ConfigError(errors)

    merged = dict(SCENARIOS[scenario].defaults)
    merged.update({k: v for k, v in scalars.items() if k != "scenario"})
    cfg = ExperimentConfig(scenario=scenario, **merged)

    bad = [o for o in cfg.observables if o not in dyn.TRACKABLE]
    if bad:
        errors.append(
            f"{at('observables')}: observables: unknown entries {bad}; "
            f"valid: {', '.join(dyn.TRACKABLE)}"
        )

    # design / preset resolution
    if cfg.design not in presets.DESIGNS:
        errors.append(
            f"{at('design')}: design: unknown design "
            f"{cfg.design!r}; valid: {', '.join(presets.DESIGNS)}"
        )
    else:
        d = presets.DESIGNS[cfg.design]
        if cfg.g_ghz <= 0:
            cfg = replace(cfg, g_ghz=d.g_ghz)
        if cfg.q_factor <= 0:
            cfg = replace(cfg, q_factor=d.q_factor)

    # sweep assembly, on the axes the scenario runs
    defaults = default_sweeps(scenario, cfg.design)
    scenario_axes = [ax.name for ax in defaults]
    axes = []
    for axis, table in sweeps.items():
        if axis not in scenario_axes:
            errors.append(f"{at('sweep', axis)}: sweep.{axis}: {scenario} runs no {axis} "
                          f"sweep; its axes: {', '.join(scenario_axes) or 'none'}")
            continue
        missing = [k for k in SWEEP_KEYS if k not in table]
        if missing:
            errors.append(f"{at('sweep', axis)}: sweep.{axis}: missing {', '.join(missing)}")
            continue
        mn, mx, st = (table[k] for k in SWEEP_KEYS)
        if not _is_int(st):
            errors.append(f"{at('sweep', axis, 'steps')}: sweep.{axis}.steps: "
                          "expected an integer")
            continue
        if st < 1:
            errors.append(f"{at('sweep', axis, 'steps')}: sweep.{axis}.steps: "
                          f"must be >= 1, got {st}")
            continue
        if not (_is_number(mn) and _is_number(mx)):
            errors.append(f"{at('sweep', axis)}: sweep.{axis}: min/max must be finite numbers")
            continue
        mn, mx = float(mn), float(mx)
        if mx < mn:
            errors.append(f"{at('sweep', axis, 'max')}: sweep.{axis}.max: {mx} is below min {mn}")
            continue
        axes.append(SweepAxis(axis, mn, mx, st))
    names = {ax.name for ax in axes}
    axes += [ax for ax in defaults if ax.name not in names]
    cfg = replace(cfg, sweeps=tuple(sorted(axes, key=lambda ax: ax.name)))

    # range validation (name the key)
    def check(cond, key, reason):
        if not cond:
            errors.append(f"{at(key)}: {key}: {reason}")

    plan = SCENARIOS[scenario].plan(cfg)
    # A run the summary reads, or projects onto the collective mode, needs
    # an excitation to exchange and an atom that couples.
    read = [run for run in plan.runs if run.projections or run.name in plan.reads]
    check(cfg.n_atoms >= 1, "n_atoms", f"must be >= 1, got {cfg.n_atoms}")
    check(cfg.n_photons >= 0, "n_photons", f"must be >= 0, got {cfg.n_photons}")
    check(all(run.n_photons >= 1 for run in read), "n_photons",
          f"must be >= 1 for {scenario}, whose summary reads an exchange, got {cfg.n_photons}")
    check(cfg.g_ghz > 0, "g_ghz", f"must be > 0, got {cfg.g_ghz}")
    check(cfg.alpha >= 0, "alpha", f"must be >= 0, got {cfg.alpha}")
    if cfg.couplings_ghz and scenario in _ATOM2_RULE:
        errors.append(f"{at('couplings_ghz')}: couplings_ghz: {scenario} reads no list: atom 1 "
                      f"couples at g_ghz and {_ATOM2_RULE[scenario]}")
    elif cfg.couplings_ghz:
        check(len(cfg.couplings_ghz) == cfg.n_atoms, "couplings_ghz",
              f"length {len(cfg.couplings_ghz)} != n_atoms {cfg.n_atoms}")
        check(all(g >= 0 for g in cfg.couplings_ghz), "couplings_ghz",
              "entries must be >= 0")
        idle = [run.name for run in read if not any(run.couplings_ghz())]
        check(not idle, "couplings_ghz",
              f"{scenario} would run {', '.join(idle)} with every coupling zero")
        check(idle or scenario != "n_atom_wstate" or cfg.couplings_ghz[0] > 0, "couplings_ghz",
              f"{scenario} compares the collective exchange with atom 1's: atom 1 must couple")
    check(cfg.q_factor > 0, "q_factor", f"must be > 0, got {cfg.q_factor}")
    check(cfg.kappa_mhz >= 0 or "kappa_mhz" not in scalars, "kappa_mhz",
          f"must be >= 0, got {cfg.kappa_mhz}")
    check(cfg.gamma_mhz >= 0, "gamma_mhz", f"must be >= 0, got {cfg.gamma_mhz}")
    check(cfg.lambda_nm > 0, "lambda_nm", f"must be > 0, got {cfg.lambda_nm}")
    check(cfg.t_end_ns > 0, "t_end_ns", f"must be > 0, got {cfg.t_end_ns}")
    check(cfg.dt_ns > 0, "dt_ns", f"must be > 0, got {cfg.dt_ns}")
    check(cfg.workers >= 1, "workers", f"must be >= 1, got {cfg.workers}")
    if cfg.scenario == "fig2_single_atom":  # the only scenario with a long run
        # Its summary reads pop_0e and compares the exchange with the
        # one-photon g/pi; from 0 photons the check above names the key.
        check(cfg.n_photons <= 1, "n_photons",
              f"must be 1 for {scenario}, whose summary compares the one-photon "
              f"exchange with g/pi, got {cfg.n_photons}")
        check(cfg.t_long_ns > 0, "t_long_ns", f"must be > 0, got {cfg.t_long_ns}")
        check(cfg.dt_long_ns > 0, "dt_long_ns", f"must be > 0, got {cfg.dt_long_ns}")
    if cfg.scenario == "fig5_position_map":  # the only scenario with a field map
        check(cfg.design in ("D1", "D3"), "design",
              "fig5_position_map needs a synthetic map (designs D1 or D3)")
        lo, hi = coupling.SYNTH_RESOLUTION_RANGE
        check(lo <= cfg.resolution_nm <= hi, "resolution_nm",
              f"must be in [{lo:g}, {hi:g}], got {cfg.resolution_nm}")
        if lo <= cfg.resolution_nm <= hi:
            # Atom 2 must stay on the map's grid at both ends of the sweep.
            sweeps = (cfg.sweep("delta_x_nm"), cfg.sweep("delta_y_nm"))
            bounds = coupling.synth_grid_bounds(cfg.resolution_nm)
            for key in ("min", "max"):
                r2 = _fig5_atom2(*(getattr(ax, key) for ax in sweeps))
                for ax, c, axis, (low, high) in zip(sweeps, r2, "xy", bounds):
                    if not low <= c <= high:
                        errors.append(
                            f"{at('sweep', ax.name, key)}: sweep.{ax.name}.{key}: puts atom 2 "
                            f"at {axis} = {c:g} nm, off the map's grid ({low:g} to {high:g} nm)")

    if not errors:
        try:
            dims = [run.layout().dim for run in plan.runs]
        except ValueError as exc:  # a basis index is an int64
            errors.append(f"{at('n_atoms')}: n_atoms: {exc}")
        else:
            wide = [(d, run.name) for d, run in zip(dims, plan.runs)
                    if "populations" in run.track and d > dyn.POPULATIONS_MAX_DIM]
            if wide:
                d, name = max(wide)
                errors.append(
                    f"{at('observables')}: observables: 'populations' would write a column per "
                    f"basis state, {d} for run {name!r}, more than the "
                    f"{dyn.POPULATIONS_MAX_DIM} of dynamics.POPULATIONS_MAX_DIM")
    memory = _physical_memory()
    if not errors and memory:
        need, key = _log2_peak_bytes(cfg, plan)
        if need > math.log2(memory):
            errors.append(
                f"{at(*key)}: {'.'.join(key)}: the run needs about {2.0**need / 1e9:.3g} GB at "
                f"peak, more than the {memory / 1e9:.3g} GB of physical memory")

    if not errors:
        # Each column the summary or the sweep's table reads must be recorded.
        runs = {run.name: run for run in plan.runs}
        reads = [(f"run {name!r}", runs[name], columns) for name, columns in plan.reads.items()]
        if plan.sweep:
            reads.append(("every sweep point", plan.sweep.run(cfg, 0.0), plan.sweep.peaks))
        for name, run, columns in reads:
            layout = run.layout()
            # The observable behind each column it can record (populations by
            # prefix, unbuilt); the others are projections, which a run always records.
            source = {c: o for o in dyn.TRACKABLE if o != "populations"
                      for c in dyn.tracked_columns(layout, (o,))}
            source |= {c: "populations" for c in columns if c.startswith("pop_")}
            for column in columns:
                if column in source and source[column] not in run.track:
                    errors.append(
                        f"{at('observables')}: observables: {scenario} reads column "
                        f"{column!r} of {name}, which needs {source[column]!r} in this list")

    if errors:
        raise ConfigError(errors)
    return cfg


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        # json escapes quotes, backslashes and control characters the way a
        # TOML basic string does, except DEL
        return json.dumps(v, ensure_ascii=False).replace("\x7f", "\\u007f")
    if isinstance(v, tuple):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Fully resolved config as TOML; parse(canonical_text(cfg)) == cfg."""
    lines = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if f.name == "sweeps" or (f.name == "couplings_ghz" and not value):
            continue  # sweeps follow as tables
        if f.name == "kappa_mhz" and value < 0:
            continue  # sentinel for "derive from q_factor"
        lines.append(f"{f.name} = {_format_value(value)}")
    for ax in cfg.sweeps:
        lines.append("")
        lines.append(f"[sweep.{ax.name}]")
        lines.append(f"min = {_format_value(ax.min)}")
        lines.append(f"max = {_format_value(ax.max)}")
        lines.append(f"steps = {ax.steps}")
    return "\n".join(lines) + "\n"
