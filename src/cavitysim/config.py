"""Experiment configuration, read from a TOML file, and what each scenario runs.

A config is TOML limited to top-level `key = value` pairs plus optional
`[sweep.<axis>]` tables, parsed with the stdlib `tomllib`.  On top of TOML
the checks are deliberately strict: unknown keys, sections, sweep axes and
sweep keys, sweep tables of an axis the scenario does not run (it runs those
of `default_sweeps`), bad types and out-of-range values are hard errors
carrying the line number, so a typo in a physics parameter cannot silently
run with a default.  So is a key of a scenario's `fixed` set, one its
plan and summary do not vary, at any value but the one it takes when
absent (the scenario's default, else the ExperimentConfig default), so no
config records a value its run ignored.  So is a run that would not fit
in physical memory, a layout whose basis indices overflow int64, or an
`observables` list with a repeated entry or with `populations` for more
than dynamics.POPULATIONS_MAX_DIM basis states.  All such problems are
reported together; a TOML syntax error stops the parse (so syntax errors are
reported one at a time), and so does an `n_atoms` that overflows int64
at any photon number.  Every omitted key is filled from the scenario's
defaults (g_ghz and q_factor from the design's) at parse time, and
`canonical_text` emits the fully resolved form as valid TOML;
parse(canonical_text(cfg)) round-trips to an equal config.  The fields of
`ExperimentConfig`, and of `SweepAxis` in each `[sweep.<axis>]` table, are
the one list of keys: each key's type test (`_KEY_TYPES`, by dotted path)
and its line in `canonical_text` follow from them, and one table,
`_BOUNDS`, holds the lowest value of each key that has one, checked for
every value the file sets.  `SCENARIOS` holds each scenario's `cavitysim
scenarios` note, its defaults, its fixed keys and its plan: the runs it
makes, the summary drawn from them and the runs that summary reads, built
from the config alone with no map read.  Every run records the config's
`observables`, then each observable the plan's summary or table reads that
the list lacks (`_recording`).  The runner executes the plan; the memory
gate adds up what dynamics.footprint says it allocates.  Nothing here
propagates: runner.check_fits makes the summary's fits that `cavitysim
validate` checks.

Example::

    scenario = "fig5_position_map"
    design = "D3"

    [sweep.delta_x_nm]
    min = 0.0
    max = 53.0
    steps = 9
"""

import bisect
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

from . import analytic, coupling, dynamics as dyn, entanglement as ent, fockspace as fs, presets
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
    g_ghz: float = 0.0          # absent -> design preset
    alpha: float = 1.0
    couplings_ghz: tuple = ()   # explicit per-atom list; overrides g/alpha
    q_factor: float = 0.0       # absent -> design preset
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
    """One trajectory: n_atoms atoms with the tuple couplings_ghz of one
    coupling per atom, started in |n_photons, g..g> and recorded on the
    uniform grid of about dt_ns steps up to t_end_ns; `key` is the config
    key that sizes that grid."""

    name: str | None            # written as traj_<name>.csv; None keeps nothing
    n_atoms: int
    couplings_ghz: tuple        # GHz, one per atom
    n_photons: int
    t_end_ns: float
    dt_ns: float
    track: tuple
    projections: Callable | None = None  # (layout, run) -> {column: ket}
    key: tuple = ("dt_ns",)

    def outputs(self) -> int:
        """Number of output times of times(), at most 2^64 + 1: past that,
        more than any memory holds, the count is not needed exactly."""
        return max(1, round(min(self.t_end_ns / self.dt_ns, 2.0**64))) + 1

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end_ns, self.outputs())

    def layout(self) -> HilbertLayout:
        """The run's Hilbert space: its start photons and one guard level,
        whose populations read 0 (no run gains a photon)."""
        return HilbertLayout(self.n_photons + 1, self.n_atoms)


class Sweep(NamedTuple):
    """A run per point of the product of `axes`: the config's two atoms at
    (g, alpha g) from its one photon, over `steps` steps up to
    c pi / (g sqrt(1 + alpha^2)), grid = (c, steps).  alpha_rule takes each axis's values and gives every
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
        return Run(name, cfg.n_atoms, _leading(cfg, alpha), cfg.n_photons, t_end,
                   t_end / steps, self.track,
                   key=("sweep", max(self.axes, key=lambda a: a.steps).name, "steps"))


class Plan(NamedTuple):
    runs: tuple                 # of Run: the fixed runs, each kept
    summarize: Callable         # (cfg, kept trajectories by name, table rows) -> dict
    sweep: Sweep | None = None
    reads: tuple = ()           # names of the runs summarize reads, which check_fits propagates


def _angular(run: Run) -> tuple:
    return tuple(ghz_to_angular(g) for g in run.couplings_ghz)


def _chi_states(layout, run: Run) -> dict:
    """P_chi0 and P_chi1: |1, g..g> and the collective atomic excitation."""
    chi0, chi1 = analytic.single_excitation_states(layout, _angular(run))
    return {"P_chi0": chi0, "P_chi1": chi1}


def _two_atom_states(layout, run: Run) -> dict:
    if run.n_photons == 2:
        chis = analytic.two_photon_states(layout, *_angular(run))
        return {f"P_chi{k}": chi for k, chi in enumerate(chis)}
    return _chi_states(layout, run) | {"P_psi_plus": analytic.symmetric_bell_state(layout)}


def _recording(cfg: ExperimentConfig, *needed) -> tuple:
    """What every run of a plan records: the config's observables, then each
    of `needed`, the observables its summary or table reads, that they lack."""
    return cfg.observables + tuple(o for o in needed if o not in cfg.observables)


def _fit(fit: Callable, runs: dict, name: str, column: str):
    """fit(runs[name], column), raising SummaryFitError where it fails."""
    try:
        return fit(runs[name], column)
    except (dyn.TooFewExtremaError, dyn.NonDecayingEnvelopeError) as exc:
        raise SummaryFitError(name, exc) from exc


def _leading(cfg: ExperimentConfig, *ratios) -> tuple:
    """Atom 1's coupling g_ghz, then g_ghz times each ratio."""
    return (cfg.g_ghz,) + tuple(r * cfg.g_ghz for r in ratios)


def _fig2_plan(cfg: ExperimentConfig) -> Plan:
    g, track = _leading(cfg), _recording(cfg, "populations")
    return Plan((
        Run("short", cfg.n_atoms, g, cfg.n_photons, cfg.t_end_ns, cfg.dt_ns, track),
        Run("long", cfg.n_atoms, g, cfg.n_photons, cfg.t_long_ns, cfg.dt_long_ns, track,
            key=("dt_long_ns",)),
    ), _fig2_summary, reads=("short", "long"))


def _fig2_summary(cfg, runs, rows) -> dict:
    g = cfg.g_ghz
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


def _two_atom_runs(cfg: ExperimentConfig, track: tuple) -> tuple:
    """The four standard two-atom runs, photon number x coupling ratio, each
    recording `track`."""
    return tuple(
        Run(f"{photons}_photon_{kind}", cfg.n_atoms, _leading(cfg, ratio), n,
            cfg.t_end_ns, cfg.dt_ns, track, _two_atom_states)
        for n, photons in ((1, "one"), (2, "two"))
        for kind, ratio in (("equal", 1.0), ("ratio", cfg.alpha))
    )


def _fig3_plan(cfg: ExperimentConfig) -> Plan:
    return Plan(_two_atom_runs(cfg, _recording(cfg, "populations", "concurrence")),
                _fig3_summary, reads=("one_photon_equal", "one_photon_ratio"))


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
    track = _recording(cfg, "entropies", "concurrence")
    sweep = Sweep((cfg.sweep("alpha"),), lambda alpha: alpha, (1.2, 300), track,
                  ("S_B", "S_C", "C_BC"), "alpha_map.csv")
    return Plan(_two_atom_runs(cfg, track), _fig4_summary, sweep, ("one_photon_equal",))


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
                  _recording(cfg, "entropies", "concurrence"), ("S_C", "C_BC"), "map.csv",
                  "dx{:02d}_dy{:02d}".format)
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
    return Plan((Run("wstate", cfg.n_atoms, cfg.resolved_couplings_ghz(), cfg.n_photons,
                     cfg.t_end_ns, cfg.dt_ns, cfg.observables, _chi_states),), _wstate_summary,
                reads=("wstate",))


def _wstate_summary(cfg, runs, rows) -> dict:
    gs = cfg.resolved_couplings_ghz()
    traj = runs["wstate"]
    freq = _fit(dyn.rabi_frequency, runs, "wstate", "P_chi1")
    return {
        "collective_frequency_ghz": freq,
        "collective_frequency_expected_ghz":
            analytic.coupling_norm(ghz_to_angular(g) for g in gs) / np.pi,
        "enhancement_over_single_atom": freq / (2.0 * gs[0]),
        "peak_p_chi1": float(np.max(traj.series("P_chi1"))),
        "w_fidelity_peak": float(np.sqrt(np.max(traj.series("P_chi1")))),
    }


def _custom_plan(cfg: ExperimentConfig) -> Plan:
    return Plan((Run("custom", cfg.n_atoms, cfg.resolved_couplings_ghz(), cfg.n_photons,
                     cfg.t_end_ns, cfg.dt_ns, cfg.observables),), lambda cfg, runs, rows: {})


class Scenario(NamedTuple):
    note: str                 # the line `cavitysim scenarios` prints
    defaults: dict            # applied before the config's own keys
    plan: Callable            # cfg -> Plan
    # keys the plan and summary do not vary, each held at the value it takes
    # when absent: set to anything else, they are an error
    fixed: tuple


# fig3 and fig4 run one and two photons and couple atom 2 at alpha g
_TWO_ATOM_FIXED = ("n_atoms", "n_photons", "couplings_ghz", "t_long_ns", "dt_long_ns",
                   "resolution_nm")

SCENARIOS = {
    "fig2_single_atom": Scenario(
        "single atom, one photon: Rabi cycles and envelope lifetime",
        dict(n_atoms=1, n_photons=1, t_end_ns=0.1, dt_ns=5e-5,
             t_long_ns=40.0, dt_long_ns=0.005), _fig2_plan,
        ("n_atoms", "n_photons", "alpha", "couplings_ghz", "resolution_nm")),
    "fig3_two_atom": Scenario(
        "two atoms, equal/ratio coupling, one- and two-photon dynamics",
        dict(n_atoms=2, n_photons=1, alpha=0.7, t_end_ns=0.3, dt_ns=2e-4), _fig3_plan,
        _TWO_ATOM_FIXED),
    "fig4_correlations": Scenario(
        "entropies and concurrence for the two-atom runs + alpha sweep",
        dict(n_atoms=2, n_photons=1, alpha=0.7, t_end_ns=0.3, dt_ns=2e-4,
             observables=("populations", "n_photon", "entropies", "concurrence")), _fig4_plan,
        _TWO_ATOM_FIXED),
    "fig5_position_map": Scenario(
        "entanglement vs trap displacement on a synthetic field map",
        dict(n_atoms=2, n_photons=1, lossless=True,
             observables=("populations", "n_photon", "entropies", "concurrence")), _fig5_plan,
        ("n_atoms", "n_photons", "alpha", "couplings_ghz", "t_end_ns", "dt_ns", "t_long_ns",
         "dt_long_ns")),
    "n_atom_wstate": Scenario(
        "N equally coupled atoms generating the shared-excitation state",
        dict(n_atoms=3, n_photons=1, t_end_ns=0.12, dt_ns=1e-4), _wstate_plan,
        ("n_photons", "t_long_ns", "dt_long_ns", "resolution_nm")),
    "custom": Scenario("direct parameter run without scenario presets", {}, _custom_plan,
                       ("t_long_ns", "dt_long_ns", "resolution_nm")),
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

    The peak is the largest call of the runner (a fixed run or the stack
    of every sweep point, as dynamics.footprint sizes it, or fig5's trap
    rule) plus what the kept trajectories and the table rows hold until
    the files are written; each part is keyed by what it grows with.  A
    sweep propagates as one stack of all its points, so a sweep too large
    for memory is rejected at validate, even where its points would fit a
    few at a time.  The peak bounds tracemalloc's traced peak of
    `run_scenario`.  The interpreter (about 39 MB), freed blocks and the
    imports and argparse set-up of a process's first `cli.main` come on
    top: lossless one-atom `custom` with t_end_ns = 1.0 and dt_ns = 0.1 is
    estimated at 74 794 B and traces about 251 300 B in a fresh process's
    first `cli.main(["run", ...])`, about 40 700 B in its second.  Where
    the kept trajectories are written on several processes at once
    (writer_shares), each holds a writer's text."""
    points = math.prod(ax.steps for ax in plan.sweep.axes) if plan.sweep else 0
    point = plan.sweep.run(cfg, 0.0) if plan.sweep else None  # sized alike at any alpha
    rows = {run.name: run.outputs() for run in plan.runs}
    if plan.sweep and plan.sweep.name:  # its files as one: their total sets the count
        rows["sweep points"] = points * point.outputs()
    writers = len(writer_shares(rows))

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
        work, keep = footprint(point, points)  # every point in one stack
        kept = (sum(keep) * points, point.key)
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


# Blocks of dynamics.CSV_BLOCK_ROWS rows by which a forked writer's share
# is planned shorter than this process's (writer_shares).  A child starts
# about 1.2 ms later, and on a 2-core host shared with other load its CPU
# often writes at half speed; with equal shares, fig2's parent mostly
# waited for its child.
CHILD_BLOCKS = 2


def writer_shares(rows: dict) -> list:
    """The shares, one per writer process, in which runner.write_trajectories
    writes files of rows[name] rows: lists of pieces (name, start, stop),
    the files in name order cut only where a block of CSV_BLOCK_ROWS rows
    starts.  A share per CPU while each child's is planned a block at
    least, (total - CHILD_BLOCKS blocks) / shares, so the total alone sets
    the count; one where the OS cannot fork.  The first, this process's,
    is planned CHILD_BLOCKS blocks longer than each other; each cut is at
    the block edge nearest its planned row (the earlier of two as near),
    and an empty file there starts the later share."""
    size, child = dyn.CSV_BLOCK_ROWS, CHILD_BLOCKS * dyn.CSV_BLOCK_ROWS
    names = sorted(rows)
    starts = [0, *itertools.accumulate(rows[name] for name in names)]
    count = max(1, min(starts[-1] // size - CHILD_BLOCKS, _usable_cpus())) if hasattr(os, "fork") else 1
    own = (starts[-1] + (count - 1) * child) / count
    cuts = []
    for i in range(1, count):
        planned = i * own - (i - 1) * child  # the rows before share i
        f = bisect.bisect_right(starts, planned, hi=len(names)) - 1  # the file it falls in
        below = starts[f] + int(planned - starts[f]) // size * size
        above = min(below + size, starts[f + 1])
        cuts.append(below if planned - below <= above - planned else above)
    shares = [[] for _ in range(count)]
    for name, start, stop in zip(names, starts, starts[1:]):
        edges = [start, *(cut for cut in cuts if start < cut < stop), stop]
        for first, last in zip(edges, edges[1:]):
            shares[bisect.bisect_right(cuts, first)].append((name, first - start, last - start))
    return shares


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# (type test, what the error says was expected) of each field annotation;
# the annotation converts a value that passes its test
_TYPE_TESTS = {
    int: (_is_int, "an integer"),
    float: (_is_number, "a finite number"),
    str: (lambda v: isinstance(v, str), "a quoted string"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
}
# dotted path -> (type test, expected, conversion): the keys by their
# ExperimentConfig annotation, the sweep keys by their SweepAxis one, and
# the two list-valued keys by hand
_KEY_TYPES = {
    **{(f.name,): (*_TYPE_TESTS[f.type], f.type)
       for f in fields(ExperimentConfig) if f.type in _TYPE_TESTS},
    ("couplings_ghz",): (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                         "a [list] of finite numbers", lambda v: tuple(map(float, v))),
    ("observables",): (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
                       "a [list] of strings", tuple),
    **{("sweep", axis, f.name): (*_TYPE_TESTS[f.type], f.type)
       for axis in SWEEP_AXES for f in fields(SweepAxis) if f.name in SWEEP_KEYS},
}
# dotted path -> (lowest value, whether it is allowed) of each bounded key,
# in the order their errors are listed.  Only a value the file sets is
# checked: an absent key takes a default in range, or g_ghz and q_factor
# the design's preset and kappa_mhz its sentinel -1 (derive from q_factor).
_BOUNDS = {
    ("n_atoms",): (1, True), ("n_photons",): (0, True), ("g_ghz",): (0, False),
    ("alpha",): (0, True), ("q_factor",): (0, False), ("kappa_mhz",): (0, True),
    ("gamma_mhz",): (0, True), ("lambda_nm",): (0, False), ("t_end_ns",): (0, False),
    ("dt_ns",): (0, False), ("workers",): (1, True), ("t_long_ns",): (0, False),
    ("dt_long_ns",): (0, False),
    **{("sweep", axis, "steps"): (1, True) for axis in SWEEP_AXES},
    ("sweep", "alpha", "min"): (0, True),  # as the alpha key
}


def out_of_bounds(path: tuple, value) -> str:
    """'must be <op> <lowest>' where `value` breaks the bound of `path` in
    _BOUNDS, else ''."""
    low, inclusive = _BOUNDS[path]
    op = ">=" if inclusive else ">"
    return "" if value > low or inclusive and value == low else f"must be {op} {low}"


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

    values: dict = {}  # path -> value of each key the file sets with its type, converted
    tables: dict = {}  # axis -> its [sweep.<axis>] table

    def take(path, value):
        if path not in _KEY_TYPES:
            errors.append(f"{at(*path)}: unknown key {path[0]!r}" if len(path) == 1 else
                          f"{at(*path)}: unknown sweep key {path[-1]!r} (min/max/steps)")
        elif not _KEY_TYPES[path][0](value):
            errors.append(f"{at(*path)}: {'.'.join(path)}: expected {_KEY_TYPES[path][1]}, "
                          f"got {value!r}")
        else:
            values[path] = _KEY_TYPES[path][2](value)

    for key, value in doc.items():
        if key == "sweep" and isinstance(value, dict):
            for axis, table in value.items():
                if axis not in SWEEP_AXES:
                    errors.append(f"{at('sweep', axis)}: unknown sweep axis {axis!r}; "
                                  f"valid axes: {', '.join(SWEEP_AXES)}")
                elif not isinstance(table, dict):
                    errors.append(f"{at('sweep', axis)}: sweep.{axis}: "
                                  "expected a table of min, max and steps")
                else:
                    tables[axis] = table
                    for k, v in table.items():
                        take(("sweep", axis, k), v)
        elif isinstance(value, dict):
            errors.append(f"{at(key)}: unknown section {key!r} (only [sweep.<axis>])")
        else:
            take((key,), value)

    scenario = values.get(("scenario",))
    if "scenario" not in doc:  # one of the wrong type has its error above
        errors.append("line 0: missing required key 'scenario'")
    elif ("scenario",) in values and scenario not in SCENARIOS:
        errors.append(
            f"{at('scenario')}: scenario: unknown scenario "
            f"{scenario!r}; valid: {', '.join(SCENARIOS)}"
        )
        scenario = None
    if errors and scenario is None:
        raise ConfigError(errors)

    spec = SCENARIOS[scenario]
    absent = {f.name: f.default for f in fields(ExperimentConfig)} | spec.defaults
    # a fixed key leaves the config at its default, so no later check names it again
    for key in [p[0] for p in values if p[0] in spec.fixed]:
        if (value := values.pop((key,))) != absent[key]:
            errors.append(f"{at(key)}: {key}: must be {_format_value(absent[key])} for "
                          f"{scenario}, got {_format_value(value)}")
    cfg = ExperimentConfig(**spec.defaults | {p[0]: v for p, v in values.items() if len(p) == 1})
    if fs.index_overflow(1, cfg.n_atoms):  # at any photon number: build no plan, as
        # it holds a coupling per atom
        raise ConfigError(errors + [f"{at('n_atoms')}: n_atoms: "
                                    f"{fs.index_overflow(cfg.n_photons + 1, cfg.n_atoms)}"])

    bad = [o for o in cfg.observables if o not in dyn.TRACKABLE]
    repeated = [o for i, o in enumerate(cfg.observables) if o in cfg.observables[:i]]
    if bad:
        errors.append(
            f"{at('observables')}: observables: unknown entries {bad}; "
            f"valid: {', '.join(dyn.TRACKABLE)}"
        )
    elif repeated:
        errors.append(f"{at('observables')}: observables: repeated entries {repeated}")

    # design / preset resolution
    if cfg.design not in presets.DESIGNS:
        errors.append(
            f"{at('design')}: design: unknown design "
            f"{cfg.design!r}; valid: {', '.join(presets.DESIGNS)}"
        )
    else:  # the preset of each key the config does not set
        d = presets.DESIGNS[cfg.design]
        cfg = replace(cfg, **{k: getattr(d, k) for k in ("g_ghz", "q_factor")
                              if (k,) not in values})

    # the axes the scenario runs, each on its default grid unless a table sets it
    axes = {ax.name: ax for ax in default_sweeps(scenario, cfg.design)}
    for axis, table in tables.items():
        if axis not in axes:
            errors.append(f"{at('sweep', axis)}: sweep.{axis}: {scenario} runs no {axis} "
                          f"sweep; its axes: {', '.join(axes) or 'none'}")
        elif missing := [k for k in SWEEP_KEYS if k not in table]:
            errors.append(f"{at('sweep', axis)}: sweep.{axis}: missing {', '.join(missing)}")
        elif all(("sweep", axis, k) in values for k in SWEEP_KEYS):  # else a type error above
            ax = SweepAxis(axis, *(values["sweep", axis, k] for k in SWEEP_KEYS))
            if ax.max < ax.min:
                errors.append(f"{at('sweep', axis, 'max')}: sweep.{axis}.max: {ax.max} is "
                              f"below min {ax.min}")
            else:
                axes[axis] = ax
    cfg = replace(cfg, sweeps=tuple(axes[name] for name in sorted(axes)))

    plan = spec.plan(cfg)
    for path in _BOUNDS:  # each value the file sets; an absent one is in range
        if path in values and (bound := out_of_bounds(path, values[path])):
            errors.append(f"{at(*path)}: {'.'.join(path)}: {bound}, got {values[path]}")

    def check(cond, key, reason):
        if not cond:
            errors.append(f"{at(key)}: {key}: {reason}")

    if cfg.couplings_ghz:
        check(len(cfg.couplings_ghz) == cfg.n_atoms, "couplings_ghz",
              f"length {len(cfg.couplings_ghz)} != n_atoms {cfg.n_atoms}")
        check(all(g >= 0 for g in cfg.couplings_ghz), "couplings_ghz",
              "entries must be >= 0")
        check(scenario != "n_atom_wstate" or cfg.couplings_ghz[0] > 0, "couplings_ghz",
              f"{scenario} compares the collective exchange with atom 1's: atom 1 must couple")
    lo, hi = coupling.SYNTH_RESOLUTION_RANGE
    check(lo <= cfg.resolution_nm <= hi, "resolution_nm",
          f"must be in [{lo:g}, {hi:g}], got {cfg.resolution_nm}")
    if cfg.scenario == "fig5_position_map":  # the only scenario with a field map
        check(cfg.design in ("D1", "D3") or cfg.design not in presets.DESIGNS, "design",
              "fig5_position_map needs a synthetic map (designs D1 or D3)")
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
        lines += ["", f"[sweep.{ax.name}]"]
        lines += [f"{k} = {_format_value(getattr(ax, k))}" for k in SWEEP_KEYS]
    return "\n".join(lines) + "\n"
