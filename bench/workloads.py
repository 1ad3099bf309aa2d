"""The benchmark workloads: a config per seed and a check of its outputs.

Each workload is one cavitysim config.  The seed jitters the coupling
g_ghz by up to +-2% (the other inputs are fixed), so that a claim can be
rechecked on a seed not used while a change was written; every check
recomputes its closed form at the drawn coupling.  README.md says why each
workload exists and which ROADMAP item it is meant to judge.
"""

import csv
import math
import os
import random
from typing import Callable, NamedTuple, Optional

TRAJECTORY_SCHEMA_LINE = "# schema: cavitysim-trajectory-v1"
G_JITTER = 0.02

# Design presets written out explicitly so the workload does not move if a
# preset does: D1 trap-site coupling, Q, Rb-87 D2 linewidth, wavelength; and
# the D3 coupling from its cooperativity chain.
G_D1_GHZ = 9.0
Q_D1 = 1.3e7
GAMMA_MHZ = 6.0666
LAMBDA_NM = 780.0
G_D3_GHZ = 15.948873409597203
SPEED_OF_LIGHT = 299792458.0


class CheckError(Exception):
    """A run's outputs disagree with the closed form or the schema."""


def draw_g(seed: int, base_ghz: float) -> float:
    return base_ghz * (1.0 + G_JITTER * random.Random(seed).uniform(-1.0, 1.0))


def _read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.csv"), encoding="utf-8") as fh:
        return {row["name"]: float(row["value"]) for row in csv.DictReader(fh)}


def _traj_rows(path: str) -> list:
    """Data rows of a trajectory CSV as dicts, after checking its schema line."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != TRAJECTORY_SCHEMA_LINE:
            raise CheckError(f"{os.path.basename(path)}: first line is {first!r}")
        return list(csv.DictReader(fh))


def _rel_err(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)


# ----------------------------------------------------------------------
# fig2_rabi
# ----------------------------------------------------------------------


def fig2_config(g: float) -> str:
    return (
        'scenario = "fig2_single_atom"\n'
        f"g_ghz = {g!r}\n"
        f"q_factor = {Q_D1!r}\n"
        f"gamma_mhz = {GAMMA_MHZ!r}\n"
        f"lambda_nm = {LAMBDA_NM!r}\n"
    )


def fig2_check(out_dir: str, g: float, trajectories: dict):
    s = _read_summary(out_dir)
    # One atom, one photon: populations oscillate at g/pi (angular g), i.e.
    # 2 g in ordinary GHz; the envelope decays with tau_R = 2/(kappa+gamma).
    rabi_expected = 2.0 * g
    kappa_mhz = SPEED_OF_LIGHT / (LAMBDA_NM * 1e-9) / Q_D1 / 1e6
    tau_expected = 2.0 / (2.0 * math.pi * 1e-3 * (kappa_mhz + GAMMA_MHZ))
    err = _rel_err(s["rabi_frequency_ghz"], rabi_expected)
    if not err < 1e-3:
        raise CheckError(f"rabi_frequency_ghz relative error {err:.3e} >= 1e-3")
    err = _rel_err(s["tau_r_ns"], tau_expected)
    if not err < 0.05:
        raise CheckError(f"tau_r_ns relative error {err:.3e} >= 0.05")
    for key, expected in (("rabi_frequency_expected_ghz", rabi_expected),
                          ("tau_r_expected_ns", tau_expected)):
        if not _rel_err(s[key], expected) < 1e-9:
            raise CheckError(f"{key} = {s[key]!r}, closed form gives {expected!r}")
    if sorted(trajectories) != ["traj_long.csv", "traj_short.csv"]:
        raise CheckError(f"unexpected trajectories {sorted(trajectories)}")


# ----------------------------------------------------------------------
# fig5_d3_map
# ----------------------------------------------------------------------


def fig5_config(g: float) -> str:
    return 'scenario = "fig5_position_map"\ndesign = "D3"\n' f"g_ghz = {g!r}\n"


def fig5_check(out_dir: str, g: float, trajectories: dict):
    from cavitysim.analytic import peak_entanglement_metrics

    with open(os.path.join(out_dir, "map.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 81 or len(trajectories) != 81:
        raise CheckError(f"{len(rows)} map rows, {len(trajectories)} trajectories; want 81")
    for row in rows:
        alpha = float(row["alpha"])
        expected = peak_entanglement_metrics(alpha).concurrence
        dev = abs(float(row["peak_C_BC"]) - expected)
        if not dev < 1e-4:
            raise CheckError(f"peak_C_BC at alpha={alpha!r} deviates by {dev:.3e} >= 1e-4")
    red = _read_summary(out_dir)["reduction_y_axis_pct"]
    if not 1.5 <= red <= 3.5:
        raise CheckError(f"reduction_y_axis_pct {red!r} outside [1.5, 3.5]")


# ----------------------------------------------------------------------
# wstate_n4
# ----------------------------------------------------------------------

WSTATE_N = 4


def wstate_config(g: float) -> str:
    return (
        'scenario = "custom"\n'
        f"n_atoms = {WSTATE_N}\n"
        "n_photons = 1\n"
        "lossless = true\n"
        "t_end_ns = 0.015\n"
        "dt_ns = 1e-4\n"
        f"g_ghz = {g!r}\n"
    )


def wstate_check(out_dir: str, g: float, trajectories: dict):
    rows = trajectories.get("traj_custom.csv")
    if rows is None:
        raise CheckError(f"no traj_custom.csv among {sorted(trajectories)}")
    # Lossless, equal couplings, one photon: the photon population is
    # cos^2(g sqrt(N) t) with angular g.
    omega = 2.0 * math.pi * g * math.sqrt(WSTATE_N)
    worst = max(
        abs(float(r["pop_1" + "g" * WSTATE_N]) - math.cos(omega * float(r["time_ns"])) ** 2)
        for r in rows
    )
    if not worst < 1e-6:
        raise CheckError(f"max |pop_1gggg - cos^2(g sqrt(N) t)| = {worst:.3e} >= 1e-6")
    if float(rows[-1]["time_ns"]) < math.pi / (2.0 * omega):
        raise CheckError("run ends before the first W-state peak")


class Workload(NamedTuple):
    base_g: float  # coupling in GHz before the seed's jitter
    config: Callable  # config text for a coupling
    check: Callable  # check of a run directory
    # BLAS threads, or None for nproc.  The interpreter-bound workloads
    # multiply small matrices (d <= 8), which one thread does as fast as
    # two; the dense 2304^2 matvecs of wstate_n4 run about twice as fast on
    # two.
    blas_threads: Optional[int]
    # Scale each sample's run time by the host's speed (hostspeed.py).
    # Only the interpreter-bound workloads follow the host's drift; the
    # memory-bound wstate_n4 does not, and scaling it would add noise.
    host_corrected: bool


WORKLOADS = {
    "fig2_rabi": Workload(G_D1_GHZ, fig2_config, fig2_check, 1, True),
    "fig5_d3_map": Workload(G_D3_GHZ, fig5_config, fig5_check, 1, True),
    "wstate_n4": Workload(G_D1_GHZ, wstate_config, wstate_check, None, False),
}


def check_outputs(workload: str, out_dir: str, g: float) -> dict:
    """Check a run directory; return its output_steps and bytes_written.

    Raises CheckError (or OSError/KeyError/ValueError on missing or
    malformed files) when the outputs are wrong.
    """
    trajectories = {
        name: _traj_rows(os.path.join(out_dir, name))
        for name in sorted(os.listdir(out_dir))
        if name.startswith("traj_") and name.endswith(".csv")
    }
    WORKLOADS[workload].check(out_dir, g, trajectories)
    return {
        "output_steps": sum(len(rows) for rows in trajectories.values()),
        "bytes_written": sum(
            os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir)
        ),
    }
