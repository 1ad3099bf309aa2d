"""Calibration of the synthetic field maps' shape constants.

`coupling._D1_SHAPE` and `coupling._D3_SHAPE` are literals.  This module
derives them from the published design targets in `presets`: each shape
function solves the profile constants with `scipy.optimize.brentq` on fine
1-D quadrature grids, and the tests check that the result equals the
literal to the bit, so a preset change that moves a shape fails loudly.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from cavitysim import presets
from cavitysim.coupling import (
    _D1_Y_SAT,
    _D1_Z_HALF,
    _D1_Z_TAIL,
    _D3_LOBE_LZ,
    _D3_XB_TRAP,
    _D3_YB_HALF,
    _D3_YB_TAIL,
    _D3_ZB_HALF,
    _D3_ZB_TAIL,
    _HALF_X,
    _HALF_Y,
    _HALF_Z,
    _d1_y_profile,
    _d3_xb,
    _flat_top,
    _standing_x,
)
from cavitysim.units import EPSILON_0, HBAR, SPEED_OF_LIGHT, TWO_PI

_FINE = 0.5  # nm; 1-D quadrature step used during shape calibration


@dataclass(frozen=True)
class MapDesignTargets:
    """Published scalar targets a synthetic map is calibrated against."""

    name: str
    trap_site_nm: tuple        # atom trap position used for g calibration
    v_global_m3: float         # global mode volume
    v_trap_m3: float           # local mode volume at the trap site
    alpha_x: tuple             # (displacement nm, g-ratio) along x from the trap hole
    alpha_y: tuple             # (displacement nm, g-ratio) along y


def map_design_targets(design: str) -> MapDesignTargets:
    if design not in ("D1", "D3"):
        raise ValueError(f"synthetic maps exist for designs D1 and D3, got {design!r}")
    d = presets.DESIGNS[design]
    lam_m = presets.LAMBDA_NM * 1e-9
    unit = (lam_m / presets.REFRACTIVE_INDEX) ** 3
    omega_c = TWO_PI * SPEED_OF_LIGHT / lam_m
    g_ang = TWO_PI * d.g_ghz * 1e9
    # Trap-site volume implied by the design coupling when the permittivity
    # in g(r) is read as the bulk dielectric value.
    v_trap = omega_c * presets.RB87_D2_DIPOLE_CM**2 / (
        HBAR * EPSILON_0 * presets.EPS_DIELECTRIC * g_ang**2
    )
    if design == "D1":
        return MapDesignTargets(
            name="D1",
            trap_site_nm=(0.0, 0.0, 0.0),
            v_global_m3=d.v_global_lambda_n3 * unit,
            v_trap_m3=v_trap,
            alpha_x=(presets.HOLE_RADIUS_NM, 0.95),
            alpha_y=(presets.HOLE_RADIUS_NM, 1.06),
        )
    return MapDesignTargets(
        name="D3",
        trap_site_nm=(presets.LATTICE_NM, 0.0, 0.0),
        v_global_m3=d.v_global_lambda_n3 * unit,
        v_trap_m3=v_trap,
        alpha_x=(presets.HOLE_RADIUS_NM, 0.52),
        alpha_y=(presets.TIP_GAP_NM, 0.8),
    )


def _trapz_fine(f, half_extent):
    x = np.arange(-half_extent, half_extent + _FINE / 2, _FINE)
    return float(np.trapezoid(f(x), x)), x


def _d1_shape():
    """Solve the D1 profile constants against the design targets.

    Returns (c_y, plateau_ratio, beta, sigma_x_env).
    """
    tgt = map_design_targets("D1")
    a = presets.LATTICE_NM
    ratio_m = tgt.v_trap_m3 / tgt.v_global_m3  # u_max / u(trap)
    t_ax = tgt.alpha_x[1] ** 2
    t_ay = tgt.alpha_y[1] ** 2
    dx_probe = tgt.alpha_x[0]
    dy_probe = tgt.alpha_y[0]

    c_y = brentq(lambda c: _d1_y_profile(dy_probe, c, ratio_m) - t_ay,
                 20.0, _D1_Y_SAT - 1.0)

    def beta_for(sx):
        def f(beta):
            return _standing_x(a + dx_probe, beta, sx) / _standing_x(a, beta, sx) - t_ax
        return brentq(f, 1e-9, 0.999)

    iy, _ = _trapz_fine(lambda y: _d1_y_profile(y, c_y, ratio_m), _HALF_Y)
    iz, _ = _trapz_fine(lambda z: _flat_top(z, _D1_Z_HALF, _D1_Z_TAIL), _HALF_Z)
    v_trap_nm3 = tgt.v_trap_m3 * 1e27

    def volume_gap(sx):
        beta = beta_for(sx)
        ix, _ = _trapz_fine(lambda x: _standing_x(x, beta, sx), _HALF_X)
        return 2.0 * ix * iy * iz - v_trap_nm3

    sx = brentq(volume_gap, 420.0, 3000.0, xtol=1e-6)
    beta = beta_for(sx)
    return c_y, ratio_m, beta, sx


def _d3_shape():
    """Solve the D3 profile constants: (pedestal, lobe_sx, lobe_sy, ridge_value)."""
    tgt = map_design_targets("D3")
    a = presets.LATTICE_NM
    ratio_m = tgt.v_trap_m3 / tgt.v_global_m3
    t_ax = tgt.alpha_x[1] ** 2
    t_ay = tgt.alpha_y[1] ** 2
    dx_probe = tgt.alpha_x[0]
    dy_probe = tgt.alpha_y[0]

    xb_ratio = float(_d3_xb(np.array([a + dx_probe]))[0]) / _D3_XB_TRAP

    def lobe_widths(p):
        rx = (t_ax - p * xb_ratio) / (1.0 - p)
        ry = (t_ay - p) / (1.0 - p)
        if rx <= 0 or ry <= 0:
            raise ValueError("pedestal too large for the coupling-ratio targets")
        lx = dx_probe / math.sqrt(-2.0 * math.log(rx))
        ly = dy_probe / math.sqrt(-2.0 * math.log(ry))
        return lx, ly

    ixb, _ = _trapz_fine(_d3_xb, _HALF_X)
    iyb, _ = _trapz_fine(lambda y: _flat_top(y, _D3_YB_HALF, _D3_YB_TAIL), _HALF_Y)
    izb, _ = _trapz_fine(lambda z: _flat_top(z, _D3_ZB_HALF, _D3_ZB_TAIL), _HALF_Z)
    v_trap_nm3 = tgt.v_trap_m3 * 1e27

    def volume_gap(p):
        lx, ly = lobe_widths(p)
        ib = p * (ixb / _D3_XB_TRAP) * iyb * izb
        ilx, _ = _trapz_fine(lambda x: np.exp(-0.5 * ((x - a) / lx) ** 2), _HALF_X)
        ily, _ = _trapz_fine(lambda y: np.exp(-0.5 * (y / ly) ** 2), _HALF_Y)
        ilz, _ = _trapz_fine(lambda z: np.exp(-0.5 * (z / _D3_LOBE_LZ) ** 2), _HALF_Z)
        ilobes = 2.0 * (1.0 - p) * ilx * ily * ilz
        return 2.0 * (ib + ilobes) - v_trap_nm3

    p = brentq(volume_gap, 0.01, 0.28, xtol=1e-9)
    lx, ly = lobe_widths(p)
    return p, lx, ly, ratio_m
