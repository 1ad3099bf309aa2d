"""Position-dependent coupling from sampled cavity field maps.

A FieldMap is a regular 3-D grid of electric (D.E) and total
(D.E + H.B) energy densities.  From it we compute the local mode volume

    V(r) = integral(total energy density) / D.E(r)

with the interpolated density at the point, and the ratio of couplings
g(r2) / g(r1) = sqrt(V(r1) / V(r2)) that follows from

    g(r) = |mu| sqrt(omega_c / (hbar eps0 eps V(r)))

(over max(D.E), the same integral is the global mode volume).  This module works in SI units (J/m^3, rad/s) with grid geometry in nm.

No solver export ships with the package, so a calibrated synthetic
generator (`synth_fieldmap`) provides stand-in maps for the two nanobeam
designs: an analytic standing-wave/envelope profile whose shape
parameters are literals, calibrated so that the published scalar targets
(global mode volume, trap-site coupling, and the coupling-ratio extremes
under displacement) are reproduced; the tests re-derive each literal from
`presets` to the bit.  The generator is calibration, not prediction;
tests treat it accordingly.  A coupling ratio needs only densities at two
points, so `synth_density_plane` computes only the z = 0 nodes of the
cells a grid of points on z = 0 lies in: the runs build no map at all.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import presets
from .units import HBAR, SPEED_OF_LIGHT, TWO_PI

SYNTH_RESOLUTION_RANGE = (0.5, 5.0)  # nm


class ZeroLocalDensityError(ValueError):
    """Local D.E density is zero: the local mode volume is unboundedly large."""


@dataclass(frozen=True, eq=False)
class FieldMap:
    """Regular grid of energy densities.

    de / total have shape (nx, ny, nz) in J/m^3; spacing and origin are in
    nm (origin = coordinates of grid node [0,0,0]).
    """

    de: np.ndarray
    total: np.ndarray
    spacing_nm: tuple
    origin_nm: tuple
    lambda_nm: float

    def __post_init__(self):
        if self.de.ndim != 3 or self.de.shape != self.total.shape:
            raise ValueError("de and total must be 3-D arrays of equal shape")
        if any(n < 2 for n in self.de.shape):
            raise ValueError(f"grid must have >= 2 nodes per axis, got {self.de.shape}")
        if any(d <= 0 for d in self.spacing_nm):
            raise ValueError(f"grid spacing must be positive, got {self.spacing_nm}")
        if np.any(self.de < 0) or np.any(self.total < 0):
            raise ValueError("densities must be non-negative")
        if self.total_sum <= 0:
            raise ValueError("total energy density integrates to zero")
        if self.lambda_nm <= 0:
            raise ValueError(f"lambda must be positive, got {self.lambda_nm}")

    @cached_property
    def total_sum(self) -> float:
        """Sum of the total energy density over the grid (J/m^3), computed
        once: the map's arrays are not modified after construction."""
        return float(self.total.sum())

    @property
    def shape(self) -> tuple:
        return self.de.shape

    @property
    def omega_c(self) -> float:
        """Cavity angular frequency 2 pi c / lambda (rad/s)."""
        return TWO_PI * SPEED_OF_LIGHT / (self.lambda_nm * 1e-9)

    def cell_volume_m3(self) -> float:
        dx, dy, dz = self.spacing_nm
        return dx * dy * dz * 1e-27


def _grid_cell(origin_nm, spacing_nm, shape, r_nm) -> tuple:
    """(lower node indices, fractions) of the grid cell holding a point (nm);
    a point on the grid's upper face lies in the last cell."""
    cell = []
    for lo, d, n, r in zip(origin_nm, spacing_nm, shape, r_nm):
        if not lo <= r <= lo + d * (n - 1):
            raise ValueError(f"point {tuple(r_nm)} nm lies outside the map grid")
        f = (r - lo) / d
        i = min(math.floor(f), n - 2)
        cell.append((i, f - i))
    return tuple(zip(*cell))


def _trilinear(block: np.ndarray, frac) -> float:
    """Trilinear interpolation inside one 2 x 2 x 2 block of nodes."""
    out = 0.0
    for corner in range(8):
        bits = tuple((corner >> ax) & 1 for ax in range(3))
        w = 1.0
        for f, bit in zip(frac, bits):
            w *= f if bit else 1.0 - f
        out += w * float(block[bits])
    return out


def interpolate_density(fmap: FieldMap, array: np.ndarray, r_nm) -> float:
    """Trilinear interpolation of one of the map's arrays at a point (nm)."""
    (i, j, k), frac = _grid_cell(fmap.origin_nm, fmap.spacing_nm, fmap.shape, r_nm)
    return _trilinear(array[i:i + 2, j:j + 2, k:k + 2], frac)


@dataclass(frozen=True)
class ModeVolume:
    m3: float
    lambda_n_cubed: float | None = None


def local_mode_volume(fmap: FieldMap, r_nm) -> ModeVolume:
    """V(r) = integral(total) dV / D.E(r), midpoint-rule on the grid, with
    the interpolated D.E at the point.

    Always >= the global mode volume, the same integral over max(D.E)
    (the denominator cannot exceed the grid maximum)."""
    local = interpolate_density(fmap, fmap.de, r_nm)
    if local <= 0.0:
        raise ZeroLocalDensityError(
            f"D.E vanishes at {tuple(r_nm)} nm; local mode volume is unbounded"
        )
    return ModeVolume(m3=fmap.total_sum * fmap.cell_volume_m3() / local)


def coupling_ratio(fmap: FieldMap, r1_nm, r2_nm) -> float:
    """alpha = g(r2)/g(r1) = sqrt(V(r1)/V(r2)); independent of emitter and eps."""
    v1 = local_mode_volume(fmap, r1_nm).m3
    v2 = local_mode_volume(fmap, r2_nm).m3
    return math.sqrt(v1 / v2)


def cooperativity(g: float, kappa: float, gamma: float) -> float:
    """C = g^2 / (kappa gamma) (all three in the same unit convention).

    This convention, rather than the common 4 g^2/(kappa gamma),
    reproduces all quoted design values.
    """
    if kappa <= 0 or gamma <= 0:
        raise ValueError("kappa and gamma must be positive for a cooperativity")
    return g * g / (kappa * gamma)


# --------------------------------------------------------------------------
# Synthetic map generator
# --------------------------------------------------------------------------


def _flat_top(u: np.ndarray, half_width: float, sigma: float) -> np.ndarray:
    """1 inside |u| <= half_width, Gaussian shoulders of width sigma outside."""
    t = np.maximum(np.abs(u) - half_width, 0.0)
    return np.exp(-0.5 * (t / sigma) ** 2)


def _axis_ticks(half_extent_nm: float, resolution_nm: float) -> np.ndarray:
    n = math.ceil(half_extent_nm / resolution_nm - 1e-9)
    return np.arange(-n, n + 1) * resolution_nm


# Domain half-extents (nm); shared by both designs so maps are comparable.
_HALF_X = 1600.0
_HALF_Y = 270.0
_HALF_Z = 170.0
_HALF_EXTENTS = (_HALF_X, _HALF_Y, _HALF_Z)

# D1 profile geometry (y plateau band and z slab, nm)
_D1_Y_SAT = 140.0
_D1_Y_FLAT_END = 150.0
_D1_Y_TAIL = 30.0
_D1_Z_HALF = 50.0
_D1_Z_TAIL = 30.0

# D3 profile geometry
_D3_BETA = 0.15
_D3_SXE = 600.0
_D3_YB_HALF = 150.0
_D3_YB_TAIL = 50.0
_D3_ZB_HALF = 90.0
_D3_ZB_TAIL = 30.0
_D3_LOBE_LZ = 25.0
_D3_RIDGE_Y = 10.0
_D3_RIDGE_Z = 14.0
_D3_RIDGE_HALF = (6.0, 3.0, 3.0)
_D3_RIDGE_SIGMA = 2.0

# Shape constants calibrated against each design's published targets in
# `presets` (global mode volume, trap-site coupling and the coupling-ratio
# extremes under displacement); tests/calibration.py re-derives them to the
# bit.
# D1: (c_y, plateau_ratio, beta, sigma_x_env)
_D1_SHAPE = (67.38890415302878, 1.9651610101230934, 0.13941837327416315, 541.1446358489997)
# D3: (pedestal, lobe_sx, lobe_sy, ridge_value)
_D3_SHAPE = (0.2577859521872238, 21.582228295614094, 17.35973911510074, 2.0859403311569817)


def _s8(y, c):
    y8 = np.abs(y) ** 8
    return y8 / (y8 + c**8)


def _standing_x(x, beta, sx):
    """x factor of D1 and of D3's background: a standing wave of contrast
    beta under a Gaussian envelope of width sx."""
    standing = (1.0 - beta) + beta * np.cos(np.pi * x / presets.LATTICE_NM) ** 2
    return standing * np.exp(-0.5 * (x / sx) ** 2)


def _d1_y_profile(y, c, ratio_m):
    """D1 y factor: rises from 1 to ratio_m toward the plateau band."""
    s = np.minimum(_s8(y, c) / _s8(_D1_Y_SAT, c), 1.0)
    return (1.0 + (ratio_m - 1.0) * s) * _flat_top(y, _D1_Y_FLAT_END, _D1_Y_TAIL)


def _d3_xb(x):
    """D3 x factor of the background pedestal."""
    return _standing_x(x, _D3_BETA, _D3_SXE)


# The D3 background's x factor at the trap site, where it is scaled to 1.
_D3_XB_TRAP = float(_d3_xb(np.array([presets.LATTICE_NM]))[0])


def _d1_density(xs, ys, zs):
    c_y, ratio_m, beta, sx = _D1_SHAPE
    x_prof = _standing_x(xs, beta, sx)
    y_prof = _d1_y_profile(ys, c_y, ratio_m)
    z_prof = _flat_top(zs, _D1_Z_HALF, _D1_Z_TAIL)
    return (
        x_prof[:, None, None] * y_prof[None, :, None] * z_prof[None, None, :]
    )


def _d3_density(xs, ys, zs):
    p, lx, ly, ratio_m = _D3_SHAPE
    a = presets.LATTICE_NM
    # Built in place: u holds the first lobe, and one temporary takes the
    # second lobe and then the background.  The sum is bg + (lobe1 + lobe2)
    # bit for bit, since floating-point addition commutes.
    shape = (xs.size, ys.size, zs.size)
    u = np.empty(shape)
    tmp = np.empty(shape)
    ly_prof = np.exp(-0.5 * (ys / ly) ** 2)[None, :, None]
    lz = np.exp(-0.5 * (zs / _D3_LOBE_LZ) ** 2)[None, None, :]
    for out, sx_center in ((u, -a), (tmp, a)):
        lx_prof = (1.0 - p) * np.exp(-0.5 * ((xs - sx_center) / lx) ** 2)
        np.multiply(lx_prof[:, None, None] * ly_prof, lz, out=out)
    u += tmp
    np.multiply(
        (p / _D3_XB_TRAP)
        * _d3_xb(xs)[:, None, None]
        * _flat_top(ys, _D3_YB_HALF, _D3_YB_TAIL)[None, :, None],
        _flat_top(zs, _D3_ZB_HALF, _D3_ZB_TAIL)[None, None, :],
        out=tmp,
    )
    u += tmp
    # Tip-surface hot spots: flat-topped boxes carrying the global maximum,
    # placed off the z = 0 sweep plane.  max() keeps probe points clean.
    # Each ridge is exactly 0.0 (and u >= 0) outside the index box where
    # all three factors are non-zero, so it is applied on that box only.
    hx, hy, hz = _D3_RIDGE_HALF
    fz = _flat_top(zs - _D3_RIDGE_Z, hz, _D3_RIDGE_SIGMA)
    for cx in (-a, a):
        fx = ratio_m * _flat_top(xs - cx, hx, _D3_RIDGE_SIGMA)
        for cy in (-_D3_RIDGE_Y, _D3_RIDGE_Y):
            fy = _flat_top(ys - cy, hy, _D3_RIDGE_SIGMA)
            box = tuple(_support(f) for f in (fx, fy, fz))
            ridge = (
                fx[box[0], None, None] * fy[None, box[1], None] * fz[None, None, box[2]]
            )
            np.maximum(u[box], ridge, out=u[box])
    return u


def _support(f: np.ndarray) -> slice:
    """Smallest index range holding every non-zero entry of a 1-D profile."""
    nz = np.flatnonzero(f)
    return slice(nz[0], nz[-1] + 1) if nz.size else slice(0, 0)


def _synth_axes(resolution_nm: float) -> tuple:
    """x, y and z node coordinates (nm) of a synthetic map's grid."""
    lo, hi = SYNTH_RESOLUTION_RANGE
    if not lo <= resolution_nm <= hi:
        raise ValueError(
            f"resolution must be in [{lo}, {hi}] nm, got {resolution_nm}"
        )
    return tuple(_axis_ticks(h, resolution_nm) for h in _HALF_EXTENTS)


def _synth_density(design: str, xs, ys, zs) -> np.ndarray:
    """Unnormalized D.E of a design on the grid spanned by xs, ys and zs."""
    if design == "D1":
        return _d1_density(xs, ys, zs)
    if design == "D3":
        return _d3_density(xs, ys, zs)
    raise ValueError(f"synthetic maps exist for designs D1 and D3, got {design!r}")


def synth_fieldmap(design: str, resolution_nm: float = 5.0) -> FieldMap:
    """Calibrated synthetic map for design D1 or D3.

    Shape constants are literals, calibrated on fine 1-D grids (the tests
    re-derive them), and are independent of the sampling resolution, so
    the coupling-ratio targets hold at any resolution; the gridded
    mode-volume integrals agree with the calibration targets to well under
    the generator tolerance used in tests.  Total energy density is taken
    as twice the electric part (equipartition).

    The map is built in place: the density grid is scaled into `de`, and
    each of D3's tip ridges is applied only on its support, the index box
    where it is non-zero.  The build peaks at about two grid arrays.  Runs
    need only ratios of densities and read them with `synth_density_plane`;
    the full map serves the mode-volume calibration and as its oracle.
    """
    xs, ys, zs = _synth_axes(resolution_nm)
    u = _synth_density(design, xs, ys, zs)
    # Normalize so the map holds one photon's worth of energy.
    omega_c = TWO_PI * SPEED_OF_LIGHT / (presets.LAMBDA_NM * 1e-9)
    cell = resolution_nm**3 * 1e-27
    scale = HBAR * omega_c / (2.0 * float(u.sum()) * cell)
    u *= scale
    return FieldMap(
        de=u,
        total=2.0 * u,
        spacing_nm=(resolution_nm,) * 3,
        origin_nm=(float(xs[0]), float(ys[0]), float(zs[0])),
        lambda_nm=presets.LAMBDA_NM,
    )


def synth_density_plane(design: str, resolution_nm: float, x_nm, y_nm) -> np.ndarray:
    """Unnormalized D.E of synth_fieldmap(design, resolution_nm) at (x, y, 0)
    for each x of x_nm and y of y_nm, as a (len(x_nm), len(y_nm)) array.
    Normalization and total energy cancel in a coupling ratio, so
    sqrt(rho(r2) / rho(r1)) = coupling_ratio(r1, r2) on the full map.

    Only the z = 0 nodes of the cells the points lie in are computed: each
    point takes its x and y cell as `_grid_cell` does and sums the cell's
    four z = 0 corners in `_trilinear`'s order.  Where `_grid_cell` puts
    z = 0 on its node (fraction 0), this is the full map's interpolation to
    the bit; at the resolutions where its arithmetic misses that node by an
    ulp, the full map's read also weighs the z = -resolution plane, by
    about 3e-14.
    """
    cells, nodes = [], []
    for ax, pts in zip(_synth_axes(resolution_nm), (x_nm, y_nm)):
        pts = np.asarray(pts, dtype=float)
        lo, hi = ax[0], ax[0] + resolution_nm * (ax.size - 1)
        if pts.min() < lo or pts.max() > hi:
            raise ValueError(f"points lie outside the map grid's [{lo}, {hi}] nm")
        f = (pts - lo) / resolution_nm
        i = np.minimum(np.floor(f), ax.size - 2).astype(np.intp)
        used = np.zeros(ax.size, dtype=bool)
        used[i] = used[i + 1] = True
        # each cell's lower node, counted among the computed nodes
        cells.append((np.cumsum(used)[i] - 1, f - i))
        nodes.append(ax[used])
    block = _synth_density(design, *nodes, np.zeros(1))[:, :, 0]
    out = 0.0
    for corner in range(4):
        bits = [(corner >> k) & 1 for k in range(2)]
        wx, wy = np.ix_(*(f if bit else 1.0 - f for (_, f), bit in zip(cells, bits)))
        out = out + wx * wy * block[np.ix_(*(i + bit for (i, _), bit in zip(cells, bits)))]
    return out


def synth_grid_bounds(resolution_nm: float) -> tuple:
    """(lowest, highest) coordinate (nm) on each axis of synth_fieldmap's
    grid at this resolution: synth_density_plane reads the points inside."""
    return tuple((float(ax[0]), float(ax[0]) + resolution_nm * (ax.size - 1))
                 for ax in _synth_axes(resolution_nm))
