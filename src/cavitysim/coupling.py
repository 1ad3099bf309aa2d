"""Position-dependent coupling from sampled cavity field maps.

A FieldMap is a regular 3-D grid of electric (D.E) and total
(D.E + H.B) energy densities.  From it we compute the global mode volume

    V = integral(total energy density) / max(D.E)

the local (position-dependent) variant with the interpolated density at a
point in the denominator, and the coupling strength

    g(r) = |mu| sqrt(omega_c / (hbar eps0 eps V(r)))

This module works in SI units (J/m^3, rad/s) with grid geometry in nm.

Real solver exports can be ingested through the text format documented at
`read_fieldmap`.  Because no such export ships with the package, a
calibrated synthetic generator (`synth_fieldmap`) provides stand-in maps
for the two nanobeam designs: an analytic standing-wave/envelope profile
whose shape parameters are solved so that the published scalar targets
(global mode volume, trap-site coupling, and the coupling-ratio extremes
under displacement) are reproduced.  The generator is calibration, not
prediction; tests treat it accordingly.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.optimize import brentq

from . import presets
from .units import EPSILON_0, HBAR, SPEED_OF_LIGHT, TWO_PI

SYNTH_RESOLUTION_RANGE = (0.5, 5.0)  # nm
# Peak bytes per grid node while synth_fieldmap builds a map.  Traced at
# 2.13 float64 arrays (de, total and FieldMap's sign check); rounded up to 3.
SYNTH_PEAK_BYTES_PER_NODE = 24


class FieldMapFormatError(ValueError):
    """Field-map file violates the FIELDMAP v1 format."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


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

    def axis_nm(self, axis: int) -> np.ndarray:
        return self.origin_nm[axis] + self.spacing_nm[axis] * np.arange(self.shape[axis])

    def contains(self, r_nm) -> bool:
        for ax in range(3):
            lo = self.origin_nm[ax]
            hi = lo + self.spacing_nm[ax] * (self.shape[ax] - 1)
            if not lo <= r_nm[ax] <= hi:
                return False
        return True


def interpolate_density(fmap: FieldMap, array: np.ndarray, r_nm) -> float:
    """Trilinear interpolation of one of the map's arrays at a point (nm)."""
    if not fmap.contains(r_nm):
        raise ValueError(f"point {tuple(r_nm)} nm lies outside the map grid")
    idx = []
    frac = []
    for ax in range(3):
        f = (r_nm[ax] - fmap.origin_nm[ax]) / fmap.spacing_nm[ax]
        i = min(int(math.floor(f)), fmap.shape[ax] - 2)
        idx.append(i)
        frac.append(f - i)
    out = 0.0
    for corner in range(8):
        w = 1.0
        pos = []
        for ax in range(3):
            bit = (corner >> ax) & 1
            w *= frac[ax] if bit else (1.0 - frac[ax])
            pos.append(idx[ax] + bit)
        out += w * float(array[pos[0], pos[1], pos[2]])
    return out


@dataclass(frozen=True)
class ModeVolume:
    m3: float
    lambda_n_cubed: float | None = None


def _volume_in_units(v_m3: float, lambda_nm: float, refractive_index) -> ModeVolume:
    if refractive_index is None:
        return ModeVolume(m3=v_m3)
    unit = (lambda_nm * 1e-9 / refractive_index) ** 3
    return ModeVolume(m3=v_m3, lambda_n_cubed=v_m3 / unit)


def global_mode_volume(fmap: FieldMap, refractive_index: float | None = None) -> ModeVolume:
    """V = integral(total) dV / max(D.E), midpoint-rule on the grid."""
    peak = float(fmap.de.max())
    if peak <= 0:
        raise ValueError("D.E density is identically zero")
    v_m3 = fmap.total_sum * fmap.cell_volume_m3() / peak
    return _volume_in_units(v_m3, fmap.lambda_nm, refractive_index)


def local_mode_volume(
    fmap: FieldMap, r_nm, refractive_index: float | None = None
) -> ModeVolume:
    """Same integral divided by the interpolated D.E at the point.

    Always >= the global mode volume (the denominator cannot exceed the
    grid maximum)."""
    local = interpolate_density(fmap, fmap.de, r_nm)
    if local <= 0.0:
        raise ZeroLocalDensityError(
            f"D.E vanishes at {tuple(r_nm)} nm; local mode volume is unbounded"
        )
    v_m3 = fmap.total_sum * fmap.cell_volume_m3() / local
    return _volume_in_units(v_m3, fmap.lambda_nm, refractive_index)


@dataclass(frozen=True)
class EmitterSpec:
    """Two-level emitter: |mu| in C m, transition frequency and linewidth in rad/s."""

    dipole_moment: float
    omega_a: float
    gamma: float

    def __post_init__(self):
        for name in ("dipole_moment", "omega_a", "gamma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def rb87_d2_emitter() -> EmitterSpec:
    """Rb-87 D2 line values (Steck's alkali data): effective far-detuned
    dipole moment and natural linewidth."""
    return EmitterSpec(
        dipole_moment=presets.RB87_D2_DIPOLE_CM,
        omega_a=TWO_PI * SPEED_OF_LIGHT / (presets.LAMBDA_NM * 1e-9),
        gamma=TWO_PI * presets.GAMMA_RB87_D2_MHZ * 1e6,
    )


def coupling_at(fmap: FieldMap, emitter: EmitterSpec, r_nm, eps_r: float = 1.0) -> float:
    """g(r) = |mu| sqrt(omega_c / (hbar eps0 eps_r V(r))), in rad/s.

    eps_r defaults to the relative permittivity at the atom's location
    (air = 1 for optically trapped atoms).  Passing the bulk dielectric
    value (3.9) reproduces the quoted design couplings; the ambiguity is
    deliberate and surfaced here rather than hidden.
    """
    if eps_r <= 0:
        raise ValueError(f"eps_r must be positive, got {eps_r}")
    v = local_mode_volume(fmap, r_nm).m3
    return emitter.dipole_moment * math.sqrt(
        fmap.omega_c / (HBAR * EPSILON_0 * eps_r * v)
    )


def coupling_ratio(fmap: FieldMap, r1_nm, r2_nm) -> float:
    """alpha = g(r2)/g(r1) = sqrt(V(r1)/V(r2)); independent of emitter and eps."""
    v1 = local_mode_volume(fmap, r1_nm).m3
    v2 = local_mode_volume(fmap, r2_nm).m3
    return math.sqrt(v1 / v2)


@dataclass(frozen=True)
class KappaResult:
    angular_rad_per_s: float
    ordinary_hz: float


def kappa_from_q(q: float, lambda_nm: float) -> KappaResult:
    """Cavity energy decay rate from the quality factor: kappa = omega_c / Q."""
    if q <= 0:
        raise ValueError(f"quality factor must be positive, got {q}")
    nu = SPEED_OF_LIGHT / (lambda_nm * 1e-9)
    return KappaResult(angular_rad_per_s=TWO_PI * nu / q, ordinary_hz=nu / q)


def cooperativity(g: float, kappa: float, gamma: float, four_g_convention: bool = False) -> float:
    """C = g^2 / (kappa gamma) (all three in the same unit convention).

    This convention reproduces all quoted design values; the common
    alternative 4 g^2/(kappa gamma) is available behind the flag.
    """
    if kappa <= 0 or gamma <= 0:
        raise ValueError("kappa and gamma must be positive for a cooperativity")
    c = g * g / (kappa * gamma)
    return 4.0 * c if four_g_convention else c


@dataclass(frozen=True)
class TrapSpec:
    """Gaussian trap displacement statistics: RMS spread per axis (nm)."""

    center_nm: tuple
    sigma_x_nm: float
    sigma_y_nm: float
    sigma_z_nm: float = 0.0

    def __post_init__(self):
        if len(self.center_nm) != 3:
            raise ValueError("trap center must be a 3-vector (nm)")
        for name in ("sigma_x_nm", "sigma_y_nm", "sigma_z_nm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def sample_displacements(trap: TrapSpec, n: int, seed: int) -> np.ndarray:
    """(n, 3) positions: trap center plus independent per-axis Gaussian
    displacements with the trap's RMS sigmas.  Deterministic given the seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    sig = np.array([trap.sigma_x_nm, trap.sigma_y_nm, trap.sigma_z_nm])
    return np.asarray(trap.center_nm, dtype=float) + rng.standard_normal((n, 3)) * sig


def alpha_samples(fmap: FieldMap, r_ref_nm, trap: TrapSpec, n: int, seed: int) -> np.ndarray:
    """Monte Carlo coupling ratios g(sampled position)/g(r_ref)."""
    positions = sample_displacements(trap, n, seed)
    return np.array([coupling_ratio(fmap, r_ref_nm, p) for p in positions])


# --------------------------------------------------------------------------
# FIELDMAP v1 text format
# --------------------------------------------------------------------------

FIELDMAP_MAGIC = "FIELDMAP v1"


def write_fieldmap(fmap: FieldMap, fh) -> None:
    """Emit the map in the FIELDMAP v1 text format (x-major node order)."""
    nx, ny, nz = fmap.shape
    dx, dy, dz = (float(v) for v in fmap.spacing_nm)
    ox, oy, oz = (float(v) for v in fmap.origin_nm)
    fh.write(FIELDMAP_MAGIC + "\n")
    fh.write(
        f"{nx} {ny} {nz} {dx!r} {dy!r} {dz!r} {ox!r} {oy!r} {oz!r} "
        f"{float(fmap.lambda_nm)!r}\n"
    )
    de = fmap.de.reshape(-1)
    tot = fmap.total.reshape(-1)
    for d, t in zip(de, tot):
        fh.write(f"{float(d)!r} {float(t)!r}\n")


def read_fieldmap(fh) -> FieldMap:
    """Parse the FIELDMAP v1 text format.

    Line 1: `FIELDMAP v1`
    Line 2: `nx ny nz dx_nm dy_nm dz_nm ox oy oz lambda_nm`
    Then nx*ny*nz lines of `de_density total_energy_density` (J/m^3) with x
    the slowest-varying (major) index.  Violations raise
    FieldMapFormatError with the offending line number.
    """
    magic = fh.readline()
    if magic.strip() != FIELDMAP_MAGIC:
        raise FieldMapFormatError(1, f"expected {FIELDMAP_MAGIC!r} header")
    header = fh.readline()
    parts = header.split()
    if len(parts) != 10:
        raise FieldMapFormatError(2, f"expected 10 header fields, got {len(parts)}")
    try:
        nx, ny, nz = (int(p) for p in parts[:3])
        dx, dy, dz, ox, oy, oz, lam = (float(p) for p in parts[3:])
    except ValueError as exc:
        raise FieldMapFormatError(2, f"malformed header: {exc}") from None
    if nx < 2 or ny < 2 or nz < 2:
        raise FieldMapFormatError(2, f"grid must be >= 2 nodes per axis, got {nx} {ny} {nz}")
    n_total = nx * ny * nz
    de = np.empty(n_total)
    tot = np.empty(n_total)
    for k in range(n_total):
        line = fh.readline()
        line_no = k + 3
        if not line:
            raise FieldMapFormatError(
                line_no, f"file ends after {k} of {n_total} density rows"
            )
        cols = line.split()
        if len(cols) != 2:
            raise FieldMapFormatError(line_no, f"expected 2 columns, got {len(cols)}")
        try:
            de[k] = float(cols[0])
            tot[k] = float(cols[1])
        except ValueError as exc:
            raise FieldMapFormatError(line_no, f"malformed density: {exc}") from None
        if de[k] < 0 or tot[k] < 0:
            raise FieldMapFormatError(line_no, "densities must be non-negative")
    extra = fh.readline()
    if extra.strip():
        raise FieldMapFormatError(
            n_total + 3, f"expected {n_total} density rows, found more data"
        )
    return FieldMap(
        de=de.reshape(nx, ny, nz),
        total=tot.reshape(nx, ny, nz),
        spacing_nm=(dx, dy, dz),
        origin_nm=(ox, oy, oz),
        lambda_nm=lam,
    )


def load_fieldmap(path) -> FieldMap:
    with open(path, "r", encoding="utf-8") as fh:
        return read_fieldmap(fh)


def save_fieldmap(fmap: FieldMap, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_fieldmap(fmap, fh)


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


# Domain half-extents (nm); shared by both designs so maps are comparable.
_HALF_X = 1600.0
_HALF_Y = 270.0
_HALF_Z = 170.0
_HALF_EXTENTS = (_HALF_X, _HALF_Y, _HALF_Z)
_FINE = 0.5  # nm; 1-D quadrature step used during shape calibration

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


def _s8(y, c):
    y8 = np.abs(y) ** 8
    return y8 / (y8 + c**8)


def _trapz_fine(f, half_extent):
    x = np.arange(-half_extent, half_extent + _FINE / 2, _FINE)
    return float(np.trapezoid(f(x), x)), x


@lru_cache(maxsize=None)
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

    def y_profile(y, c):
        s = np.minimum(_s8(y, c) / _s8(_D1_Y_SAT, c), 1.0)
        return (1.0 + (ratio_m - 1.0) * s) * _flat_top(y, _D1_Y_FLAT_END, _D1_Y_TAIL)

    c_y = brentq(lambda c: y_profile(dy_probe, c) - t_ay, 20.0, _D1_Y_SAT - 1.0)

    def x_profile(x, beta, sx):
        standing = (1.0 - beta) + beta * np.cos(np.pi * x / a) ** 2
        return standing * np.exp(-0.5 * (x / sx) ** 2)

    def beta_for(sx):
        def f(beta):
            return x_profile(a + dx_probe, beta, sx) / x_profile(a, beta, sx) - t_ax
        return brentq(f, 1e-9, 0.999)

    iy, _ = _trapz_fine(lambda y: y_profile(y, c_y), _HALF_Y)
    iz, _ = _trapz_fine(lambda z: _flat_top(z, _D1_Z_HALF, _D1_Z_TAIL), _HALF_Z)
    v_trap_nm3 = tgt.v_trap_m3 * 1e27

    def volume_gap(sx):
        beta = beta_for(sx)
        ix, _ = _trapz_fine(lambda x: x_profile(x, beta, sx), _HALF_X)
        return 2.0 * ix * iy * iz - v_trap_nm3

    sx = brentq(volume_gap, 420.0, 3000.0, xtol=1e-6)
    beta = beta_for(sx)
    return c_y, ratio_m, beta, sx


@lru_cache(maxsize=None)
def _d3_shape():
    """Solve the D3 profile constants: (pedestal, lobe_sx, lobe_sy, ridge_value)."""
    tgt = map_design_targets("D3")
    a = presets.LATTICE_NM
    ratio_m = tgt.v_trap_m3 / tgt.v_global_m3
    t_ax = tgt.alpha_x[1] ** 2
    t_ay = tgt.alpha_y[1] ** 2
    dx_probe = tgt.alpha_x[0]
    dy_probe = tgt.alpha_y[0]

    def xb(x):
        standing = (1.0 - _D3_BETA) + _D3_BETA * np.cos(np.pi * x / a) ** 2
        return standing * np.exp(-0.5 * (x / _D3_SXE) ** 2)

    xb_a = float(xb(np.array([a]))[0])
    xb_ratio = float(xb(np.array([a + dx_probe]))[0]) / xb_a

    def lobe_widths(p):
        rx = (t_ax - p * xb_ratio) / (1.0 - p)
        ry = (t_ay - p) / (1.0 - p)
        if rx <= 0 or ry <= 0:
            raise ValueError("pedestal too large for the coupling-ratio targets")
        lx = dx_probe / math.sqrt(-2.0 * math.log(rx))
        ly = dy_probe / math.sqrt(-2.0 * math.log(ry))
        return lx, ly

    ixb, _ = _trapz_fine(xb, _HALF_X)
    iyb, _ = _trapz_fine(lambda y: _flat_top(y, _D3_YB_HALF, _D3_YB_TAIL), _HALF_Y)
    izb, _ = _trapz_fine(lambda z: _flat_top(z, _D3_ZB_HALF, _D3_ZB_TAIL), _HALF_Z)
    v_trap_nm3 = tgt.v_trap_m3 * 1e27

    def volume_gap(p):
        lx, ly = lobe_widths(p)
        ib = p * (ixb / xb_a) * iyb * izb
        ilx, _ = _trapz_fine(lambda x: np.exp(-0.5 * ((x - a) / lx) ** 2), _HALF_X)
        ily, _ = _trapz_fine(lambda y: np.exp(-0.5 * (y / ly) ** 2), _HALF_Y)
        ilz, _ = _trapz_fine(lambda z: np.exp(-0.5 * (z / _D3_LOBE_LZ) ** 2), _HALF_Z)
        ilobes = 2.0 * (1.0 - p) * ilx * ily * ilz
        return 2.0 * (ib + ilobes) - v_trap_nm3

    p = brentq(volume_gap, 0.01, 0.28, xtol=1e-9)
    lx, ly = lobe_widths(p)
    return p, lx, ly, ratio_m


def _d1_density(xs, ys, zs):
    c_y, ratio_m, beta, sx = _d1_shape()
    a = presets.LATTICE_NM
    x_prof = ((1.0 - beta) + beta * np.cos(np.pi * xs / a) ** 2) * np.exp(
        -0.5 * (xs / sx) ** 2
    )
    s = np.minimum(_s8(ys, c_y) / _s8(_D1_Y_SAT, c_y), 1.0)
    y_prof = (1.0 + (ratio_m - 1.0) * s) * _flat_top(ys, _D1_Y_FLAT_END, _D1_Y_TAIL)
    z_prof = _flat_top(zs, _D1_Z_HALF, _D1_Z_TAIL)
    return (
        x_prof[:, None, None] * y_prof[None, :, None] * z_prof[None, None, :]
    )


def _d3_density(xs, ys, zs):
    p, lx, ly, ratio_m = _d3_shape()
    a = presets.LATTICE_NM

    def xb(x):
        standing = (1.0 - _D3_BETA) + _D3_BETA * np.cos(np.pi * x / a) ** 2
        return standing * np.exp(-0.5 * (x / _D3_SXE) ** 2)

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
    xb_a = float(xb(np.array([a]))[0])
    np.multiply(
        (p / xb_a)
        * xb(xs)[:, None, None]
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


def synth_peak_bytes(resolution_nm: float) -> int:
    """Estimated peak bytes of synth_fieldmap at this resolution (either
    design), from the grid it would build; allocates no grid."""
    nodes = math.prod(_axis_ticks(h, resolution_nm).size for h in _HALF_EXTENTS)
    return SYNTH_PEAK_BYTES_PER_NODE * nodes


def synth_fieldmap(design: str, resolution_nm: float = 5.0) -> FieldMap:
    """Calibrated synthetic map for design D1 or D3.

    Shape constants are solved once per design on fine 1-D grids and are
    independent of the sampling resolution, so the coupling-ratio targets
    hold at any resolution; the gridded mode-volume integrals agree with
    the calibration targets to well under the generator tolerance used in
    tests.  Total energy density is taken as twice the electric part
    (equipartition).

    The map is built in place: the density grid is scaled into `de`, and
    each of D3's tip ridges is applied only on its support, the index box
    where it is non-zero.  The build peaks at about two grid arrays
    (`synth_peak_bytes`).
    """
    lo, hi = SYNTH_RESOLUTION_RANGE
    if not lo <= resolution_nm <= hi:
        raise ValueError(
            f"resolution must be in [{lo}, {hi}] nm, got {resolution_nm}"
        )
    xs, ys, zs = (_axis_ticks(h, resolution_nm) for h in _HALF_EXTENTS)
    if design == "D1":
        u = _d1_density(xs, ys, zs)
    elif design == "D3":
        u = _d3_density(xs, ys, zs)
    else:
        raise ValueError(f"synthetic maps exist for designs D1 and D3, got {design!r}")
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


def gaussian_standing_wave_map(
    period_nm: float = 262.0,
    sigma_nm: tuple = (180.0, 90.0, 60.0),
    half_extents_nm: tuple = (720.0, 400.0, 280.0),
    resolution_nm: float = 2.0,
) -> tuple:
    """Separable test map cos^2(2 pi x / period) x Gaussian envelopes, plus
    its closed-form mode volume (product of analytic 1-D integrals).

    Used to validate the grid quadrature: for an infinite domain
    integral cos^2(k x) exp(-x^2/2s^2) dx = sqrt(2 pi) s (1 + exp(-2 k^2 s^2)) / 2.
    Returns (FieldMap, exact_volume_m3).
    """
    sx, sy, sz = sigma_nm
    k = TWO_PI / period_nm
    xs = _axis_ticks(half_extents_nm[0], resolution_nm)
    ys = _axis_ticks(half_extents_nm[1], resolution_nm)
    zs = _axis_ticks(half_extents_nm[2], resolution_nm)
    x_prof = np.cos(k * xs) ** 2 * np.exp(-0.5 * (xs / sx) ** 2)
    y_prof = np.exp(-0.5 * (ys / sy) ** 2)
    z_prof = np.exp(-0.5 * (zs / sz) ** 2)
    de = x_prof[:, None, None] * y_prof[None, :, None] * z_prof[None, None, :]
    fmap = FieldMap(
        de=de,
        total=de.copy(),
        spacing_nm=(resolution_nm,) * 3,
        origin_nm=(float(xs[0]), float(ys[0]), float(zs[0])),
        lambda_nm=presets.LAMBDA_NM,
    )
    ix = math.sqrt(TWO_PI) * sx * (1.0 + math.exp(-2.0 * k**2 * sx**2)) / 2.0
    exact_m3 = ix * math.sqrt(TWO_PI) * sy * math.sqrt(TWO_PI) * sz * 1e-27
    return fmap, exact_m3
