import math
import tracemalloc

import numpy as np
import pytest

from cavitysim import config, coupling as cp, presets, runner
from cavitysim.config import default_sweeps, parse_config
from cavitysim.units import EPSILON_0, HBAR, SPEED_OF_LIGHT, TWO_PI

import calibration
from conftest import EmitterSpec, coupling_at, global_mode_volume, rb87_d2_emitter, synth_density_at


@pytest.fixture(scope="module")
def d1_map():
    return cp.synth_fieldmap("D1", 5.0)


@pytest.fixture(scope="module")
def d3_map():
    return cp.synth_fieldmap("D3", 5.0)


def _uniform_map(value=2.0, n=(5, 6, 7), d=10.0):
    de = np.full(n, value)
    return cp.FieldMap(de=de, total=de.copy(), spacing_nm=(d, d, d),
                       origin_nm=(0.0, 0.0, 0.0), lambda_nm=780.0)


def test_global_mode_volume_uniform_box():
    fmap = _uniform_map()
    v = global_mode_volume(fmap)
    assert v.m3 == pytest.approx(5 * 6 * 7 * 1000.0 * 1e-27, rel=1e-12)


def test_global_mode_volume_zero_density_error():
    de = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        cp.FieldMap(de=de, total=de.copy(), spacing_nm=(1, 1, 1),
                    origin_nm=(0, 0, 0), lambda_nm=780.0)


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
    xs, ys, zs = (cp._axis_ticks(h, resolution_nm) for h in half_extents_nm)
    x_prof = np.cos(k * xs) ** 2 * np.exp(-0.5 * (xs / sx) ** 2)
    y_prof = np.exp(-0.5 * (ys / sy) ** 2)
    z_prof = np.exp(-0.5 * (zs / sz) ** 2)
    de = x_prof[:, None, None] * y_prof[None, :, None] * z_prof[None, None, :]
    fmap = cp.FieldMap(
        de=de,
        total=de.copy(),
        spacing_nm=(resolution_nm,) * 3,
        origin_nm=(float(xs[0]), float(ys[0]), float(zs[0])),
        lambda_nm=presets.LAMBDA_NM,
    )
    ix = math.sqrt(TWO_PI) * sx * (1.0 + math.exp(-2.0 * k**2 * sx**2)) / 2.0
    exact_m3 = ix * math.sqrt(TWO_PI) * sy * math.sqrt(TWO_PI) * sz * 1e-27
    return fmap, exact_m3


def test_gaussian_standing_wave_quadrature():
    fmap, exact = gaussian_standing_wave_map(resolution_nm=2.0)
    v = global_mode_volume(fmap)
    assert v.m3 == pytest.approx(exact, rel=0.01)


def test_gaussian_map_convergence_under_halving():
    f4, _ = gaussian_standing_wave_map(resolution_nm=4.0)
    f2, _ = gaussian_standing_wave_map(resolution_nm=2.0)
    v4 = global_mode_volume(f4).m3
    v2 = global_mode_volume(f2).m3
    assert abs(v4 - v2) / v2 < 0.005


def test_shape_literals_are_the_calibration_to_the_bit():
    # the run path reads literals; re-derived from presets with scipy's
    # brentq, every one of the eight comes back the same float
    assert calibration._d1_shape() == cp._D1_SHAPE
    assert calibration._d3_shape() == cp._D3_SHAPE


def test_d1_map_hits_calibration_targets(d1_map):
    tgt = calibration.map_design_targets("D1")
    n = presets.REFRACTIVE_INDEX
    vg = global_mode_volume(d1_map, n)
    assert vg.lambda_n_cubed == pytest.approx(2.2, rel=0.02)
    vt = cp.local_mode_volume(d1_map, tgt.trap_site_nm)
    assert vt.m3 == pytest.approx(tgt.v_trap_m3, rel=0.02)
    a = presets.LATTICE_NM
    assert cp.coupling_ratio(d1_map, (a, 0, 0), (a + 53.0, 0, 0)) == pytest.approx(0.95, rel=0.01)
    assert cp.coupling_ratio(d1_map, (a, 0, 0), (a, 53.0, 0)) == pytest.approx(1.06, rel=0.01)


def test_d1_trap_coupling_reproduces_design_value(d1_map):
    em = rb87_d2_emitter()
    g = coupling_at(d1_map, em, (0.0, 0.0, 0.0), eps_r=presets.EPS_DIELECTRIC)
    assert g == pytest.approx(TWO_PI * 9e9, rel=0.05)
    # with the local (air) permittivity the same map gives sqrt(3.9) more;
    # the convention ambiguity is exposed, not hidden
    g_air = coupling_at(d1_map, em, (0.0, 0.0, 0.0), eps_r=1.0)
    assert g_air / g == pytest.approx(math.sqrt(presets.EPS_DIELECTRIC), rel=1e-9)


def test_d3_map_hits_calibration_targets(d3_map):
    n = presets.REFRACTIVE_INDEX
    vg = global_mode_volume(d3_map, n)
    assert vg.lambda_n_cubed == pytest.approx(0.66, rel=0.02)
    a = presets.LATTICE_NM
    assert cp.coupling_ratio(d3_map, (a, 0, 0), (a + 53.0, 0, 0)) == pytest.approx(0.52, rel=0.01)
    assert cp.coupling_ratio(d3_map, (a, 0, 0), (a, 20.0, 0)) == pytest.approx(0.80, rel=0.01)
    em = rb87_d2_emitter()
    g = coupling_at(d3_map, em, (a, 0.0, 0.0), eps_r=presets.EPS_DIELECTRIC)
    assert g == pytest.approx(TWO_PI * presets.DESIGNS["D3"].g_ghz * 1e9, rel=0.05)


def test_d1_map_mirror_symmetric(d1_map):
    assert np.max(np.abs(d1_map.de - d1_map.de[::-1, :, :])) == 0.0


def test_d1_map_convergence_under_halving():
    v5 = global_mode_volume(cp.synth_fieldmap("D1", 5.0)).m3
    v25 = global_mode_volume(cp.synth_fieldmap("D1", 2.5)).m3
    assert abs(v25 - v5) / v25 < 0.005


def test_local_volume_bounds_and_reciprocity(d1_map, rng):
    vg = global_mode_volume(d1_map).m3
    imax = np.unravel_index(np.argmax(d1_map.de), d1_map.shape)
    r_max = tuple(d1_map.origin_nm[ax] + d1_map.spacing_nm[ax] * imax[ax] for ax in range(3))
    assert cp.local_mode_volume(d1_map, r_max).m3 == pytest.approx(vg, rel=1e-12)
    for _ in range(25):
        r = (rng.uniform(-900, 900), rng.uniform(-150, 150), rng.uniform(-80, 80))
        vloc = cp.local_mode_volume(d1_map, r).m3
        assert vloc >= vg * (1 - 1e-12)
        r2 = (rng.uniform(-900, 900), rng.uniform(-150, 150), rng.uniform(-80, 80))
        a12 = cp.coupling_ratio(d1_map, r, r2)
        a21 = cp.coupling_ratio(d1_map, r2, r)
        assert a12 * a21 == pytest.approx(1.0, abs=1e-12)


def test_local_volume_half_density_doubles(d1_map):
    # reciprocal proportionality: V(r) * de(r) is constant across points
    vg = global_mode_volume(d1_map).m3
    peak = float(d1_map.de.max())
    r = (200.0, 30.0, 20.0)
    de_r = cp.interpolate_density(d1_map, d1_map.de, r)
    assert cp.local_mode_volume(d1_map, r).m3 == pytest.approx(vg * peak / de_r, rel=1e-12)


def test_local_volume_errors(d1_map):
    with pytest.raises(ValueError):
        cp.local_mode_volume(d1_map, (1e6, 0, 0))
    zero_corner = _uniform_map()
    de = zero_corner.de.copy()
    de[0, 0, 0] = 0.0
    fmap = cp.FieldMap(de=de, total=zero_corner.total, spacing_nm=zero_corner.spacing_nm,
                       origin_nm=zero_corner.origin_nm, lambda_nm=780.0)
    with pytest.raises(cp.ZeroLocalDensityError):
        cp.local_mode_volume(fmap, (0.0, 0.0, 0.0))


def test_coupling_formula_structure(d1_map):
    em = rb87_d2_emitter()
    r = (100.0, 10.0, 5.0)
    g = coupling_at(d1_map, em, r)
    # halved D.E everywhere doubles V(r): g scales by 1/sqrt(2)
    half = cp.FieldMap(de=d1_map.de / 2, total=d1_map.total,
                       spacing_nm=d1_map.spacing_nm, origin_nm=d1_map.origin_nm,
                       lambda_nm=d1_map.lambda_nm)
    assert coupling_at(half, em, r) == pytest.approx(g / math.sqrt(2), rel=1e-12)
    # linear in the dipole moment
    em2 = EmitterSpec(dipole_moment=2 * em.dipole_moment, omega_a=em.omega_a,
                      gamma=em.gamma)
    assert coupling_at(d1_map, em2, r) == pytest.approx(2 * g, rel=1e-12)
    # scales as sqrt(omega_c) through the map wavelength
    quarter_lambda = cp.FieldMap(de=d1_map.de, total=d1_map.total,
                                 spacing_nm=d1_map.spacing_nm,
                                 origin_nm=d1_map.origin_nm,
                                 lambda_nm=d1_map.lambda_nm / 4)
    assert coupling_at(quarter_lambda, em, r) == pytest.approx(2 * g, rel=1e-12)
    with pytest.raises(ValueError):
        coupling_at(d1_map, em, r, eps_r=0.0)


def test_emitter_validation():
    with pytest.raises(ValueError):
        EmitterSpec(dipole_moment=0.0, omega_a=1.0, gamma=1.0)


def test_kappa_from_q_values():
    # independent evaluation: nu = c / lambda, kappa_ordinary = nu / Q
    nu = SPEED_OF_LIGHT / 780e-9
    k1 = presets.kappa_ordinary_hz(1.3e7, 780.0)
    assert k1 == pytest.approx(nu / 1.3e7, rel=1e-12)
    assert k1 == pytest.approx(29.5653e6, rel=1e-4)
    assert k1 == pytest.approx(29e6, rel=0.03)   # quoted 29 MHz
    assert TWO_PI * k1 == pytest.approx(1.858e8, rel=1e-3)   # angular
    k2 = presets.kappa_ordinary_hz(1.2e7, 780.0)
    assert k2 == pytest.approx(32.0291e6, rel=1e-4)
    assert presets.kappa_ordinary_hz(1e15, 780.0) < 1.0
    for q in (0.0, -1.0):
        with pytest.raises(ValueError):
            presets.kappa_ordinary_hz(q, 780.0)


def test_cooperativity_values_and_structure():
    c = cp.cooperativity(9e9, 29.5653e6, 6.0666e6)
    assert c == pytest.approx(4.516e5, rel=1e-3)
    assert c == pytest.approx(4.5e5, rel=0.03)
    assert cp.cooperativity(18e9, 29.5653e6, 6.0666e6) == pytest.approx(4 * c, rel=1e-12)
    with pytest.raises(ValueError):
        cp.cooperativity(9e9, 0.0, 6.0666e6)


def test_design_cooperativity_consistency_chain():
    # inverting g from the quoted C and recomputing must close the loop,
    # and the implied speed-up over the plain design is "almost doubled"
    gamma = presets.GAMMA_RB87_D2_MHZ * 1e6
    for name, c_quoted in (("D2", 1.3e6), ("D3", 1.2e6)):
        d = presets.DESIGNS[name]
        kappa = presets.kappa_ordinary_hz(d.q_factor)
        c_forward = cp.cooperativity(d.g_ghz * 1e9, kappa, gamma)
        assert c_forward == pytest.approx(c_quoted, rel=0.10)
        assert 1.5 < d.g_ghz / 9.0 < 2.1
    assert presets.DESIGNS["D2"].g_ghz == pytest.approx(15.8934, abs=2e-3)
    assert presets.DESIGNS["D3"].g_ghz == pytest.approx(15.9489, abs=2e-3)


def test_synth_fieldmap_resolution_range():
    for bad in (0.4, 5.1, -1.0):
        with pytest.raises(ValueError):
            cp.synth_fieldmap("D1", bad)
    with pytest.raises(ValueError):
        cp.synth_fieldmap("D2", 5.0)


def test_map_design_targets_consistent_with_formula():
    # V_trap target must invert the coupling formula at eps = bulk value
    tgt = calibration.map_design_targets("D1")
    omega_c = TWO_PI * SPEED_OF_LIGHT / 780e-9
    g = presets.RB87_D2_DIPOLE_CM * math.sqrt(
        omega_c / (HBAR * EPSILON_0 * presets.EPS_DIELECTRIC * tgt.v_trap_m3)
    )
    assert g == pytest.approx(TWO_PI * 9e9, rel=1e-12)
    with pytest.raises(ValueError):
        calibration.map_design_targets("D9")


def test_total_sum_is_cached_and_exact(d1_map):
    assert d1_map.total_sum == float(d1_map.total.sum())
    assert "total_sum" in vars(d1_map)  # computed once, then kept
    r = (-presets.LATTICE_NM, 0.0, 0.0)
    local = cp.interpolate_density(d1_map, d1_map.de, r)
    expected = float(d1_map.total.sum()) * d1_map.cell_volume_m3() / local
    assert cp.local_mode_volume(d1_map, r).m3 == expected


def _d3_density_reference(xs, ys, zs):
    """The full-grid D3 construction the in-place one must reproduce bit for bit."""
    p, lx, ly, ratio_m = cp._D3_SHAPE
    a = presets.LATTICE_NM

    def xb(x):
        standing = (1.0 - cp._D3_BETA) + cp._D3_BETA * np.cos(np.pi * x / a) ** 2
        return standing * np.exp(-0.5 * (x / cp._D3_SXE) ** 2)

    xb_a = float(xb(np.array([a]))[0])
    bg = (
        (p / xb_a)
        * xb(xs)[:, None, None]
        * cp._flat_top(ys, cp._D3_YB_HALF, cp._D3_YB_TAIL)[None, :, None]
        * cp._flat_top(zs, cp._D3_ZB_HALF, cp._D3_ZB_TAIL)[None, None, :]
    )
    lz = np.exp(-0.5 * (zs / cp._D3_LOBE_LZ) ** 2)
    lobes = np.zeros_like(bg)
    for sx_center in (-a, a):
        lobes += (
            (1.0 - p)
            * np.exp(-0.5 * ((xs - sx_center) / lx) ** 2)[:, None, None]
            * np.exp(-0.5 * (ys / ly) ** 2)[None, :, None]
            * lz[None, None, :]
        )
    u = bg + lobes
    hx, hy, hz = cp._D3_RIDGE_HALF
    for cx in (-a, a):
        for cy in (-cp._D3_RIDGE_Y, cp._D3_RIDGE_Y):
            ridge = (
                ratio_m
                * cp._flat_top(xs - cx, hx, cp._D3_RIDGE_SIGMA)[:, None, None]
                * cp._flat_top(ys - cy, hy, cp._D3_RIDGE_SIGMA)[None, :, None]
                * cp._flat_top(zs - cp._D3_RIDGE_Z, hz, cp._D3_RIDGE_SIGMA)[None, None, :]
            )
            np.maximum(u, ridge, out=u)
    return u


@pytest.mark.parametrize("resolution", [5.0, 4.0])
@pytest.mark.parametrize("design", ["D1", "D3"])
def test_synth_fieldmap_matches_full_grid_reference(design, resolution):
    xs, ys, zs = (cp._axis_ticks(h, resolution) for h in cp._HALF_EXTENTS)
    density = _d3_density_reference if design == "D3" else cp._d1_density
    u = density(xs, ys, zs)
    omega_c = TWO_PI * SPEED_OF_LIGHT / (presets.LAMBDA_NM * 1e-9)
    cell = resolution**3 * 1e-27
    scale = HBAR * omega_c / (2.0 * float(u.sum()) * cell)
    de = scale * u
    fmap = cp.synth_fieldmap(design, resolution)
    assert np.array_equal(fmap.de.view(np.uint64), de.view(np.uint64))
    assert np.array_equal(fmap.total.view(np.uint64), (2.0 * de).view(np.uint64))


def test_ridge_support_is_the_nonzero_range():
    # outside this range a ridge is exactly 0.0, so it may be skipped there
    f = np.array([0.0, 0.0, 5e-324, 1.0, 0.0, 2.0, 0.0])
    assert cp._support(f) == slice(2, 6)
    assert cp._support(np.zeros(4)) == slice(0, 0)


def test_synth_fieldmap_peaks_near_two_grid_arrays():
    tracemalloc.start()
    try:
        fmap = cp.synth_fieldmap("D3", 5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * fmap.de.nbytes


@pytest.mark.parametrize("resolution", [5.0, 4.0])
@pytest.mark.parametrize("design", ["D1", "D3"])
def test_synth_density_at_gives_the_full_map_coupling_ratio(design, resolution):
    fmap = cp.synth_fieldmap(design, resolution)
    # positive on the whole grid, so a ratio of densities is always defined
    assert fmap.de.min() > 0
    a = presets.LATTICE_NM
    r1 = (-a, 0.0, 0.0)
    dx, dy = default_sweeps("fig5_position_map", design)
    points = [(a + x, y, 0.0) for x in dx.values() for y in dy.values()]
    corner = tuple(o + resolution * (n - 1) for o, n in zip(fmap.origin_nm, fmap.shape))
    points += [
        (10 * resolution, -3 * resolution, 2 * resolution),  # on a node
        (10 * resolution, -13.7, 21.1),                      # on a cell face
        corner,  # the grid's upper corner, interpolated in the last cell
    ]
    de_r1 = synth_density_at(design, resolution, r1)
    for r in points:
        alpha = math.sqrt(synth_density_at(design, resolution, r) / de_r1)
        assert abs(alpha - cp.coupling_ratio(fmap, r1, r)) <= 4.4e-16, r


def test_synth_density_at_rejects_a_point_outside_the_grid():
    with pytest.raises(ValueError, match=r"point \(0\.0, 0\.0, 175\.0\) nm lies outside"):
        synth_density_at("D1", 5.0, (0.0, 0.0, 175.0))


def _read_on_z0_node(design, resolution, r_nm):
    """synth_density_at's 8-node read with z's cell forced onto z = 0's
    node, at fraction 0."""
    axes = cp._synth_axes(resolution)
    origin = tuple(float(ax[0]) for ax in axes)
    (i, j, _), (fx, fy, _) = cp._grid_cell(origin, (resolution,) * 3,
                                           [ax.size for ax in axes], r_nm)
    k = axes[2].size // 2
    assert axes[2][k] == 0.0
    block = cp._synth_density(design, axes[0][i:i + 2], axes[1][j:j + 2], axes[2][k:k + 2])
    return cp._trilinear(block, (fx, fy, 0.0))


# at 0.6673 nm, (0 - z_lo) / resolution misses z = 0's node index by an ulp,
# so the point read weighs the z = -resolution nodes by about 3e-14; the
# plane reads the z = 0 nodes alone
@pytest.mark.parametrize("resolution", [5.0, 4.0, 0.5, 0.6673])
@pytest.mark.parametrize("design", ["D1", "D3"])
def test_synth_density_plane_is_synth_density_at_on_z0(design, resolution):
    a = presets.LATTICE_NM
    dx, dy = default_sweeps("fig5_position_map", design)
    rng = np.random.default_rng(5)
    cases = [
        (a + dx.values(), dy.values()),  # the default sweep's grid
        ([-a], [0.0]),                   # atom 1's site
        # unsorted points, a 5 nm node and the grid's edges
        (np.concatenate((rng.uniform(180.0, 340.0, 7), [255.0, 1600.0])),
         np.concatenate((rng.uniform(-60.0, 60.0, 7), [0.0, -270.0]))),
    ]
    axes = cp._synth_axes(resolution)
    _, (_, _, z_frac) = cp._grid_cell(tuple(float(ax[0]) for ax in axes), (resolution,) * 3,
                                      [ax.size for ax in axes], (0.0, 0.0, 0.0))
    assert (z_frac == 0.0) == (resolution != 0.6673)
    for xs, ys in cases:
        plane = cp.synth_density_plane(design, resolution, xs, ys)
        at = [[synth_density_at(design, resolution, (x, y, 0.0)) for y in ys] for x in xs]
        if resolution == 0.6673:
            on_node = [[_read_on_z0_node(design, resolution, (x, y, 0.0)) for y in ys]
                       for x in xs]
            assert np.array_equal(plane, on_node)
            assert np.allclose(plane, at, rtol=1e-13, atol=0.0)
        else:
            assert np.array_equal(plane, at)
    with pytest.raises(ValueError, match="outside the map grid"):
        cp.synth_density_plane(design, resolution, xs, [0.0, 275.0])


def _fig5(design: str):
    return parse_config(f'scenario = "fig5_position_map"\ndesign = "{design}"\n')


def test_fig5_reads_the_map_in_six_calls(monkeypatch):
    # atom 1's site and a plane of points, once for the sweep and once for
    # each of the two trap rows: no read per point
    calls = []
    density = cp._synth_density

    def counted(*args):
        calls.append(args)
        return density(*args)

    monkeypatch.setattr(cp, "_synth_density", counted)
    runner.run_plan(_fig5("D3"))
    assert len(calls) <= 6


@pytest.mark.parametrize("design", ["D1", "D3"])
def test_trap_mean_agrees_with_a_monte_carlo_on_the_full_map(design, request):
    # the full-map oracle, atom 2 drawn from its Gaussian trap on z = 0
    fmap = request.getfixturevalue(f"{design.lower()}_map")
    a = presets.LATTICE_NM
    sx, sy, _ = presets.TRAP_SIGMAS_NM[design]
    xy = np.random.default_rng(7).standard_normal((4000, 2)) * (sx, sy)
    alpha = np.array([cp.coupling_ratio(fmap, (-a, 0.0, 0.0), (a + x, y, 0.0)) for x, y in xy])
    conc = 2.0 * alpha / (1.0 + alpha**2)
    mean = config._trap_peak_concurrence(_fig5(design))["trap_mean_peak_concurrence"]
    assert abs(mean - conc.mean()) < 4.0 * conc.std(ddof=1) / np.sqrt(conc.size)


@pytest.mark.parametrize("design", ["D1", "D3"])
def test_trap_mean_converges_in_points_per_cell(design, monkeypatch):
    cfg = _fig5(design)
    four = config._trap_peak_concurrence(cfg)["trap_mean_peak_concurrence"]
    monkeypatch.setattr(config, "TRAP_POINTS_PER_CELL", 8)
    assert config._trap_peak_concurrence(cfg)["trap_mean_peak_concurrence"] == pytest.approx(
        four, abs=1e-10)


@pytest.mark.parametrize("design", ["D1", "D3"])
def test_trap_minimum_is_the_minimum_over_the_box(design):
    # a dense grid of point reads over the +-2 sigma box, its edges and node lines included
    res = 5.0
    sigmas = presets.TRAP_SIGMAS_NM[design]
    axes = []
    for c, s in ((presets.LATTICE_NM, sigmas[0]), (0.0, sigmas[1])):
        lo, hi = c - 2.0 * s, c + 2.0 * s
        nodes = np.arange(np.ceil(lo / res), np.floor(hi / res) + 1) * res
        axes.append(np.union1d(np.linspace(lo, hi, 31), nodes))
    rho1 = synth_density_at(design, res, (-presets.LATTICE_NM, 0.0, 0.0))
    alpha = np.sqrt([[synth_density_at(design, res, (x, y, 0.0)) / rho1 for y in axes[1]]
                     for x in axes[0]])
    dense = float(np.min(2.0 * alpha / (1.0 + alpha**2)))
    exact = config._trap_peak_concurrence(_fig5(design))["trap_min_peak_concurrence_2sigma"]
    assert exact == pytest.approx(dense, abs=1e-15)
