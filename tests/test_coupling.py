import io
import math
import tracemalloc

import numpy as np
import pytest

from cavitysim import coupling as cp, presets
from cavitysim.units import EPSILON_0, HBAR, SPEED_OF_LIGHT, TWO_PI


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
    v = cp.global_mode_volume(fmap)
    assert v.m3 == pytest.approx(5 * 6 * 7 * 1000.0 * 1e-27, rel=1e-12)


def test_global_mode_volume_zero_density_error():
    de = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        cp.FieldMap(de=de, total=de.copy(), spacing_nm=(1, 1, 1),
                    origin_nm=(0, 0, 0), lambda_nm=780.0)


def test_gaussian_standing_wave_quadrature():
    fmap, exact = cp.gaussian_standing_wave_map(resolution_nm=2.0)
    v = cp.global_mode_volume(fmap)
    assert v.m3 == pytest.approx(exact, rel=0.01)


def test_gaussian_map_convergence_under_halving():
    f4, _ = cp.gaussian_standing_wave_map(resolution_nm=4.0)
    f2, _ = cp.gaussian_standing_wave_map(resolution_nm=2.0)
    v4 = cp.global_mode_volume(f4).m3
    v2 = cp.global_mode_volume(f2).m3
    assert abs(v4 - v2) / v2 < 0.005


def test_d1_map_hits_calibration_targets(d1_map):
    tgt = cp.map_design_targets("D1")
    n = presets.REFRACTIVE_INDEX
    vg = cp.global_mode_volume(d1_map, n)
    assert vg.lambda_n_cubed == pytest.approx(2.2, rel=0.02)
    vt = cp.local_mode_volume(d1_map, tgt.trap_site_nm)
    assert vt.m3 == pytest.approx(tgt.v_trap_m3, rel=0.02)
    a = presets.LATTICE_NM
    assert cp.coupling_ratio(d1_map, (a, 0, 0), (a + 53.0, 0, 0)) == pytest.approx(0.95, rel=0.01)
    assert cp.coupling_ratio(d1_map, (a, 0, 0), (a, 53.0, 0)) == pytest.approx(1.06, rel=0.01)


def test_d1_trap_coupling_reproduces_design_value(d1_map):
    em = cp.rb87_d2_emitter()
    g = cp.coupling_at(d1_map, em, (0.0, 0.0, 0.0), eps_r=presets.EPS_DIELECTRIC)
    assert g == pytest.approx(TWO_PI * 9e9, rel=0.05)
    # with the local (air) permittivity the same map gives sqrt(3.9) more;
    # the convention ambiguity is exposed, not hidden
    g_air = cp.coupling_at(d1_map, em, (0.0, 0.0, 0.0), eps_r=1.0)
    assert g_air / g == pytest.approx(math.sqrt(presets.EPS_DIELECTRIC), rel=1e-9)


def test_d3_map_hits_calibration_targets(d3_map):
    n = presets.REFRACTIVE_INDEX
    vg = cp.global_mode_volume(d3_map, n)
    assert vg.lambda_n_cubed == pytest.approx(0.66, rel=0.02)
    a = presets.LATTICE_NM
    assert cp.coupling_ratio(d3_map, (a, 0, 0), (a + 53.0, 0, 0)) == pytest.approx(0.52, rel=0.01)
    assert cp.coupling_ratio(d3_map, (a, 0, 0), (a, 20.0, 0)) == pytest.approx(0.80, rel=0.01)
    em = cp.rb87_d2_emitter()
    g = cp.coupling_at(d3_map, em, (a, 0.0, 0.0), eps_r=presets.EPS_DIELECTRIC)
    assert g == pytest.approx(TWO_PI * presets.DESIGNS["D3"].g_ghz * 1e9, rel=0.05)


def test_d1_map_mirror_symmetric(d1_map):
    assert np.max(np.abs(d1_map.de - d1_map.de[::-1, :, :])) == 0.0


def test_d1_map_convergence_under_halving():
    v5 = cp.global_mode_volume(cp.synth_fieldmap("D1", 5.0)).m3
    v25 = cp.global_mode_volume(cp.synth_fieldmap("D1", 2.5)).m3
    assert abs(v25 - v5) / v25 < 0.005


def test_local_volume_bounds_and_reciprocity(d1_map, rng):
    vg = cp.global_mode_volume(d1_map).m3
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
    vg = cp.global_mode_volume(d1_map).m3
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
    em = cp.rb87_d2_emitter()
    r = (100.0, 10.0, 5.0)
    g = cp.coupling_at(d1_map, em, r)
    # halved D.E everywhere doubles V(r): g scales by 1/sqrt(2)
    half = cp.FieldMap(de=d1_map.de / 2, total=d1_map.total,
                       spacing_nm=d1_map.spacing_nm, origin_nm=d1_map.origin_nm,
                       lambda_nm=d1_map.lambda_nm)
    assert cp.coupling_at(half, em, r) == pytest.approx(g / math.sqrt(2), rel=1e-12)
    # linear in the dipole moment
    em2 = cp.EmitterSpec(dipole_moment=2 * em.dipole_moment, omega_a=em.omega_a,
                         gamma=em.gamma)
    assert cp.coupling_at(d1_map, em2, r) == pytest.approx(2 * g, rel=1e-12)
    # scales as sqrt(omega_c) through the map wavelength
    quarter_lambda = cp.FieldMap(de=d1_map.de, total=d1_map.total,
                                 spacing_nm=d1_map.spacing_nm,
                                 origin_nm=d1_map.origin_nm,
                                 lambda_nm=d1_map.lambda_nm / 4)
    assert cp.coupling_at(quarter_lambda, em, r) == pytest.approx(2 * g, rel=1e-12)
    with pytest.raises(ValueError):
        cp.coupling_at(d1_map, em, r, eps_r=0.0)


def test_emitter_and_trap_validation():
    with pytest.raises(ValueError):
        cp.EmitterSpec(dipole_moment=0.0, omega_a=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        cp.TrapSpec(center_nm=(0, 0), sigma_x_nm=1, sigma_y_nm=1)
    with pytest.raises(ValueError):
        cp.TrapSpec(center_nm=(0, 0, 0), sigma_x_nm=-1, sigma_y_nm=1)


def test_kappa_from_q_values():
    # independent evaluation: nu = c / lambda, kappa_ordinary = nu / Q
    nu = SPEED_OF_LIGHT / 780e-9
    k1 = cp.kappa_from_q(1.3e7, 780.0)
    assert k1.ordinary_hz == pytest.approx(nu / 1.3e7, rel=1e-12)
    assert k1.ordinary_hz == pytest.approx(29.5653e6, rel=1e-4)
    assert k1.ordinary_hz == pytest.approx(29e6, rel=0.03)   # quoted 29 MHz
    assert k1.angular_rad_per_s == pytest.approx(1.858e8, rel=1e-3)
    k2 = cp.kappa_from_q(1.2e7, 780.0)
    assert k2.ordinary_hz == pytest.approx(32.0291e6, rel=1e-4)
    assert cp.kappa_from_q(1e15, 780.0).ordinary_hz < 1.0
    with pytest.raises(ValueError):
        cp.kappa_from_q(0.0, 780.0)


def test_cooperativity_values_and_structure():
    c = cp.cooperativity(9e9, 29.5653e6, 6.0666e6)
    assert c == pytest.approx(4.516e5, rel=1e-3)
    assert c == pytest.approx(4.5e5, rel=0.03)
    assert cp.cooperativity(18e9, 29.5653e6, 6.0666e6) == pytest.approx(4 * c, rel=1e-12)
    assert cp.cooperativity(9e9, 29.5653e6, 6.0666e6, four_g_convention=True) == pytest.approx(4 * c, rel=1e-12)
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


def test_sample_displacements_statistics():
    trap = cp.TrapSpec(center_nm=(10.0, -5.0, 0.0), sigma_x_nm=5.3, sigma_y_nm=5.1)
    frozen = cp.sample_displacements(trap, 3, seed=42)
    assert np.array_equal(frozen, cp.sample_displacements(trap, 3, seed=42))
    zero = cp.TrapSpec(center_nm=(1.0, 2.0, 3.0), sigma_x_nm=0, sigma_y_nm=0)
    samples = cp.sample_displacements(zero, 10, seed=1)
    assert np.allclose(samples, [1.0, 2.0, 3.0])
    n = 100_000
    big = cp.sample_displacements(trap, n, seed=7)
    dx = big[:, 0] - 10.0
    assert np.sqrt(np.mean(dx**2)) == pytest.approx(5.3, rel=0.01)
    assert abs(np.mean(dx)) < 3 * 5.3 / np.sqrt(n)
    assert np.allclose(big[:, 2], 0.0)  # sigma_z defaults to 0
    with pytest.raises(ValueError):
        cp.sample_displacements(trap, 0, seed=1)


def test_alpha_samples_cluster_near_unity(d1_map):
    trap = cp.TrapSpec(center_nm=(presets.LATTICE_NM, 0.0, 0.0),
                       sigma_x_nm=5.3, sigma_y_nm=5.1)
    alphas = cp.alpha_samples(d1_map, (-presets.LATTICE_NM, 0.0, 0.0), trap, 200, seed=3)
    assert np.all(alphas > 0.98) and np.all(alphas < 1.02)


def test_synth_fieldmap_resolution_range():
    for bad in (0.4, 5.1, -1.0):
        with pytest.raises(ValueError):
            cp.synth_fieldmap("D1", bad)
    with pytest.raises(ValueError):
        cp.synth_fieldmap("D2", 5.0)


def test_fieldmap_text_round_trip(rng):
    de = rng.uniform(0.1, 2.0, (3, 4, 2))
    tot = de * rng.uniform(1.0, 2.0, de.shape)
    fmap = cp.FieldMap(de=de, total=tot, spacing_nm=(1.5, 2.0, 2.5),
                       origin_nm=(-1.0, 0.0, 3.0), lambda_nm=780.0)
    buf = io.StringIO()
    cp.write_fieldmap(fmap, buf)
    buf.seek(0)
    back = cp.read_fieldmap(buf)
    assert np.array_equal(back.de, fmap.de)
    assert np.array_equal(back.total, fmap.total)
    assert back.spacing_nm == fmap.spacing_nm
    assert back.origin_nm == fmap.origin_nm
    assert back.lambda_nm == fmap.lambda_nm


def _parse_error(text):
    with pytest.raises(cp.FieldMapFormatError) as exc:
        cp.read_fieldmap(io.StringIO(text))
    return exc.value


def test_fieldmap_parse_errors_carry_line_numbers():
    assert _parse_error("WRONG\n").line == 1
    assert _parse_error("FIELDMAP v1\n1 2\n").line == 2
    assert _parse_error("FIELDMAP v1\n1 2 2 1 1 1 0 0 0 780\n").line == 2  # nx < 2
    header = "FIELDMAP v1\n2 2 2 1 1 1 0 0 0 780\n"
    rows = "\n".join("1.0 2.0" for _ in range(8))
    good = header + rows + "\n"
    cp.read_fieldmap(io.StringIO(good))
    assert _parse_error(header + "1.0 2.0\n1.0\n").line == 4      # column count
    assert _parse_error(header + "1.0 x\n").line == 3             # non-numeric
    assert _parse_error(header + "-1.0 2.0\n").line == 3          # negative
    assert _parse_error(header + rows[: -8]).line == 10           # short file
    assert _parse_error(good + "3.0 3.0\n").line == 11            # extra rows


def test_map_design_targets_consistent_with_formula():
    # V_trap target must invert the coupling formula at eps = bulk value
    tgt = cp.map_design_targets("D1")
    omega_c = TWO_PI * SPEED_OF_LIGHT / 780e-9
    g = presets.RB87_D2_DIPOLE_CM * math.sqrt(
        omega_c / (HBAR * EPSILON_0 * presets.EPS_DIELECTRIC * tgt.v_trap_m3)
    )
    assert g == pytest.approx(TWO_PI * 9e9, rel=1e-12)
    with pytest.raises(ValueError):
        cp.map_design_targets("D9")


def test_total_sum_is_cached_and_exact(d1_map):
    assert d1_map.total_sum == float(d1_map.total.sum())
    assert "total_sum" in vars(d1_map)  # computed once, then kept
    r = (-presets.LATTICE_NM, 0.0, 0.0)
    local = cp.interpolate_density(d1_map, d1_map.de, r)
    expected = float(d1_map.total.sum()) * d1_map.cell_volume_m3() / local
    assert cp.local_mode_volume(d1_map, r).m3 == expected


def _d3_density_reference(xs, ys, zs):
    """The full-grid D3 construction the in-place one must reproduce bit for bit."""
    p, lx, ly, ratio_m = cp._d3_shape()
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
    cp.synth_fieldmap("D3", 5.0)  # solve the cached shape constants first
    tracemalloc.start()
    try:
        fmap = cp.synth_fieldmap("D3", 5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * fmap.de.nbytes
    assert peak <= cp.synth_peak_bytes(5.0)
