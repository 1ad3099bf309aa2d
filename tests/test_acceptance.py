"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from cavitysim import analytic, coupling as cp, dynamics as dyn, entanglement as ent
from cavitysim import fockspace as fs, model, presets
from cavitysim.analytic import coupling_norm
from cavitysim.config import parse_config
from cavitysim.fockspace import HilbertLayout
from cavitysim.model import SystemParams
from cavitysim.runner import run_scenario
from cavitysim.units import ghz_to_angular, mhz_to_angular

from conftest import excitations, plan_trajectories, single_excitation_population

G = ghz_to_angular(9.0)                      # D1 coupling, rad/ns
KAPPA = mhz_to_angular(29.5653)              # from Q = 1.3e7 at 780 nm
GAMMA = mhz_to_angular(presets.GAMMA_RB87_D2_MHZ)


def _report(num: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} [{name}]: {detail}"


def _closed_gen(layout, couplings):
    p = SystemParams(detuning=0, kappa=0, gamma=0, couplings=couplings)
    return model.build_generator(layout, p)


def _lossy_gen(layout, couplings):
    p = SystemParams(detuning=0, kappa=KAPPA, gamma=GAMMA, couplings=couplings)
    return model.build_generator(layout, p)


def _measured_frequency(couplings, lossy=False):
    # n_photon is the population of |1, g..g> from one photon: a pop_
    # column would bring all d = 3 * 2^N populations with it
    layout = HilbertLayout(n_max=2, n_atoms=len(couplings))
    gen = _lossy_gen(layout, couplings) if lossy else _closed_gen(layout, couplings)
    psi0 = fs.basis_state(layout, 1, "g" * len(couplings))
    ts = np.linspace(0.0, 3 * np.pi / coupling_norm(couplings), 1201)
    [traj] = dyn.integrate([gen], psi0, [ts], track=("n_photon",))
    return dyn.rabi_frequency(traj, "n_photon")


def test_criterion_01_single_excitation_oracle_equivalence():
    rng = np.random.default_rng(11)
    worst_err, worst_time = 0.0, 0.0
    for n_atoms in (1, 2, 3):
        t0 = time.perf_counter()
        layout = HilbertLayout(n_max=2, n_atoms=n_atoms)
        couplings = tuple(G * rng.uniform(0.3, 1.3, n_atoms))
        gen = _closed_gen(layout, couplings)
        chi0, chi1 = analytic.single_excitation_states(layout, couplings)
        ts = np.linspace(0.0, 3 * np.pi / coupling_norm(couplings), 601)
        [traj] = dyn.integrate([gen], chi0, [ts],
                               projections={"P_chi1": chi1})
        err = float(np.max(np.abs(
            traj.series("P_chi1") - single_excitation_population(couplings, ts)
        )))
        elapsed = time.perf_counter() - t0
        worst_err = max(worst_err, err)
        worst_time = max(worst_time, elapsed)
    _report(
        1, "single-excitation oracle equivalence",
        worst_err < 1e-6 and worst_time < 5.0,
        f"max |P - sin^2| = {worst_err:.2e} (tol 1e-6), worst case {worst_time:.2f} s",
    )


def test_criterion_02_rabi_frequency():
    # default fig2 window: 100 ps at 0.05 ps stride, lossy D1 parameters
    layout = HilbertLayout(n_max=2, n_atoms=1)
    gen = _lossy_gen(layout, (G,))
    psi0 = fs.basis_state(layout, 1, "g")
    [traj] = dyn.integrate([gen], psi0, [np.linspace(0.0, 0.1, 2001)])
    measured = dyn.rabi_frequency(traj, "pop_0e")
    expected = G / np.pi
    rel = abs(measured - expected) / expected
    _report(2, "Rabi frequency g/pi", rel < 1e-3,
            f"measured {measured:.6f} GHz vs {expected:.6f} GHz, rel err {rel:.2e}")


def test_criterion_03_dicke_enhancement():
    # the sqrt(N) law at N = 2, and at N = 50: d = 3 * 2^50, of which the 52
    # states up to one excitation are propagated.  With loss too at N = 50,
    # where x is the population of |0, g..g>, stepped by the jump Gramian
    f1 = _measured_frequency((G,))
    for n_atoms, lossy in ((2, False), (50, False), (50, True)):
        ratio = _measured_frequency((G,) * n_atoms, lossy=lossy) / f1
        rel = abs(ratio - np.sqrt(n_atoms)) / np.sqrt(n_atoms)
        _report(3, f"sqrt({n_atoms}) Dicke enhancement{' with loss' * lossy}", rel < 1e-3,
                f"ratio {ratio:.6f} vs sqrt({n_atoms}) = {np.sqrt(n_atoms):.6f}, "
                f"rel err {rel:.2e}")


def test_criterion_04_envelope_lifetime():
    t0 = time.perf_counter()
    layout = HilbertLayout(n_max=2, n_atoms=1)
    gen = _lossy_gen(layout, (G,))
    psi0 = fs.basis_state(layout, 1, "g")
    [traj] = dyn.integrate([gen], psi0, [np.linspace(0.0, 40.0, 8001)])
    fit = dyn.envelope_lifetime(traj, "pop_0e")
    elapsed = time.perf_counter() - t0
    tau_closed = 2.0 / (KAPPA + GAMMA)
    ok = (
        abs(fit.tau_ns - tau_closed) / tau_closed < 0.05
        and abs(fit.tau_ns - 10.0) / 10.0 < 0.15
        and elapsed < 60.0
    )
    _report(4, "Rabi envelope lifetime", ok,
            f"tau = {fit.tau_ns:.4f} ns vs closed form {tau_closed:.4f} ns "
            f"and quoted ~10 ns; {elapsed:.1f} s")


def test_criterion_05_kappa_from_q():
    mhz = presets.kappa_ordinary_hz(1.3e7, 780.0) / 1e6
    ok = abs(mhz - 29.5653) / 29.5653 < 1e-3 and abs(mhz - 29.0) / 29.0 < 0.03
    _report(5, "kappa from Q", ok, f"nu/Q = {mhz:.4f} MHz vs quoted 29 MHz")


def test_criterion_06_cooperativity_chain():
    gamma_hz = presets.GAMMA_RB87_D2_MHZ * 1e6
    c1 = cp.cooperativity(9e9, presets.kappa_ordinary_hz(1.3e7, 780.0), gamma_hz)
    ok = abs(c1 - 4.5e5) / 4.5e5 < 0.03
    details = [f"C_D1 = {c1:.4g}"]
    for name, c_quoted in (("D2", 1.3e6), ("D3", 1.2e6)):
        d = presets.DESIGNS[name]
        c_fwd = cp.cooperativity(
            d.g_ghz * 1e9, presets.kappa_ordinary_hz(d.q_factor, 780.0), gamma_hz
        )
        ok = ok and abs(c_fwd - c_quoted) / c_quoted < 0.10
        ok = ok and 1.5 < d.g_ghz / 9.0 < 2.1   # "almost doubled" exchange rate
        details.append(f"C_{name} = {c_fwd:.4g} (g = {d.g_ghz:.2f} GHz)")
    _report(6, "cooperativity consistency chain", ok, ", ".join(details))


def test_criterion_07_splitting():
    alpha = 0.7
    layout = HilbertLayout(n_max=2, n_atoms=2)
    gen = _closed_gen(layout, (G, alpha * G))
    psi0 = fs.basis_state(layout, 1, "gg")
    omega = G * np.hypot(1, alpha)
    [traj] = dyn.integrate([gen], psi0, [np.linspace(0.0, 1.2 * np.pi / omega, 1201)])
    measured = ent.trajectory_splitting(traj.series("pop_0eg"), traj.series("pop_0ge"))
    ok = abs(measured - 0.34228) < 1e-3
    _report(7, "population splitting", ok,
            f"measured {measured:.5f} vs |1-a^2|/|1+a^2| = 0.34228")


def test_criterion_08_peak_fidelity_and_concurrence():
    alpha = 0.7
    layout = HilbertLayout(n_max=2, n_atoms=2)
    gen = _closed_gen(layout, (G, alpha * G))
    psi0 = fs.basis_state(layout, 1, "gg")
    omega = G * np.hypot(1, alpha)
    psi_plus = analytic.symmetric_bell_state(layout)
    [traj] = dyn.integrate(
        [gen], psi0, [np.linspace(0.0, 1.1 * np.pi / omega, 2401)],
        track=("populations", "concurrence"),
        projections={"P_psi_plus": psi_plus},
    )
    fidelity = float(np.sqrt(np.max(traj.series("P_psi_plus"))))
    conc = float(np.max(traj.series("C_BC")))
    ok = abs(fidelity - 0.98478) < 1e-4 and abs(conc - 0.93960) < 1e-4
    _report(8, "peak entanglement fidelity and concurrence", ok,
            f"fidelity {fidelity:.6f} vs 0.98478, concurrence {conc:.6f} vs 0.93960")


def test_criterion_09_two_photon_decoupling():
    layout = HilbertLayout(n_max=3, n_atoms=2)
    results = {}
    for alpha in (1.0, 0.7):
        g1, g2 = G, alpha * G
        gen = _closed_gen(layout, (g1, g2))
        chi0, _, _, chi3 = analytic.two_photon_states(layout, g1, g2)
        omega = np.hypot(g1, g2)
        ts = np.linspace(0.0, 3 * np.pi / omega, 901)
        [traj] = dyn.integrate([gen], chi0, [ts],
                               projections={"P_chi3": chi3})
        results[alpha] = float(np.max(traj.series("P_chi3")))
    ok = results[1.0] < 1e-8 and results[0.7] > 1e-3
    _report(9, "two-photon dark-state decoupling", ok,
            f"max P(chi3): {results[1.0]:.2e} at alpha=1, {results[0.7]:.2e} at alpha=0.7")


def test_criterion_10_entropy_oscillation_structure():
    layout = HilbertLayout(n_max=2, n_atoms=2)
    gen = _lossy_gen(layout, (G, G))
    psi0 = fs.basis_state(layout, 1, "gg")
    period = np.pi / (np.sqrt(2.0) * G)
    ts = np.linspace(0.0, 5 * period, 1501)
    [traj] = dyn.integrate([gen], psi0, [ts], track=("populations", "entropies"))
    n_a = dyn.count_extrema(traj.series("S_A"))
    n_b = dyn.count_extrema(traj.series("S_B"))
    ok = abs(n_a - 2 * n_b) <= 1
    _report(10, "photon entropy oscillates twice as fast", ok,
            f"S_A extrema {n_a} vs 2 x S_B extrema {2 * n_b} (+-1)")


# The trap rows' values at 5 nm: the mean peak concurrence over atom 2's
# Gaussian trap, to the rule's accuracy (4 x 4 and 8 x 8 points per cell
# differ by 1.2e-11), and its minimum inside +-2 sigma
TRAP_ROWS_AT_5NM = {"D1": (0.99999705759, 0.99998225), "D3": (0.99803096331, 0.98662230)}


def test_criterion_11_robustness_maps(tmp_path):
    results, trap = {}, {}
    for design, axis, band in (
        ("D1", "delta_x_nm", (0.05, 0.4)),
        ("D3", "delta_y_nm", (1.5, 3.5)),
    ):
        span = 53.0 if axis == "delta_x_nm" else 20.0
        other = "delta_y_nm" if axis == "delta_x_nm" else "delta_x_nm"
        cfg = parse_config(
            f'scenario = "fig5_position_map"\ndesign = "{design}"\n'
            f"[sweep.{axis}]\nmin = 0.0\nmax = {span}\nsteps = 6\n"
            f"[sweep.{other}]\nmin = 0.0\nmax = 0.0\nsteps = 1\n"
        )
        report = run_scenario(cfg, output_dir=str(tmp_path / design))
        key = "reduction_x_axis_pct" if axis == "delta_x_nm" else "reduction_y_axis_pct"
        results[design] = (report.summary[key], band)
        trap[design] = (report.summary["trap_mean_peak_concurrence"],
                        report.summary["trap_min_peak_concurrence_2sigma"])
    ok = all(band[0] <= red <= band[1] for red, band in results.values())
    d1 = results["D1"][0]
    d3 = results["D3"][0]
    ok = ok and abs(d1 - 0.13) < 0.08 and abs(d3 - 2.4) < 0.6
    ok = ok and all(abs(mean - TRAP_ROWS_AT_5NM[d][0]) < 5e-11
                    and abs(low - TRAP_ROWS_AT_5NM[d][1]) < 1e-8 for d, (mean, low) in trap.items())
    _report(11, "displacement robustness of peak concurrence", ok,
            f"D1 worst reduction {d1:.3f}% (band 0.05-0.4), "
            f"D3 worst reduction {d3:.3f}% (band 1.5-3.5); trap mean and +-2 sigma minimum "
            + ", ".join(f"{d} {mean:.11f} {low:.8f}" for d, (mean, low) in trap.items()))


def test_criterion_12_conservation_suite():
    configs = [
        (parse_config('scenario = "fig2_single_atom"\n'), 40),
        (parse_config('scenario = "fig3_two_atom"\n'), 25),
        (parse_config('scenario = "fig4_correlations"\n'), 25),
        (parse_config(
            'scenario = "fig5_position_map"\n'
            "[sweep.delta_x_nm]\nmin = 0.0\nmax = 53.0\nsteps = 3\n"
            "[sweep.delta_y_nm]\nmin = 0.0\nmax = 53.0\nsteps = 3\n"
        ), 30),
        (parse_config('scenario = "n_atom_wstate"\n'), 25),
    ]
    # The states are rebuilt from tomography projections, Hermitian by
    # construction; x's Hermiticity, which no output shows, is gated within
    # HERM_TOL = 1e-10 at every output time of every run by integrate.
    checked = 0
    worst = {"trace": 0.0, "neg": 0.0, "pop": 0.0}
    for cfg, stride in configs:
        for _, traj, states in plan_trajectories(cfg, stride):
            for name in dyn.population_labels(traj.layout):
                series = traj.observables.get(name)
                if series is not None:
                    worst["pop"] = max(
                        worst["pop"],
                        float(np.max(-series)),
                        float(np.max(series - 1.0)),
                    )
            for rho in states:
                worst["trace"] = max(worst["trace"], abs(np.trace(rho).real - 1.0))
                worst["neg"] = max(worst["neg"], -float(np.linalg.eigvalsh(rho)[0]))
                checked += 1

    # closed-system excitation conservation on the lossless wstate variant
    cfg = parse_config('scenario = "n_atom_wstate"\nlossless = true\n')
    [(_, traj, states)] = plan_trajectories(cfg, 10)
    n_ex = np.diag(excitations(traj.layout))
    vals = np.array([np.trace(n_ex @ rho).real for rho in states])
    exc_drift = float(np.max(np.abs(vals - vals[0])))

    ok = (
        worst["trace"] < 1e-9
        and dyn.HERM_TOL <= 1e-10
        and worst["neg"] < 1e-8
        and worst["pop"] < 1e-8
        and exc_drift < 1e-8
    )
    _report(12, "conservation suite over default scenarios", ok,
            f"{checked} states: trace {worst['trace']:.1e}, x Hermitian within "
            f"{dyn.HERM_TOL:g} (gated), "
            f"negativity {worst['neg']:.1e}, pop bound {worst['pop']:.1e}, "
            f"excitation drift {exc_drift:.1e}")


def test_criterion_13_worker_determinism(tmp_path):
    text = (
        'scenario = "fig5_position_map"\ndesign = "D3"\n'
        "[sweep.delta_x_nm]\nmin = 0.0\nmax = 53.0\nsteps = 3\n"
        "[sweep.delta_y_nm]\nmin = 0.0\nmax = 20.0\nsteps = 3\n"
    )
    from dataclasses import replace

    cfg = parse_config(text)
    out1 = str(tmp_path / "w1")
    out8 = str(tmp_path / "w8")
    run_scenario(replace(cfg, workers=1), output_dir=out1)
    run_scenario(replace(cfg, workers=8), output_dir=out8)
    files = sorted(os.listdir(out1))
    match, mismatch, errors = filecmp.cmpfiles(out1, out8, files, shallow=False)
    ok = not mismatch and not errors and sorted(os.listdir(out8)) == files
    _report(13, "byte-identical map across 1 and 8 workers", ok,
            f"{len(files)} files compared, mismatches: {mismatch or 'none'}")
