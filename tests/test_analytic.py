import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitysim import analytic, dynamics as dyn, fockspace as fs, model
from cavitysim.analytic import coupling_norm
from cavitysim.fockspace import HilbertLayout
from cavitysim.model import SystemParams
from cavitysim.units import ghz_to_angular

from conftest import dense, single_excitation_population

G = ghz_to_angular(9.0)


def _closed_gen(layout, couplings):
    p = SystemParams(detuning=0, kappa=0, gamma=0, couplings=couplings)
    return model.build_generator(layout, p)


def test_coupling_vector_norm_and_validation():
    lay = HilbertLayout(n_max=1, n_atoms=2)
    assert coupling_norm((3.0, 4.0)) == pytest.approx(5.0, abs=1e-12)
    assert coupling_norm((0.0, 2.0)) == pytest.approx(2.0)  # zeros allowed
    analytic.single_excitation_states(lay, (0.0, 2.0))
    for couplings in ((0.0, 0.0), (-1.0, 1.0), (1.0,)):
        with pytest.raises(ValueError):
            analytic.single_excitation_states(lay, couplings)


def test_single_excitation_states_single_atom():
    lay = HilbertLayout(n_max=1, n_atoms=1)
    chi0, chi1 = analytic.single_excitation_states(lay, (G,))
    assert np.allclose(dense(lay, chi0), dense(lay, fs.basis_state(lay, 1, "g")))
    assert np.allclose(dense(lay, chi1), dense(lay, fs.basis_state(lay, 0, "e")))


def test_single_excitation_states_equal_coupling_is_bell():
    lay = HilbertLayout(n_max=1, n_atoms=2)
    _, chi1 = analytic.single_excitation_states(lay, (G, G))
    bell = dense(lay, analytic.symmetric_bell_state(lay))
    assert abs(dense(lay, chi1).conj() @ bell) == pytest.approx(1.0, abs=1e-12)


def test_single_excitation_states_equal_coupling_is_w_state():
    lay = HilbertLayout(n_max=1, n_atoms=3)
    _, chi1 = analytic.single_excitation_states(lay, (G, G, G))
    w = sum(dense(lay, fs.basis_state(lay, 0, p)) for p in ("egg", "geg", "gge")) / np.sqrt(3)
    assert abs(dense(lay, chi1).conj() @ w) == pytest.approx(1.0, abs=1e-12)


def test_single_excitation_states_orthonormal(rng):
    lay = HilbertLayout(n_max=2, n_atoms=3)
    couplings = tuple(rng.uniform(0.1, 2.0, 3))
    chi0, chi1 = (dense(lay, chi) for chi in analytic.single_excitation_states(lay, couplings))
    assert np.linalg.norm(chi0) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(chi1) == pytest.approx(1.0, abs=1e-12)
    assert abs(chi0.conj() @ chi1) < 1e-12


def test_single_excitation_population_closed_form():
    couplings = (G, 0.7 * G)
    assert single_excitation_population(couplings, 0.0) == pytest.approx(0.0)
    t_peak = np.pi / (2 * coupling_norm(couplings))
    assert single_excitation_population(couplings, t_peak) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        single_excitation_population(couplings, -1.0)


def test_population_frequency_scales_as_sqrt_n():
    f1 = coupling_norm((G,)) / np.pi
    f2 = coupling_norm((G, G)) / np.pi
    assert f2 / f1 == pytest.approx(np.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_integrator_matches_sin_squared_oracle(n_atoms, rng):
    # the central oracle-equivalence check: random couplings, three periods
    lay = HilbertLayout(n_max=2, n_atoms=n_atoms)
    couplings = tuple(G * rng.uniform(0.4, 1.2, n_atoms))
    gen = _closed_gen(lay, couplings)
    chi0, chi1 = analytic.single_excitation_states(lay, couplings)
    ts = np.linspace(0.0, 3 * np.pi / coupling_norm(couplings), 451)
    traj = dyn.integrate(gen, chi0, ts,
                         projections={"P_chi1": chi1})
    expected = single_excitation_population(couplings, ts)
    assert np.max(np.abs(traj.series("P_chi1") - expected)) < 1e-6


def test_two_photon_states_gram_matrix():
    lay = HilbertLayout(n_max=3, n_atoms=2)
    states = [dense(lay, chi) for chi in analytic.two_photon_states(lay, G, 0.7 * G)]
    gram = np.array([[si.conj() @ sj for sj in states] for si in states])
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_two_photon_dark_state_matrix_elements():
    # chi3 couples only to |0,ee> with element (g2^2 - g1^2)/sqrt(g1^2+g2^2);
    # its elements to chi0 and chi1 vanish identically because the coupling
    # changes the photon number by one
    lay = HilbertLayout(n_max=3, n_atoms=2)
    for alpha in (1.0, 0.7):
        g1, g2 = G, alpha * G
        h = model.build_hamiltonian(
            lay, SystemParams(detuning=0, kappa=0, gamma=0, couplings=(g1, g2))
        )
        chi0, chi1, chi2, chi3 = (dense(lay, chi)
                                  for chi in analytic.two_photon_states(lay, g1, g2))
        assert abs(chi3.conj() @ h @ chi0) < 1e-12
        assert abs(chi3.conj() @ h @ chi1) < 1e-12
        expected = (g2**2 - g1**2) / np.hypot(g1, g2)
        assert chi3.conj() @ h @ chi2 == pytest.approx(expected, abs=1e-9)


def test_two_photon_decoupling_at_equal_coupling():
    lay = HilbertLayout(n_max=3, n_atoms=2)
    g1 = g2 = G
    gen = _closed_gen(lay, (g1, g2))
    chi0, chi1, chi2, chi3 = analytic.two_photon_states(lay, g1, g2)
    omega = np.hypot(g1, g2)
    ts = np.linspace(0.0, 3 * np.pi / omega, 601)
    traj = dyn.integrate(gen, chi0, ts,
                         projections={"P_chi3": chi3})
    assert np.max(traj.series("P_chi3")) < 1e-8


def test_two_photon_coupling_opens_at_unequal_coupling():
    lay = HilbertLayout(n_max=3, n_atoms=2)
    g1, g2 = G, 0.7 * G
    gen = _closed_gen(lay, (g1, g2))
    chi0, _, _, chi3 = analytic.two_photon_states(lay, g1, g2)
    omega = np.hypot(g1, g2)
    ts = np.linspace(0.0, 3 * np.pi / omega, 601)
    traj = dyn.integrate(gen, chi0, ts,
                         projections={"P_chi3": chi3})
    assert np.max(traj.series("P_chi3")) > 1e-3


def test_two_photon_states_validation():
    lay = HilbertLayout(n_max=3, n_atoms=2)
    with pytest.raises(ValueError):
        analytic.two_photon_states(lay, 0.0, 0.0)
    with pytest.raises(ValueError):
        analytic.two_photon_states(HilbertLayout(n_max=1, n_atoms=2), G, G)
    with pytest.raises(ValueError):
        analytic.two_photon_states(HilbertLayout(n_max=3, n_atoms=3), G, G)


def test_peak_entanglement_metrics_values():
    m1 = analytic.peak_entanglement_metrics(1.0)
    assert (m1.fidelity, m1.concurrence, m1.entropy_atom2) == pytest.approx((1.0, 1.0, 1.0))
    m95 = analytic.peak_entanglement_metrics(0.95)
    assert m95.concurrence == pytest.approx(1.9 / 1.9025, abs=1e-12)
    assert m95.concurrence == pytest.approx(0.998686, abs=1e-6)
    m80 = analytic.peak_entanglement_metrics(0.8)
    assert m80.concurrence == pytest.approx(1.6 / 1.64, abs=1e-12)
    assert m80.concurrence == pytest.approx(0.97561, abs=1e-5)
    m70 = analytic.peak_entanglement_metrics(0.7)
    assert m70.fidelity == pytest.approx(0.9847835588179368, abs=1e-12)
    assert m70.entropy_atom2 == pytest.approx(0.913756430937882, abs=1e-12)
    with pytest.raises(ValueError):
        analytic.peak_entanglement_metrics(-0.1)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=0.99))
def test_peak_metrics_symmetric_under_branch_relabeling(alpha):
    m = analytic.peak_entanglement_metrics(alpha)
    m_inv = analytic.peak_entanglement_metrics(1.0 / alpha)
    assert m.fidelity == pytest.approx(m_inv.fidelity, rel=1e-12)
    assert m.concurrence == pytest.approx(m_inv.concurrence, rel=1e-12)


def test_peak_state_fidelity_cross_checked_against_trajectory():
    # overlap formula vs the numerically generated peak state
    alpha = 0.7
    lay = HilbertLayout(n_max=2, n_atoms=2)
    gen = _closed_gen(lay, (G, alpha * G))
    psi0 = fs.basis_state(lay, 1, "gg")
    omega = G * np.hypot(1, alpha)
    ts = np.linspace(0.0, 1.1 * np.pi / omega, 1201)
    psi_plus = analytic.symmetric_bell_state(lay)
    traj = dyn.integrate(gen, psi0, ts, projections={"P_psi_plus": psi_plus})
    fidelity_peak = np.sqrt(np.max(traj.series("P_psi_plus")))
    assert fidelity_peak == pytest.approx(
        analytic.peak_entanglement_metrics(alpha).fidelity, abs=1e-4
    )
