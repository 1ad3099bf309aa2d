from dataclasses import fields

import numpy as np
import pytest

from cavitysim import dynamics as dyn, fockspace as fs, model
from cavitysim.fockspace import HilbertLayout
from cavitysim.model import SystemParams
from cavitysim.units import ghz_to_angular

from conftest import (
    SIGMA_MINUS_BLOCK,
    dense,
    embed_oracle,
    excitations,
    ladder_block,
    lindblad_rhs,
    random_density_matrix,
)

G = ghz_to_angular(9.0)  # rad/ns


def _params(**kw):
    base = dict(detuning=0.0, kappa=0.0, gamma=0.0,
                couplings=(G,))
    base.update(kw)
    return SystemParams(**base)


def test_params_hold_the_detuning_not_two_frequencies():
    # only omega_0 - omega_c enters the rotating-frame Hamiltonian
    assert [f.name for f in fields(SystemParams)] == ["detuning", "kappa", "gamma", "couplings"]


def test_params_validation():
    with pytest.raises(ValueError):
        _params(kappa=-1.0)
    with pytest.raises(ValueError):
        _params(gamma=-0.1)
    with pytest.raises(ValueError):
        _params(couplings=(-G,))


def test_zero_coupling_resonant_rotating_hamiltonian_is_zero():
    lay = HilbertLayout(n_max=1, n_atoms=1)
    [h] = model.build_hamiltonian(lay, [_params(couplings=(0.0,))], np.arange(lay.dim))
    assert np.max(np.abs(h)) == 0.0


def test_single_atom_polariton_splitting():
    # 2x2 eigendecomposition oracle on the single-excitation block
    lay = HilbertLayout(n_max=1, n_atoms=1)
    [h] = model.build_hamiltonian(lay, [_params()], np.arange(lay.dim))
    block_idx = [lay.basis_index(1, "g"), lay.basis_index(0, "e")]
    block = h[np.ix_(block_idx, block_idx)]
    oracle = np.linalg.eigvalsh(np.array([[0.0, G], [G, 0.0]]))
    assert np.allclose(np.linalg.eigvalsh(block), oracle, atol=1e-12)
    assert np.allclose(sorted(np.linalg.eigvalsh(block)), [-G, G], atol=1e-12)


def test_two_atom_dicke_enhanced_splitting():
    # 3x3 eigendecomposition oracle: eigenvalues {0, +-sqrt(2) g}
    lay = HilbertLayout(n_max=1, n_atoms=2)
    [h] = model.build_hamiltonian(lay, [_params(couplings=(G, G))], np.arange(lay.dim))
    idx = [lay.basis_index(1, "gg"), lay.basis_index(0, "eg"), lay.basis_index(0, "ge")]
    block = h[np.ix_(idx, idx)]
    oracle = np.array([[0, G, G], [G, 0, 0], [G, 0, 0]])
    expected = np.linalg.eigvalsh(oracle)
    assert np.allclose(np.linalg.eigvalsh(block), expected, atol=1e-12)
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(block)),
        [-np.sqrt(2) * G, 0.0, np.sqrt(2) * G],
        atol=1e-9,
    )


def test_hamiltonian_exactly_hermitian():
    lay = HilbertLayout(n_max=2, n_atoms=2)
    p = _params(couplings=(G, 0.7 * G), detuning=1.3)
    [h] = model.build_hamiltonian(lay, [p], np.arange(lay.dim))
    assert np.array_equal(h, h.conj().T)


def test_excitation_number_commutes_with_hamiltonian():
    lay = HilbertLayout(n_max=2, n_atoms=2)
    p = _params(couplings=(G, 0.7 * G), detuning=2.0)
    [h] = model.build_hamiltonian(lay, [p], np.arange(lay.dim))
    n_ex = np.diag(excitations(lay))
    assert np.max(np.abs(h @ n_ex - n_ex @ h)) < 1e-12


def test_generator_collapse_list():
    lay = HilbertLayout(n_max=1, n_atoms=2)
    gen = model.build_generator(lay, _params(couplings=(G, G)))
    assert gen.collapse_channels == ()
    gen2 = model.build_generator(lay, _params(couplings=(G, G), kappa=0.2, gamma=0.05))
    # one photon channel (factor 0) + one per atom
    assert gen2.collapse_channels == ((0.2, 0), (0.05, 1), (0.05, 2))


def _kron_operators(lay, p):
    """H and the (rate, L) list built on the full space from Kronecker chains,
    term by term in the order build_hamiltonian sums them."""
    a = embed_oracle(lay, 0, ladder_block(lay.n_max))
    sigmas = [embed_oracle(lay, i, SIGMA_MINUS_BLOCK) for i in range(1, lay.n_atoms + 1)]
    h = np.zeros((lay.dim, lay.dim), dtype=complex)
    half_sz = 0.5 * p.detuning
    for s in sigmas:
        h += half_sz * (s.conj().T @ s - s @ s.conj().T)  # sigma^z = |e><e| - |g><g|
    for g, s in zip(p.couplings, sigmas):
        t = g * (a @ s.conj().T)
        h += t + t.conj().T
    return h, [(p.kappa, a)] + [(p.gamma, s) for s in sigmas]


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_builders_match_the_kron_oracle(n_max, n_atoms, rng):
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    exc = excitations(lay)
    couplings = tuple(G * (0.4 + 0.37 * i) for i in range(n_atoms))  # unequal
    # all states, the states up to each excitation number, and half of
    # them in random order, which no operator maps into themselves
    keeps = [np.arange(lay.dim)] + [np.flatnonzero(exc <= top) for top in range(n_max + 1)]
    keeps.append(rng.permutation(lay.dim)[: lay.dim // 2])
    p = _params(couplings=couplings, detuning=0.7, kappa=0.3, gamma=0.11)
    h, collapse = _kron_operators(lay, p)
    gen = model.build_generator(lay, p)
    for keep in keeps:
        block = np.ix_(keep, keep)
        assert np.max(np.abs(model.build_hamiltonian(lay, [p], keep)[0] - h[block])) == 0.0
        built = model.collapse_operators(gen, keep)
        assert [r for r, _, _ in built] == [r for r, _ in collapse]
        for (_, op, anti), (_, L) in zip(built, collapse):
            assert np.max(np.abs(op - L[block])) == 0.0
            full = L.conj().T @ L
            assert np.count_nonzero(full - np.diag(np.diag(full))) == 0
            assert np.max(np.abs(np.diag(anti) - full[block])) == 0.0


def test_generator_layout_mismatch():
    lay = HilbertLayout(n_max=1, n_atoms=2)
    with pytest.raises(ValueError):
        model.build_hamiltonian(lay, [_params(couplings=(G,))], np.arange(lay.dim))


def test_rhs_zero_for_maximally_mixed_unitary():
    lay = HilbertLayout(n_max=2, n_atoms=1)
    gen = model.build_generator(lay, _params())
    rho = np.eye(lay.dim) / lay.dim
    assert np.max(np.abs(lindblad_rhs(gen, rho))) < 1e-14


@pytest.mark.parametrize("n_max,n_atoms", [(1, 1), (2, 2), (2, 3)])
def test_rhs_traceless_hermitian_linear(n_max, n_atoms, rng):
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    assert lay.dim <= 24
    p = _params(couplings=tuple(rng.uniform(0.2, 1.5, n_atoms)), kappa=0.3, gamma=0.1,
                detuning=0.4)
    gen = model.build_generator(lay, p)
    for _ in range(34):  # ~100 random pairs across the three layouts
        rho1 = random_density_matrix(lay.dim, rng)
        rho2 = random_density_matrix(lay.dim, rng)
        r1 = lindblad_rhs(gen, rho1)
        assert abs(np.trace(r1)) < 1e-12
        assert np.max(np.abs(r1 - r1.conj().T)) < 1e-12
        a, b = 0.3, 0.7
        lhs = lindblad_rhs(gen, a * rho1 + b * rho2)
        rhs = a * r1 + b * lindblad_rhs(gen, rho2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_liouvillian_matches_rhs(rng):
    lay = HilbertLayout(n_max=2, n_atoms=2)
    p = _params(couplings=(G, 0.5 * G), kappa=0.2, gamma=0.04, detuning=0.8)
    gen = model.build_generator(lay, p)
    liou = model.liouvillian_matrix(gen, np.arange(lay.dim))
    for _ in range(5):
        rho = random_density_matrix(lay.dim, rng)
        direct = lindblad_rhs(gen, rho)
        via_matrix = (liou @ rho.reshape(-1)).reshape(lay.dim, lay.dim)
        assert np.max(np.abs(direct - via_matrix)) < 1e-12


def test_liouvillian_on_kept_states_restricts_the_full_one():
    lay = HilbertLayout(n_max=2, n_atoms=2)
    p = _params(couplings=(G, 0.5 * G), kappa=0.2, gamma=0.04, detuning=0.8)
    gen = model.build_generator(lay, p)
    kept = np.flatnonzero(excitations(lay) <= 1)
    inside = (kept[:, None] * lay.dim + kept).ravel()  # vec index of |k><l|
    outside = np.setdiff1d(np.arange(lay.dim**2), inside)
    full = model.liouvillian_matrix(gen, np.arange(lay.dim))
    # operators on the kept states are mapped into themselves ...
    assert not np.any(full[np.ix_(outside, inside)])
    # ... by the full generator's block
    sub = model.liouvillian_matrix(gen, kept)
    assert np.max(np.abs(sub - full[np.ix_(inside, inside)])) == 0.0


def test_atom_decay_matches_closed_form():
    # amplitude damping: P_e(t) = exp(-gamma t)
    lay = HilbertLayout(n_max=1, n_atoms=1)
    gamma = 0.25
    gen = model.build_generator(lay, _params(couplings=(0.0,), gamma=gamma))
    psi0 = fs.basis_state(lay, 0, "e")
    ts = np.linspace(0.0, 20.0, 201)
    [traj] = dyn.integrate([gen], psi0, [ts])
    assert np.max(np.abs(traj.series("pop_0e") - np.exp(-gamma * ts))) < 1e-8


def test_photon_decay_matches_closed_form():
    # <a^dag a>(t) = n0 exp(-kappa t)
    lay = HilbertLayout(n_max=2, n_atoms=1)
    kappa = 0.4
    gen = model.build_generator(lay, _params(couplings=(0.0,), kappa=kappa))
    psi0 = fs.basis_state(lay, 2, "g")
    ts = np.linspace(0.0, 10.0, 201)
    [traj] = dyn.integrate([gen], psi0, [ts])
    assert np.max(np.abs(traj.series("n_photon") - 2.0 * np.exp(-kappa * ts))) < 1e-8


def test_detuned_hamiltonian_shifts_block():
    lay = HilbertLayout(n_max=1, n_atoms=1)
    delta = 2.0
    [h] = model.build_hamiltonian(lay, [_params(detuning=delta)], np.arange(lay.dim))
    e_state = dense(lay, fs.basis_state(lay, 0, "e"))
    g_state = dense(lay, fs.basis_state(lay, 0, "g"))
    assert e_state.conj() @ h @ e_state == pytest.approx(delta / 2)
    assert g_state.conj() @ h @ g_state == pytest.approx(-delta / 2)


def test_stacked_hamiltonians_equal_each_alone():
    # a zero coupling, a detuning and a sign of zero, each built as alone
    lay = HilbertLayout(n_max=2, n_atoms=2)
    stack = [_params(couplings=(G, 0.0)), _params(couplings=(0.3 * G, 1.7 * G), detuning=-2.5),
             _params(couplings=(G, G), detuning=1.0)]
    keep = np.flatnonzero(excitations(lay) == 1)
    for states in (np.arange(lay.dim), keep):
        h = model.build_hamiltonian(lay, stack, states)
        assert h.shape[0] == len(stack)
        for p, each in zip(stack, h, strict=True):
            assert each.tobytes() == model.build_hamiltonian(lay, [p], states)[0].tobytes()
