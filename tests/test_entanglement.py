import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitysim import analytic, dynamics as dyn, entanglement as ent, fockspace as fs, model
from cavitysim.config import parse_config
from cavitysim.fockspace import HilbertLayout
from cavitysim.model import SystemParams
from cavitysim.units import ghz_to_angular

from conftest import (
    concurrence_sqrtm_oracle,
    dense,
    integrate_states,
    partial_trace_oracle,
    plan_trajectories,
    pure_state_density,
    random_density_matrix,
    random_pure_state,
    random_sector_ket,
    state_fidelity,
)

G = ghz_to_angular(9.0)


def test_partial_trace_product_state():
    lay = HilbertLayout(n_max=1, n_atoms=1)
    rho = pure_state_density(dense(lay, fs.basis_state(lay, 1, "g")))
    photon = ent.partial_trace(rho, lay, (0,))
    assert np.allclose(photon, np.diag([0.0, 1.0]))


def test_partial_trace_bell_state_gives_maximally_mixed():
    lay = HilbertLayout(n_max=1, n_atoms=2)
    bell = (dense(lay, fs.basis_state(lay, 0, "eg"))
            + dense(lay, fs.basis_state(lay, 0, "ge"))) / np.sqrt(2)
    rho = pure_state_density(bell)
    for atom in (1, 2):
        red = ent.partial_trace(rho, lay, (atom,))
        assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_schmidt_purity_equality(rng):
    lay = HilbertLayout(n_max=2, n_atoms=2)  # dim 12
    rho = pure_state_density(random_pure_state(lay.dim, rng))
    for keep in [(0,), (1,), (2,), (0, 1), (1, 2)]:
        comp = tuple(p for p in range(3) if p not in keep)
        pk = np.trace(ent.partial_trace(rho, lay, keep) @ ent.partial_trace(rho, lay, keep)).real
        pc = np.trace(ent.partial_trace(rho, lay, comp) @ ent.partial_trace(rho, lay, comp)).real
        assert pk == pytest.approx(pc, abs=1e-10)


@pytest.mark.parametrize("n_max,n_atoms", [(1, 1), (2, 2), (1, 3), (3, 3)])
def test_partial_trace_against_summation_oracle(n_max, n_atoms, rng):
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    assert lay.dim <= 64
    rho = random_density_matrix(lay.dim, rng)
    dims = lay.factor_dims()
    keeps = [(0,), (n_atoms,)] + ([(0, 1), (1, 2), (2, 1)] if n_atoms >= 2 else [])
    for keep in keeps:
        mine = ent.partial_trace(rho, lay, keep)
        oracle = partial_trace_oracle(rho, dims, keep)
        assert np.max(np.abs(mine - oracle)) < 1e-12
        assert abs(np.trace(mine) - 1.0) < 1e-12
        assert np.max(np.abs(mine - mine.conj().T)) < 1e-12


def test_partial_trace_rejects_bad_labels():
    lay = HilbertLayout(n_max=1, n_atoms=2)
    rho = np.eye(lay.dim) / lay.dim
    for bad in [(), (3,), (0, 0), (-1,)]:
        with pytest.raises(ValueError):
            ent.partial_trace(rho, lay, bad)


def test_entropy_pure_and_maximally_mixed():
    assert ent.entropy_normalized(np.diag([1.0, 0.0]), 2) == pytest.approx(0.0, abs=1e-12)
    assert ent.entropy_normalized(np.eye(2) / 2, 2) == pytest.approx(1.0, abs=1e-12)


def test_entropy_of_unbalanced_peak_state_atom():
    # eigenvalue oracle: reduced atom-2 state of (g1|eg> + g2|ge>)/norm with
    # alpha = 0.7 has eigenvalues {alpha^2, 1}/(1+alpha^2)
    alpha = 0.7
    lay = HilbertLayout(n_max=1, n_atoms=2)
    _, chi1 = analytic.single_excitation_states(lay, (G, alpha * G))
    red = ent.partial_trace(pure_state_density(dense(lay, chi1)), lay, (2,))
    evals = np.sort(np.linalg.eigvalsh(red))
    p = alpha**2 / (1 + alpha**2)
    assert np.allclose(evals, [p, 1 - p], atol=1e-12)       # {0.3289, 0.6711}
    s = ent.entropy_normalized(red, 2)
    binary_entropy = -(p * np.log(p) + (1 - p) * np.log(1 - p)) / np.log(2)
    assert s == pytest.approx(binary_entropy, abs=1e-12)
    assert s == pytest.approx(0.913756430937882, abs=1e-12)
    assert s == pytest.approx(0.914, abs=5e-4)


def test_entropy_rejects_bad_norm_dim_and_negativity():
    with pytest.raises(ValueError):
        ent.entropy_normalized(np.eye(2) / 2, 1)
    bad = np.diag([1.1, -0.1])
    with pytest.raises(ValueError):
        ent.entropy_normalized(bad, 2)
    # slightly negative eigenvalues inside tolerance are clamped, not fatal
    ok = np.diag([1.0 + 5e-9, -5e-9])
    assert ent.entropy_normalized(ok, 2) == pytest.approx(0.0, abs=1e-6)


def test_entropy_invariant_under_local_unitaries(rng):
    rho = random_density_matrix(2, rng)
    s0 = ent.entropy_normalized(rho, 2)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        s = ent.entropy_normalized(q @ rho @ q.conj().T, 2)
        assert s == pytest.approx(s0, abs=1e-9)


def test_schmidt_entropy_symmetry_for_pure_states(rng):
    lay = HilbertLayout(n_max=2, n_atoms=2)
    for _ in range(5):
        rho = pure_state_density(random_pure_state(lay.dim, rng))
        for keep in [(0,), (1,), (0, 2)]:
            comp = tuple(p for p in range(3) if p not in keep)
            s_keep = ent.entropy_normalized(ent.partial_trace(rho, lay, keep), 2)
            s_comp = ent.entropy_normalized(ent.partial_trace(rho, lay, comp), 2)
            assert s_keep == pytest.approx(s_comp, abs=1e-9)


def test_concurrence_extremes():
    bell = np.zeros(4, dtype=complex)
    bell[1] = bell[2] = 1 / np.sqrt(2)  # (|ge> + |eg>)/sqrt(2)
    assert ent.concurrence(pure_state_density(bell)) == pytest.approx(1.0, abs=1e-10)
    gg = np.zeros(4, dtype=complex)
    gg[0] = 1.0
    assert ent.concurrence(pure_state_density(gg)) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_of_unbalanced_pure_state():
    alpha = 0.7
    norm = np.hypot(1, alpha)
    psi = np.array([0.0, alpha / norm, 1 / norm, 0.0], dtype=complex)
    c = ent.concurrence(pure_state_density(psi))
    assert c == pytest.approx(2 * alpha / (1 + alpha**2), abs=1e-12)
    assert c == pytest.approx(0.9395973154362416, abs=1e-12)


def test_concurrence_pure_states_match_determinant_formula(rng):
    # C(a|gg>+b|ge>+c|eg>+d|ee>) = 2|ad - bc|
    for _ in range(1000):
        psi = random_pure_state(4, rng)
        c = ent.concurrence(pure_state_density(psi))
        expected = 2 * abs(psi[0] * psi[3] - psi[1] * psi[2])
        assert c == pytest.approx(expected, abs=1e-10)


def test_concurrence_mixed_states_match_sqrtm_oracle(rng):
    for _ in range(50):
        rho = random_density_matrix(4, rng, rank=int(rng.integers(1, 5)))
        assert ent.concurrence(rho) == pytest.approx(
            concurrence_sqrtm_oracle(rho), abs=1e-8
        )


def test_concurrence_input_validation(rng):
    with pytest.raises(ValueError):
        ent.concurrence(np.eye(3) / 3)
    with pytest.raises(ValueError):
        ent.concurrence(np.diag([1.2, -0.2, 0.0, 0.0]))
    nonherm = np.eye(4) / 4 + 1e-4 * np.array([[0, 1, 0, 0]] + [[0] * 4] * 3)
    with pytest.raises(ValueError):
        ent.concurrence(nonherm)


@pytest.mark.parametrize(
    "alpha,expected",
    [(1.0, 0.0), (0.7, 0.51 / 1.49), (0.0, 1.0)],
)
def test_splitting_magnitude_values(alpha, expected):
    assert ent.splitting_magnitude(alpha) == pytest.approx(expected, abs=1e-12)


def test_splitting_matches_trajectory_measurement():
    alpha = 0.7
    lay = HilbertLayout(n_max=2, n_atoms=2)
    p = SystemParams(detuning=0, kappa=0, gamma=0, couplings=(G, alpha * G))
    gen = model.build_generator(lay, p)
    psi0 = fs.basis_state(lay, 1, "gg")
    omega = G * np.hypot(1, alpha)
    ts = np.linspace(0, 1.2 * np.pi / omega, 601)
    traj = dyn.integrate(gen, psi0, ts)
    measured = ent.trajectory_splitting(traj.series("pop_0eg"), traj.series("pop_0ge"))
    assert measured == pytest.approx(ent.splitting_magnitude(alpha), abs=1e-6)


@pytest.mark.parametrize(
    "alpha,expected",
    [(1.0, 1.0), (0.7, 1.7 / np.sqrt(2.98)), (0.0, 1 / np.sqrt(2))],
)
def test_entanglement_fidelity_alpha(alpha, expected):
    fidelity = analytic.peak_entanglement_metrics(alpha).fidelity
    assert fidelity == pytest.approx(expected, abs=1e-12)


def test_state_fidelity_basics(rng):
    psi = random_pure_state(6, rng)
    assert state_fidelity(pure_state_density(psi), psi) == pytest.approx(1.0, abs=1e-12)
    phi = np.zeros(6, dtype=complex)
    phi[np.argmin(np.abs(psi))] = 1.0
    phi -= (psi.conj() @ phi) * psi
    phi /= np.linalg.norm(phi)
    assert state_fidelity(pure_state_density(psi), phi) == pytest.approx(0.0, abs=1e-8)
    assert state_fidelity(np.eye(6) / 6, psi) == pytest.approx(1 / np.sqrt(6), abs=1e-12)
    with pytest.raises(ValueError):
        state_fidelity(np.eye(4) / 4, psi)
    with pytest.raises(ValueError):
        state_fidelity(np.eye(6) / 6, 2.0 * psi)


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.3])
def test_peak_concurrence_matches_closed_form(alpha):
    # lossless run over one period; peak concurrence = 2a/(1+a^2)
    lay = HilbertLayout(n_max=2, n_atoms=2)
    p = SystemParams(detuning=0, kappa=0, gamma=0, couplings=(G, alpha * G))
    gen = model.build_generator(lay, p)
    psi0 = fs.basis_state(lay, 1, "gg")
    omega = G * np.hypot(1, alpha)
    ts = np.linspace(0, 1.1 * np.pi / omega, 1201)
    traj = dyn.integrate(gen, psi0, ts, track=("populations", "concurrence"))
    peak = np.max(traj.series("C_BC"))
    assert peak == pytest.approx(2 * alpha / (1 + alpha**2), abs=1e-4)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95))
def test_splitting_and_fidelity_bounds(alpha):
    assert 0.0 < ent.splitting_magnitude(alpha) < 1.0
    assert 1 / np.sqrt(2) < analytic.peak_entanglement_metrics(alpha).fidelity < 1.0


def _stack_of_states(dim, rng, count=12):
    """Pure, rank-deficient mixed and full-rank states of one dimension."""
    states = [pure_state_density(random_pure_state(dim, rng)) for _ in range(4)]
    states += [random_density_matrix(dim, rng, rank=r)
               for r in rng.integers(2, max(3, dim), size=count - 8)]
    states += [random_density_matrix(dim, rng) for _ in range(4)]
    return np.array(states)


@pytest.mark.parametrize("n_max,n_atoms", [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3)])
def test_stacked_diagnostics_match_scalar_loop(n_max, n_atoms, rng):
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    rhos = _stack_of_states(lay.dim, rng)
    keeps = [(p,) for p in range(n_atoms + 1)]
    keeps += [(1, 2), (2, 1), (0, 1)] if n_atoms >= 2 else []
    for keep in keeps:
        subs = ent.partial_trace(rhos, lay, keep)
        loop = np.array([ent.partial_trace(r, lay, keep) for r in rhos])
        assert subs.shape == loop.shape
        assert np.max(np.abs(subs - loop)) <= 1e-14
        if len(keep) == 1:
            stacked = ent.entropy_normalized(subs, 2)
            loop = [ent.entropy_normalized(s, 2) for s in subs]
            assert np.max(np.abs(stacked - loop)) <= 1e-14
        elif 0 not in keep:
            stacked = ent.concurrence(subs)
            loop = [ent.concurrence(s) for s in subs]
            assert np.max(np.abs(stacked - loop)) <= 1e-14


def _raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def test_stacked_diagnostics_raise_the_scalar_errors(rng):
    lay = HilbertLayout(n_max=1, n_atoms=2)
    rhos = _stack_of_states(lay.dim, rng)
    for keep in [(1, 1), (3,), ()]:
        assert _raised(ent.partial_trace, rhos, lay, keep) == _raised(
            ent.partial_trace, rhos[0], lay, keep
        )

    negative = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    nonherm = np.eye(4) / 4 + 1e-4 * np.array([[0, 1, 0, 0]] + [[0] * 4] * 3)
    two_qubit = _stack_of_states(4, rng)
    for bad in (negative, nonherm):
        stack = two_qubit.copy()
        stack[5] = bad
        assert _raised(ent.concurrence, stack) == _raised(ent.concurrence, bad)

    qubit = np.array([ent.partial_trace(r, lay, (1,)) for r in rhos])
    bad = np.diag([1.2, -0.2]).astype(complex)
    stack = qubit.copy()
    stack[7] = bad
    assert _raised(ent.entropy_normalized, stack, 2) == _raised(
        ent.entropy_normalized, bad, 2
    )
    assert _raised(ent.entropy_normalized, qubit, 1) == _raised(
        ent.entropy_normalized, qubit[0], 1
    )


def _check_against_stacked_oracles(traj, states, norm_dims) -> int:
    """Compare every entropy and concurrence column of a trajectory with the
    stacked partial-trace diagnostics of its states at every output time;
    return the number of columns compared."""
    assert len(states) == traj.times.size
    checked = 0
    for name in traj.column_order:
        factors = tuple(ord(c) - ord("A") for c in name[2:])
        if name.startswith("S_"):
            reduced = ent.partial_trace(states, traj.layout, factors)
            expected = ent.entropy_normalized(reduced, norm_dims[factors[0]])
        elif name.startswith("C_"):
            reduced = ent.partial_trace(states, traj.layout, factors)
            expected = ent.concurrence(reduced)
        else:
            continue
        assert np.max(np.abs(traj.series(name) - expected)) < 1e-12, name
        checked += 1
    return checked


def test_closed_forms_match_stacked_oracles_on_fig5_d3_states():
    cfg = parse_config('scenario = "fig5_position_map"\ndesign = "D3"\n')
    runs = plan_trajectories(cfg, 1)
    assert len(runs) == 81
    for _, traj, states in runs:
        norm_dims = {p: dyn.sector_norm_dim(traj.layout, (p,), 1) for p in range(3)}
        assert _check_against_stacked_oracles(traj, states, norm_dims) == 4  # S_A..S_C, C_BC


def test_closed_forms_match_stacked_oracles_on_lossy_two_photon_fig3_states():
    cfg = parse_config(
        'scenario = "fig3_two_atom"\n'
        'observables = ["populations", "entropies", "concurrence"]\n'
    )
    assert cfg.resolved_kappa_mhz > 0 and cfg.resolved_gamma_mhz > 0
    runs = {run.name: (traj, states) for run, traj, states in plan_trajectories(cfg, 1)}
    for name in ("two_photon_equal", "two_photon_ratio"):
        traj, states = runs[name]
        norm_dims = {p: dyn.sector_norm_dim(traj.layout, (p,), 2) for p in range(3)}
        assert _check_against_stacked_oracles(traj, states, norm_dims) == 4


@pytest.mark.parametrize("n_max,n_atoms,top", [(2, 2, 1), (3, 2, 2), (2, 3, 2), (1, 4, 3)])
def test_closed_forms_match_stacked_oracles_on_random_block_diagonal_states(
    n_max, n_atoms, top, rng
):
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    p = SystemParams(detuning=0.2 * G, kappa=4.0, gamma=1.5,
                     couplings=tuple(G * rng.uniform(0.3, 1.3, n_atoms)))
    gen = model.build_generator(lay, p)
    norm_dims = {f: dyn.sector_norm_dim(lay, (f,), top) for f in range(n_atoms + 1)}
    for _ in range(3):
        # a random ket in the top sector: lossy, it feeds every sector below
        traj, states = integrate_states(
            gen, random_sector_ket(lay, rng, top), np.linspace(0.0, 0.05, 11),
            track=("entropies", "concurrence"),
        )
        n_pairs = n_atoms * (n_atoms - 1) // 2
        assert _check_against_stacked_oracles(traj, states, norm_dims) == n_atoms + 1 + n_pairs


def test_closed_form_diagnostics_keep_their_checks():
    # eigenvalue floor on a diagonal state's populations
    assert ent.spectrum_entropy_stack(np.array([[0.5, 0.5 + 1e-9, -1e-9]]), 2)[0] == (
        pytest.approx(1.0, abs=1e-8)
    )
    with pytest.raises(ValueError, match="positive semidefinite"):
        ent.spectrum_entropy_stack(np.array([[0.5, 0.5 + 1e-6, -1e-6]]), 2)
    with pytest.raises(ValueError):
        ent.spectrum_entropy_stack(np.array([[0.5, 0.5]]), 1)

    bell = np.array([[0.0, 0.5, 0.5, 0.0]])
    half = np.array([0.5 + 0.0j])
    assert ent.x_state_concurrence_stack(bell, half, half)[0] == pytest.approx(1.0, abs=1e-15)
    none = np.zeros(1, dtype=complex)
    # eigenvalue floor: a negative corner population, and a coherence larger
    # than sqrt(p_ge p_eg) (eigenvalue 0.5 - hypot(0.25, 0.5) < 0)
    with pytest.raises(ValueError, match="positive semidefinite"):
        ent.x_state_concurrence_stack(np.array([[-1e-6, 0.5, 0.5, 1e-6]]), none, none)
    big = np.array([0.5 + 0.0j])
    with pytest.raises(ValueError, match="positive semidefinite"):
        ent.x_state_concurrence_stack(np.array([[0.0, 0.25, 0.75, 0.0]]), big, big)
    # Hermiticity: rho[eg, ge] must be the conjugate of rho[ge, eg]; both are read
    z = np.array([0.3j])
    assert ent.x_state_concurrence_stack(bell, z, z.conj())[0] == pytest.approx(0.6)
    with pytest.raises(ValueError, match="not Hermitian"):
        ent.x_state_concurrence_stack(bell, z, z)
    with pytest.raises(ValueError, match="not Hermitian"):
        ent.x_state_concurrence_stack(bell, z, z.conj() + 1e-7)
