import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from cavitysim import analytic, dynamics as dyn, entanglement as ent, fockspace as fs, model
from cavitysim import runner
from cavitysim.config import SCENARIOS, _log2_peak_bytes, parse_config
from cavitysim.fockspace import HilbertLayout
from cavitysim.model import SystemParams
from cavitysim.units import ghz_to_angular

from conftest import (
    basis_label,
    dense,
    excitations,
    integrate_states,
    plan_runs,
    random_sector_ket,
    skew_x,
    sparse,
    tomography_kets,
    per_cell_csv,
    tomography_states,
    trajectory_csv_text,
    validate_density_matrix,
    van_loan_one_photon,
)

G = ghz_to_angular(9.0)


def _gen(n_max, couplings, kappa=0.0, gamma=0.0, detuning=0.0):
    lay = HilbertLayout(n_max=n_max, n_atoms=len(couplings))
    p = SystemParams(detuning=detuning, kappa=kappa, gamma=gamma, couplings=couplings)
    return lay, model.build_generator(lay, p)


def _single_atom_run(kappa=0.0, gamma=0.0, t_end=None, n_points=301):
    lay, gen = _gen(2, (G,), kappa=kappa, gamma=gamma)
    psi0 = fs.basis_state(lay, 1, "g")
    t_end = t_end if t_end is not None else 3 * np.pi / G
    ts = np.linspace(0.0, t_end, n_points)
    return lay, dyn.integrate(gen, psi0, ts)


def test_closed_jaynes_cummings_thirty_periods():
    # closed-form oracle: P(|0,e>) = sin^2(g t)
    period = np.pi / G
    lay, traj = _single_atom_run(t_end=30 * period, n_points=3001)
    expected = np.sin(G * traj.times) ** 2
    assert np.max(np.abs(traj.series("pop_0e") - expected)) < 1e-6


def test_zero_length_evolution_returns_initial_state():
    lay, gen = _gen(1, (G,))
    psi0 = fs.basis_state(lay, 1, "g")
    traj, states = integrate_states(gen, psi0, np.array([0.0]))
    assert traj.times.shape == (1,)
    assert traj.series("pop_1g")[0] == pytest.approx(1.0, abs=1e-15)
    vec = dense(lay, psi0)
    assert np.allclose(states[0], np.outer(vec, vec.conj()))


def test_times_must_increase():
    lay, gen = _gen(1, (G,))
    psi0 = fs.basis_state(lay, 1, "g")
    with pytest.raises(ValueError):
        dyn.integrate(gen, psi0, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        dyn.integrate(gen, psi0, np.array([]))


def test_unknown_track_entries_are_rejected():
    lay, gen = _gen(1, (G,))
    psi0 = fs.basis_state(lay, 1, "g")
    with pytest.raises(ValueError) as info:
        dyn.integrate(gen, psi0, np.linspace(0.0, 0.1, 3),
                      track=("entropies", "entropy", "concurence"))
    msg = str(info.value)
    assert "['entropy', 'concurence']" in msg
    assert f"valid: {', '.join(dyn.TRACKABLE)}" in msg


def test_untracked_populations_cost_nothing_of_size_d(monkeypatch):
    # d = 2048 population labels for N = 10, built only for a run that
    # records them
    def forbidden(layout):
        raise AssertionError("population labels built")

    monkeypatch.setattr(dyn, "population_labels", forbidden)
    lay, gen = _gen(1, (G,) * 10, kappa=0.19, gamma=0.04)
    traj = dyn.integrate(gen, fs.basis_state(lay, 1, "g" * 10), np.linspace(0.0, 0.05, 11),
                         track=("n_photon",))
    assert traj.column_order == ["n_photon"]
    assert traj.series("n_photon")[0] == 1.0
    # nor does the memory gate count d = 196608 population columns at N = 16
    cfg = parse_config('scenario = "custom"\nn_atoms = 16\nobservables = ["n_photon"]\n')
    assert 2.0 ** _log2_peak_bytes(cfg, SCENARIOS["custom"].plan(cfg))[0] < 0.1e9


def _leaky_run(monkeypatch, factor):
    """A lossy one-atom run from one photon whose every propagator, the
    ket step K and the block that holds the jump Gramian G, is scaled by
    factor = 1 + eps.

    At t = k ns the exchange has made whole Rabi cycles, so the no-jump
    norm n_k = |K^k psi0|^2 is exp(-kappa k / 2), and step i adds
    psi_(i-1)^dag G psi_(i-1) = n_(i-1) - n_i to p_G.  Scaled, the ket's
    norm is factor^(2k) n_k, and G = K^dag Q is scaled by factor^2, so step
    i adds factor^(2i) (n_(i-1) - n_i).  To first order in eps the trace is
    off by eps (2 k n_k + sum_(i <= k) 2 i (n_(i-1) - n_i)) = 2 eps
    sum_(i < k) n_i."""
    exact = dyn.expm
    monkeypatch.setattr(dyn, "expm", lambda a: factor * exact(a))
    lay, gen = _gen(1, (G,), kappa=0.19)
    return lambda ts: dyn.integrate(gen, fs.basis_state(lay, 1, "g"), ts)


def test_trace_drift_gate_raises(monkeypatch):
    # eps = 3e-10: 2 eps = 6.00e-10 off at t = 1 ns; 2 eps (1 + e^-0.095)
    # = 1.146e-9 at t = 2 ns, the first state past TRACE_TOL
    assert dyn.TRACE_TOL == 1e-9
    run = _leaky_run(monkeypatch, 1.0 + 3e-10)
    with pytest.raises(dyn.IntegrationError) as info:
        run(np.linspace(0.0, 10.0, 11))
    assert str(info.value) == "trace deviation 1.146e-09 at t=2 ns exceeds tolerance 1e-09"
    # the same run, propagated exactly, passes the gate
    monkeypatch.undo()
    _leaky_run(monkeypatch, 1.0)(np.linspace(0.0, 10.0, 11))


def test_rabi_frequency_measures_g_over_pi():
    lay, traj = _single_atom_run(n_points=601)
    f = dyn.rabi_frequency(traj, "pop_0e")
    assert f == pytest.approx(G / np.pi, rel=1e-4)


def test_rabi_frequency_dicke_ratio():
    lay1, traj1 = _single_atom_run(n_points=601)
    lay2, gen2 = _gen(2, (G, G))
    psi0 = fs.basis_state(lay2, 1, "gg")
    ts = np.linspace(0.0, 3 * np.pi / (np.sqrt(2) * G), 601)
    traj2 = dyn.integrate(gen2, psi0, ts)
    ratio = dyn.rabi_frequency(traj2, "pop_1gg") / dyn.rabi_frequency(traj1, "pop_1g")
    assert ratio == pytest.approx(np.sqrt(2.0), rel=1e-3)


def test_rabi_frequency_too_few_extrema():
    lay, gen = _gen(1, (0.0,))
    psi0 = fs.basis_state(lay, 1, "g")
    traj = dyn.integrate(gen, psi0, np.linspace(0, 1.0, 50))
    with pytest.raises(dyn.TooFewExtremaError):
        dyn.rabi_frequency(traj, "pop_1g")  # constant series


def test_envelope_lifetime_matches_polariton_decay():
    kappa = ghz_to_angular(29.5653e-3)  # ~0.1858 rad/ns
    gamma = ghz_to_angular(6.0666e-3)
    lay, traj = _single_atom_run(kappa=kappa, gamma=gamma, t_end=40.0, n_points=8001)
    fit = dyn.envelope_lifetime(traj, "pop_0e")
    assert fit.n_maxima >= 10
    assert fit.tau_ns == pytest.approx(2.0 / (kappa + gamma), rel=0.05)


def test_envelope_lifetime_rejects_non_decaying():
    lay, traj = _single_atom_run(t_end=15 * np.pi / G, n_points=2001)
    with pytest.raises(dyn.NonDecayingEnvelopeError):
        dyn.envelope_lifetime(traj, "pop_0e")


def test_envelope_fit_recovers_pure_exponential():
    # maxima of exp(-t/5) * (1 - cos(w t))/2 sit on the exponential envelope
    ts = np.linspace(0.0, 30.0, 6001)
    tau = 5.0
    w = 2 * np.pi / 0.2
    series = np.exp(-ts / tau) * 0.5 * (1 - np.cos(w * ts))
    traj = dyn.Trajectory(
        layout=HilbertLayout(1, 1), times=ts, observables={"probe": series},
        column_order=["probe"],
    )
    fit = dyn.envelope_lifetime(traj, "probe")
    assert fit.tau_ns == pytest.approx(tau, rel=1e-3)


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("n_atoms", range(1, 7))
def test_population_labels_name_each_basis_index(n_atoms, n_max):
    # HilbertLayout holds at least one atom and one photon level above the vacuum
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    expected = ["pop_" + basis_label(lay, k).replace(",", "") for k in range(lay.dim)]
    assert dyn.population_labels(lay) == expected


def test_bare_populations_delta_state_and_sum():
    lay, gen = _gen(2, (G, 0.7 * G), kappa=0.19, gamma=0.04)
    psi0 = fs.basis_state(lay, 1, "gg")
    ts = np.linspace(0.0, 0.2, 501)
    traj = dyn.integrate(gen, psi0, ts)
    pops = {name: traj.series(name) for name in dyn.population_labels(lay)}
    assert pops["pop_1gg"][0] == pytest.approx(1.0, abs=1e-12)
    total = sum(pops.values())
    assert np.max(np.abs(total - 1.0)) < 1e-9
    for series in pops.values():
        assert np.all(series > -1e-8) and np.all(series < 1 + 1e-8)


def test_unequal_coupling_population_amplitude_ratio():
    # single-excitation closed form: amplitudes scale as g_i^2 / (g1^2+g2^2)
    alpha = 0.7
    lay, gen = _gen(2, (G, alpha * G))
    psi0 = fs.basis_state(lay, 1, "gg")
    omega = G * np.hypot(1, alpha)
    ts = np.linspace(0.0, 1.2 * np.pi / omega, 601)
    traj = dyn.integrate(gen, psi0, ts)
    p_eg = traj.series("pop_0eg")
    p_ge = traj.series("pop_0ge")
    assert np.max(p_ge) / np.max(p_eg) == pytest.approx(alpha**2, rel=1e-6)
    # in phase: peak positions coincide
    assert abs(np.argmax(p_ge) - np.argmax(p_eg)) <= 1


def test_propagator_is_exact():
    # a coarse grid over 3 periods still meets the sin^2 oracle to roundoff
    lay, traj = _single_atom_run(n_points=101)
    expected = np.sin(G * traj.times) ** 2
    assert np.max(np.abs(traj.series("pop_0e") - expected)) < 1e-12


def test_non_uniform_grid_is_rejected():
    # integrate takes one step per run: two joined uniform pieces, a stack
    # whose second grid is such a join, a grid holding inf or nan and a
    # decreasing grid are each refused, alone and inside a stack
    lay, gen = _gen(2, (G,))
    psi0 = fs.basis_state(lay, 1, "g")
    uniform = np.linspace(0.0, 2.0, 15)
    joined = np.concatenate([np.linspace(0.0, 1.0, 11), np.linspace(1.0, 2.0, 5)[1:]])
    with pytest.raises(ValueError, match="times must be uniform"):
        dyn.integrate(gen, psi0, joined)
    with pytest.raises(ValueError, match="times must be uniform"):
        dyn.integrate([gen] * 3, psi0, [uniform, joined, 2 * uniform])
    with pytest.raises(ValueError, match="times must be finite and strictly increasing"):
        dyn.integrate(gen, psi0, np.append(uniform[:-1], np.inf))
    with pytest.raises(ValueError, match="times must be finite and strictly increasing"):
        dyn.integrate([gen] * 2, psi0, [uniform, np.append(uniform[:-1], np.nan)])
    with pytest.raises(ValueError, match="times must be finite and strictly increasing"):
        dyn.integrate(gen, psi0, uniform[::-1])
    with pytest.raises(ValueError, match="times must be finite and strictly increasing"):
        dyn.integrate([gen] * 2, psi0, [uniform, uniform[::-1]])


def test_linspace_grids_are_uniform():
    # these linspaces' steps scatter by a few ulp of their span, well inside
    # 1e-12 of it; each run, alone or in a stack, keeps the caller's grid bit
    # for bit
    lay, gen = _gen(2, (G,))
    psi0 = fs.basis_state(lay, 1, "g")
    grids = [np.linspace(t0, t0 + span, 1001)
             for t0, span in ((0.0, 40.0), (3.7, 0.1), (0.0, 0.3))]
    trajs = dyn.integrate([gen] * 3, psi0, grids, track=())
    for grid, traj in zip(grids, trajs, strict=True):
        assert traj.times.tobytes() == grid.tobytes()
        assert dyn.integrate(gen, psi0, grid, track=()).times.tobytes() == grid.tobytes()


@pytest.mark.parametrize("lossless", [False, True])
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_expm_matches_scipy_on_scenario_generators(scenario, lossless, monkeypatch):
    # The generators integrate() exponentiates in each fixed run and the
    # first sweep point: -i H dt without loss; with it -i H_eff dt, then the
    # jump Gramian's block from one photon, or the Van Loan block from two.
    # Each call takes a stack, here of one run.
    generators = []

    def capture(m):
        assert m.ndim == 3 and len(m) == 1
        generators.extend(m)
        return expm(m)

    monkeypatch.setattr(dyn, "expm", capture)
    cfg = parse_config(f'scenario = "{scenario}"\nlossless = {str(lossless).lower()}\n')
    plan = SCENARIOS[scenario].plan(cfg)
    for run in itertools.islice(plan_runs(plan, cfg), len(plan.runs) + 1):
        runner.trajectory(cfg, run)
    monkeypatch.undo()
    assert generators
    for m in generators:
        assert np.allclose(m, -m.conj().T) == lossless  # -i H dt is anti-Hermitian
        ref = expm(m)
        assert np.linalg.norm(dyn.expm(m) - ref, 1) <= 1e-13 * np.linalg.norm(ref, 1)


def test_expm_of_a_jordan_block():
    # Defective, as H_eff is at an exceptional point: exp(t (-c I + N)) =
    # exp(-c t) sum_k (t N)^k / k! with N nilpotent.
    n, c, t = 6, 0.5 + 0.3j, 1.7
    nil = np.diag(np.ones(n - 1), 1)
    exact = np.exp(-c * t) * sum(
        np.linalg.matrix_power(t * nil, k) / math.factorial(k) for k in range(n)
    )
    a = t * (-c * np.eye(n) + nil)
    for ref in (exact, expm(a)):
        assert np.linalg.norm(dyn.expm(a) - ref, 1) <= 1e-13 * np.linalg.norm(ref, 1)


def test_expm_with_several_squarings():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    h = x + x.conj().T
    a = -1j * h * (40.0 / np.linalg.norm(h, 1))
    # 1-norm 40 > 4 theta_13: at least 3 squarings
    assert np.linalg.norm(a, 1) > 4 * dyn._THETA13
    w, v = np.linalg.eigh(h * (40.0 / np.linalg.norm(h, 1)))
    exact = (v * np.exp(-1j * w)) @ v.conj().T
    u = dyn.expm(a)
    for ref in (exact, expm(a)):
        assert np.linalg.norm(u - ref, 1) <= 1e-13 * np.linalg.norm(ref, 1)
    assert np.allclose(u @ u.conj().T, np.eye(12), atol=1e-13)


def test_expm_of_a_stack_equals_each_alone():
    # each matrix keeps its own scaling: 0, 1 and 4 squarings, and the zero matrix
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
    stack = np.concatenate([x * (norm / np.linalg.norm(x, 1, axis=(1, 2)))[:, None, None]
                            for norm in ([1.0, 9.0, 80.0],)] + [np.zeros((1, 6, 6))])
    assert [math.ceil(math.log2(np.linalg.norm(m, 1) / dyn._THETA13)) for m in stack[:3]] == [
        -2, 1, 4]
    out = dyn.expm(stack)
    for m, each in zip(stack, out, strict=True):
        assert each.tobytes() == dyn.expm(m).tobytes()
    assert np.abs(out[3] - np.eye(6)).max() <= 1e-15


def test_stack_needs_one_layout_and_its_channels():
    lay, gen = _gen(1, (G,), kappa=0.19)
    psi0, ts = fs.basis_state(lay, 1, "g"), np.linspace(0.0, 1.0, 5)
    lossless = _gen(1, (G,))[1]
    wider = _gen(2, (G,), kappa=0.19)[1]
    for other in (lossless, wider):
        with pytest.raises(ValueError, match="share one layout and its collapse channels"):
            dyn.integrate([gen, other], psi0, [ts, ts])
    with pytest.raises(ValueError, match="2 generators but 3 time grids"):
        dyn.integrate([gen, gen], psi0, [ts, ts, ts])
    with pytest.raises(ValueError, match="one non-empty grid per generator"):
        dyn.integrate([gen, gen], psi0, ts)
    with pytest.raises(ValueError, match="at least one generator"):
        dyn.integrate([], psi0, [ts])
    [alone] = dyn.integrate([gen], psi0, [ts])
    assert alone.series("pop_1g").tobytes() == dyn.integrate(gen, psi0, ts).series(
        "pop_1g").tobytes()


def test_one_propagator_per_distinct_step(monkeypatch):
    calls = []

    def counting_expm(m):
        calls.append(m.shape)
        return expm(m)

    monkeypatch.setattr(dyn, "expm", counting_expm)
    lay, gen = _gen(2, (G,), kappa=0.19)
    psi0 = fs.basis_state(lay, 1, "g")
    # 40 ns at 5 ps.  One photon keeps |0g>, |0e>, |1g> of the d = 6 space.
    # A run builds the 2 x 2 ket step on the top sector |0e>, |1g>, and the
    # jump Gramian's block [[-A^dag, Gamma], [0, A]] on it: 4 x 4, each in a
    # stack of one run.
    ts = np.linspace(0.0, 40.0, 8001)
    dyn.integrate(gen, psi0, ts, track=())
    assert calls == [(1, 2, 2), (1, 4, 4)]
    # a stack of three runs, each with its own step, builds them in one call
    calls.clear()
    dyn.integrate([gen] * 3, psi0, [ts, 2 * ts, 3 * ts], track=())
    assert calls == [(3, 2, 2), (3, 4, 4)]


def test_lossless_run_never_builds_the_liouvillian(monkeypatch):
    def forbidden(gen, keep=None):
        raise AssertionError("liouvillian_matrix called on a lossless run")

    monkeypatch.setattr(dyn, "liouvillian_matrix", forbidden)
    lay, traj = _single_atom_run(n_points=51)
    assert traj.series("pop_0e")[-1] == pytest.approx(
        np.sin(G * traj.times[-1]) ** 2, abs=1e-12
    )
    # nor does a lossy one from one photon, whose x is the population of
    # |0g>; from two photons x is propagated on the three states below
    _single_atom_run(kappa=0.19, n_points=51)
    lay, gen = _gen(2, (G,), kappa=0.19)
    with pytest.raises(AssertionError):
        dyn.integrate(gen, fs.basis_state(lay, 2, "g"), np.linspace(0.0, 0.1, 51))


def test_lossy_run_builds_the_liouvillian_below_the_start_sector_only(monkeypatch):
    keeps = []

    def recording(gen, keep=None):
        keeps.append(keep)
        return model.liouvillian_matrix(gen, keep)

    monkeypatch.setattr(dyn, "liouvillian_matrix", recording)
    # two photons, two atoms: sector 2 is propagated as a ket, and the
    # Liouvillian is built on the 4 states with at most one excitation
    lay, gen = _gen(3, (G, 0.6 * G), kappa=0.19, gamma=0.04)
    dyn.integrate(gen, fs.basis_state(lay, 2, "gg"), np.linspace(0.0, 0.1, 11))
    below = [lay.basis_index(0, "gg"), lay.basis_index(0, "ge"),
             lay.basis_index(0, "eg"), lay.basis_index(1, "gg")]
    assert len(keeps) == 1 and keeps[0].tolist() == sorted(below)


def _assert_matches_dense_reference(gen, psi0, ts, n_exc, projections=None, stride=1,
                                    track=("populations", "n_photon", "entropies",
                                           "concurrence")):
    """Propagate |psi0><psi0| on all d states by expm of the full-space
    Liouvillian, one step at a time, and check the state, rebuilt from
    tomography projections, and every tracked observable and projection of
    integrate's run (every stride-th output) within 1e-12."""
    lay = gen.layout
    projections = {**(projections or {}), **tomography_kets(lay, n_exc)}
    traj = dyn.integrate(gen, psi0, ts, track=track, projections=projections)
    liou = model.liouvillian_matrix(gen)
    steps = {dt: expm(liou * dt) for dt in set(np.diff(ts).tolist())}
    vec = dense(lay, psi0)
    state = np.outer(vec, vec.conj()).reshape(-1)
    states = [state]
    for k in range(1, ts.size):
        state = steps[ts[k] - ts[k - 1]] @ state
        if k % stride == 0:
            states.append(state)
    states = np.array(states).reshape(-1, lay.dim, lay.dim)
    assert np.max(np.abs(tomography_states(traj, n_exc)[::stride] - states)) < 1e-12

    pops = np.real(np.diagonal(states, axis1=1, axis2=2))
    expected = {name: pops[:, k] for k, name in enumerate(dyn.population_labels(lay))}
    expected["n_photon"] = pops @ fs.factor_index(lay, np.arange(lay.dim), (0,))
    for f in range(lay.n_atoms + 1) if "entropies" in track else ():
        reduced = ent.partial_trace(states, lay, (f,))
        expected[f"S_{dyn.subsystem_letter(f)}"] = ent.entropy_normalized(
            reduced, dyn.sector_norm_dim(lay, (f,), n_exc)
        )
    for i, j in itertools.combinations(range(1, lay.n_atoms + 1), 2):
        reduced = ent.partial_trace(states, lay, (i, j))
        name = f"C_{dyn.subsystem_letter(i)}{dyn.subsystem_letter(j)}"
        expected[name] = ent.concurrence(reduced)
    for name, ket in projections.items():
        vec = dense(lay, ket)
        expected[name] = np.real(vec.conj() @ states @ vec)
    assert sorted(expected) == sorted(traj.column_order)
    for name, values in expected.items():
        assert np.max(np.abs(traj.series(name)[::stride] - values)) < 1e-12, name


def test_lossy_three_atoms_match_dense_full_space_reference(rng):
    # a random start with two excitations: integrate keeps the 12 of the
    # d = 24 states with at most two, the reference propagates all of them
    lay = HilbertLayout(n_max=2, n_atoms=3)
    p = SystemParams(detuning=0.2 * G, kappa=4.0, gamma=1.5, couplings=(G, 0.6 * G, 1.3 * G))
    gen = model.build_generator(lay, p)
    _, chi1 = analytic.single_excitation_states(lay, p.couplings)
    _assert_matches_dense_reference(gen, random_sector_ket(lay, rng, 2),
                                    np.linspace(0.0, 0.4, 41), 2, {"P_chi1": chi1})


def test_exceptional_point_matches_dense_full_space_reference():
    # kappa - gamma = 4 g exactly: H_eff on |0e>, |1g> is defective, its two
    # eigenvalues -(kappa + gamma) / 4 merge, and P(|0e>) decays as
    # (g t)^2 exp(-(kappa + gamma) t / 2) with no oscillation
    g = 2.0
    lay, gen = _gen(2, (g,), kappa=8.5, gamma=0.5)
    assert gen.params.kappa - gen.params.gamma == 4 * g
    ts = np.linspace(0.0, 3.0, 301)
    _assert_matches_dense_reference(gen, fs.basis_state(lay, 1, "g"), ts, 1)
    traj = dyn.integrate(gen, fs.basis_state(lay, 1, "g"), ts)
    assert np.max(np.abs(traj.series("pop_0e") - (g * ts) ** 2 * np.exp(-4.5 * ts))) < 1e-12


def test_lossy_two_photons_two_atoms_match_dense_full_space_reference(rng):
    # sector 2 is a ket on |0ee>, |1eg>, |1ge>, |2gg>; x is the Van Loan
    # block's 4 x 4 density on the states below, fed from it
    lay, gen = _gen(3, (G, 0.6 * G), kappa=3.0, gamma=1.2, detuning=0.3 * G)
    chis = analytic.two_photon_states(lay, G, 0.6 * G)
    _assert_matches_dense_reference(
        gen, random_sector_ket(lay, rng, 2), np.linspace(0.0, 0.5, 201), 2,
        {f"P_chi{k}": chi for k, chi in enumerate(chis)})


def test_long_lossy_grid_matches_dense_full_space_reference():
    # 8001 outputs on one uniform grid: the kets double up to
    # K^4096, and x's scan takes 13 passes.  The state stays within 1e-12
    # (9e-13 measured; one ulp of K over 8000 steps is 9e-13 too).  The
    # entropies are not compared: -p ln p magnifies that error without bound
    # as p -> 0 at each node of the exchange (1.3e-12 measured).
    lay, gen = _gen(2, (G,), kappa=0.19, gamma=0.04)
    _assert_matches_dense_reference(gen, fs.basis_state(lay, 1, "g"),
                                    np.linspace(0.0, 40.0, 8001), 1, stride=7,
                                    track=("populations", "n_photon"))


_RATE = st.one_of(st.just(0.0), st.floats(0.05, 10.0))


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
@pytest.mark.parametrize("n_exc", [1, 2])
@pytest.mark.parametrize("n_atoms", [1, 2, 3])
@settings(max_examples=5, deadline=None)
@given(couplings=st.tuples(*[st.floats(0.0, 1.5)] * 3),
       rates=st.tuples(_RATE, _RATE).filter(any), detuning=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2**32 - 1))
# two corners, run in every shape: atomic decay alone with atom 1
# uncoupled, and photon loss alone (no loss at all in a lossless shape)
@example(couplings=(0.0, 1.2, 0.4), rates=(0.0, 2.5), detuning=-1.0, seed=7)
@example(couplings=(0.8, 1.4, 0.0), rates=(6.0, 0.0), detuning=1.5, seed=3)
def test_random_systems_match_dense_full_space_reference(n_atoms, n_exc, lossy, couplings,
                                                         rates, detuning, seed):
    # each shape of up to three atoms, sector 1 or 2, with or without loss:
    # random couplings (in units of G) of the first n_atoms, loss rates
    # (kappa, gamma) of which one may be 0, a detuning and a random ket in
    # the sector, over 9 outputs 1/64 ns apart: every step is the same
    # float, so the reference takes one expm of its d^2 x d^2 Liouvillian
    lay = HilbertLayout(n_max=n_exc, n_atoms=n_atoms)
    kappa, gamma = (rate * lossy for rate in rates)
    p = SystemParams(detuning=detuning * G, kappa=kappa, gamma=gamma,
                     couplings=tuple(g * G for g in couplings[:n_atoms]))
    psi0 = random_sector_ket(lay, np.random.default_rng(seed), n_exc)
    _assert_matches_dense_reference(model.build_generator(lay, p), psi0,
                                    np.arange(9) / 64.0, n_exc)


def _binary_entropy(p0, p1):
    """-(p0 log2 p0 + p1 log2 p1), 0 log 0 = 0: a one-photon factor's
    normalized entropy, from the populations of its two levels."""
    return -sum(np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0) for p in (p0, p1))


@pytest.mark.parametrize("n_atoms", [1, 2, 4, 8])
def test_one_photon_x_matches_the_van_loan_block(n_atoms, rng):
    # a stack of three lossy sweep points from |1, g..g>, with random loss
    # rates (shared, as a stack's channels are), random couplings and a
    # detuning of 0, 5 and 10 GHz: integrate steps p_G by the jump Gramian,
    # the reference propagates it through the Van Loan block of 1 + (N +
    # 1)^2 rows.  Every column follows from psi and p_G: pop_1g.. =
    # n_photon = |psi_1|^2, pop_0..e_i.. = |psi_i|^2, each factor's entropy
    # from its two marginals (p_G among them), and C_ij = 2 |psi_i psi_j|
    lay = HilbertLayout(n_max=1, n_atoms=n_atoms)
    kappa, gamma = rng.uniform(0.5, 8.0), rng.uniform(0.2, 4.0)
    gens = [model.build_generator(lay, SystemParams(
        detuning=ghz_to_angular(delta), kappa=kappa, gamma=gamma,
        couplings=tuple(G * rng.uniform(0.2, 1.5, n_atoms)))) for delta in (0.0, 5.0, 10.0)]
    psi0 = fs.basis_state(lay, 1, "g" * n_atoms)
    grids = [np.linspace(0.0, t_end, 401) for t_end in (0.5, 0.8, 1.0)]
    trajs = dyn.integrate(gens, psi0, grids, track=dyn.TRACKABLE)
    psi, ground = van_loan_one_photon(gens, psi0, grids)
    # the top sector in basis order: |0, e_N> .. |0, e_1>, then |1, g..g>
    photons, atoms = np.abs(psi[..., -1]) ** 2, np.abs(psi[..., -2::-1]) ** 2
    for traj, photon, atom, p_g in zip(trajs, photons, atoms, ground, strict=True):
        labels = ["g" * i + "e" + "g" * (n_atoms - 1 - i) for i in range(n_atoms)]
        expected = {"pop_1" + "g" * n_atoms: photon, "n_photon": photon,
                    "pop_0" + "g" * n_atoms: p_g,
                    "S_A": _binary_entropy(atom.sum(axis=1) + p_g, photon)}
        for i, label in enumerate(labels):
            expected[f"pop_0{label}"] = atom[:, i]
            expected[f"S_{dyn.subsystem_letter(i + 1)}"] = _binary_entropy(
                photon + atom.sum(axis=1) - atom[:, i] + p_g, atom[:, i])
        for i, j in itertools.combinations(range(n_atoms), 2):
            name = f"C_{dyn.subsystem_letter(i + 1)}{dyn.subsystem_letter(j + 1)}"
            expected[name] = 2.0 * np.sqrt(atom[:, i] * atom[:, j])
        assert set(expected) <= set(traj.column_order)
        for name in traj.column_order:
            assert np.max(np.abs(traj.series(name) - expected.get(name, 0.0))) <= 1e-12, name


@pytest.mark.parametrize("n_atoms", [1, 4, 50])
def test_one_photon_equal_couplings_follow_the_bright_mode(n_atoms):
    # equal couplings g and one gamma: psi = a |1, g..g> + b |0, W> with
    # i d/dt (a, b) = [[-i kappa / 2, g sqrt(N)], [g sqrt(N), Delta - i
    # gamma / 2]] (a, b) in the frame of |1, g..g>, so n_photon = |a|^2 and
    # the population of |0, g..g> is 1 - |a|^2 - |b|^2.  It is read by a
    # projection: N = 50 has no population columns.  Resonant and detuned
    # by 4 GHz, in one stack
    kappa, gamma = 3.0, 1.0
    lay = HilbertLayout(n_max=1, n_atoms=n_atoms)
    ground = "g" * n_atoms
    gens = [model.build_generator(lay, SystemParams(
        detuning=ghz_to_angular(delta), kappa=kappa, gamma=gamma, couplings=(G,) * n_atoms))
        for delta in (0.0, 4.0)]
    ts = np.linspace(0.0, 0.3, 601)
    trajs = dyn.integrate(gens, fs.basis_state(lay, 1, ground), [ts, ts], track=("n_photon",),
                          projections={"P_G": fs.basis_state(lay, 0, ground)})
    for traj, gen in zip(trajs, gens, strict=True):
        bright = G * np.sqrt(n_atoms)
        h = np.array([[-0.5j * kappa, bright], [bright, gen.params.detuning - 0.5j * gamma]])
        a, b = np.abs(np.array([expm(-1j * h * t)[:, 0] for t in ts]).T) ** 2
        assert np.max(np.abs(traj.series("n_photon") - a)) <= 1e-12
        assert np.max(np.abs(traj.series("P_G") - (1.0 - a - b))) <= 1e-12


def _superposition(lay, *states) -> dict:
    """The equal superposition of the basis states (n_photons, pattern)."""
    return sparse(sum(dense(lay, fs.basis_state(lay, *s)) for s in states) / np.sqrt(len(states)))


def test_rho0_with_coherence_between_excitation_sectors_is_rejected():
    lay, gen = _gen(2, (G,))
    ts = np.linspace(0.0, 0.1, 11)
    across = _superposition(lay, (0, "g"), (1, "g"))
    with pytest.raises(ValueError, match="excitation"):
        dyn.integrate(gen, across, ts)
    # coherence inside one sector (|0e> and |1g> both hold one excitation)
    within = _superposition(lay, (0, "e"), (1, "g"))
    traj = dyn.integrate(gen, within, ts)
    assert np.max(np.abs(traj.series("pop_0g"))) == 0.0
    # a zero amplitude in another sector is no amplitude, as a dense ket's zeros
    traj = dyn.integrate(gen, {**within, lay.basis_index(2, "e"): 0.0}, ts)
    assert np.max(np.abs(traj.series("pop_0g"))) == 0.0


def test_rho0_is_validated_on_its_kept_block():
    # integrate checks the initial ket's indices, its sector and its norm,
    # and each projection's indices
    lay, gen = _gen(2, (G,))
    ts = np.linspace(0.0, 0.1, 11)
    with pytest.raises(ValueError, match=r"^psi0 has squared norm 0\.0, not 1 within 1e-09$"):
        dyn.integrate(gen, {}, ts)
    with pytest.raises(ValueError, match="squared norm 1.21"):
        dyn.integrate(gen, {lay.basis_index(0, "e"): 1.1}, ts)
    for index in (-1, lay.dim):
        with pytest.raises(ValueError, match=r"^psi0 has a basis index outside 0\.\.5$"):
            dyn.integrate(gen, {index: 1.0}, ts)
        with pytest.raises(ValueError, match=r"^P_out has a basis index outside 0\.\.5$"):
            dyn.integrate(gen, fs.basis_state(lay, 1, "g"), ts, projections={
                "P_in": fs.basis_state(lay, 0, "e"), "P_out": {index: 1.0}})
    spanning = _superposition(lay, (0, "e"), (2, "e"))
    with pytest.raises(ValueError, match="excitation sectors"):
        dyn.integrate(gen, spanning, ts)


def test_integrate_allocates_nothing_of_length_d():
    # lossless N = 16 from one photon: d = 196 608 states, of which 17 are
    # propagated.  The kets are their few amplitudes, psi0's sector is read
    # off them and the kept states are listed, not scanned: a scan of d
    # excitation numbers traced 32 B per state, the enumeration under 1.
    # At N = 50, d = 3 * 2^50 and 52 states are propagated (445 kB traced).
    for n_atoms in (16, 50):
        lay, gen = _gen(2, (G,) * n_atoms)
        tracemalloc.start()
        try:
            psi0 = fs.basis_state(lay, 1, "g" * n_atoms)
            chi0, chi1 = analytic.single_excitation_states(lay, (G,) * n_atoms)
            dyn.integrate(gen, psi0, np.linspace(0.0, 0.01, 3), track=("n_photon", "entropies"),
                          projections={"P_chi0": chi0, "P_chi1": chi1})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < min(4 * lay.dim, 1e6), n_atoms
    # with populations, N = 13 and 1001 outputs: d = 24576 column names
    # (about 85 B each), but arrays only for the 14 propagated states, so
    # the peak per state does not grow with the outputs; an array for every
    # column traced 8 B per output and state
    lay, gen = _gen(2, (G,) * 13)
    tracemalloc.start()
    try:
        traj = dyn.integrate(gen, fs.basis_state(lay, 1, "g" * 13), np.linspace(0.0, 0.01, 1001),
                             track=("populations",))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.column_order) == lay.dim and len(traj.observables) == 14
    assert peak < 128 * lay.dim
    # a listed column that is not held reads 0; a name not listed is an error
    assert traj.series("pop_2" + "g" * 13).tolist() == [0.0] * 1001
    with pytest.raises(KeyError, match="n_photon"):
        traj.series("n_photon")


def test_columns_past_atom_25_are_named_by_the_characters_after_z():
    # subsystem_letter is chr(ord("A") + factor): from atom 26 on, the names
    # run on through ASCII, [ \ ] ^ _ ` a..z { | }, and end at ~ at N = 61
    lay, gen = _gen(2, (G,) * 30)
    traj = dyn.integrate(gen, fs.basis_state(lay, 1, "g" * 30), np.linspace(0.0, 0.01, 3),
                         track=("entropies", "concurrence"))
    assert traj.column_order == dyn.tracked_columns(lay, ("entropies", "concurrence"))
    entropies, pairs = traj.column_order[:31], traj.column_order[31:]
    assert entropies == [f"S_{c}" for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_"]
    assert len(pairs) == 435 and "C_W\\" in pairs and (pairs[0], pairs[-1]) == ("C_BC", "C_^_")
    assert dyn.subsystem_letter(61) == "~"


def test_entropy_and_pair_columns_take_the_names_of_tracked_columns(monkeypatch):
    # the naming rule lives in tracked_columns alone: renamed there, each
    # entropy and concurrence column is recorded under its new name with the
    # same values
    lay, gen = _gen(2, (G, 0.7 * G, 1.3 * G), kappa=0.3, gamma=0.1)
    psi0, times = fs.basis_state(lay, 1, "ggg"), np.linspace(0.0, 0.05, 11)
    track = ("n_photon", "entropies", "concurrence")
    plain = dyn.integrate(gen, psi0, times, track=track)
    real = dyn.tracked_columns
    monkeypatch.setattr(dyn, "tracked_columns", lambda layout, track: [
        name if name == "n_photon" else f"renamed_{name}" for name in real(layout, track)])
    renamed = dyn.integrate(gen, psi0, times, track=track)
    assert renamed.column_order == ["n_photon"] + [f"renamed_{name}"
                                                   for name in plain.column_order[1:]]
    for name in plain.column_order:
        new = name if name == "n_photon" else f"renamed_{name}"
        assert renamed.series(new).tobytes() == plain.series(name).tobytes()


@pytest.mark.parametrize("kappa", [0.0, 0.3])
def test_integrate_allocates_no_full_space_array(kappa):
    # d = 1024, of which 11 states are propagated: nothing may be of size
    # d^2, not an operator and not the initial state
    lay, gen = _gen(1, (G,) * 9, kappa=kappa, gamma=0.1)
    psi0 = fs.basis_state(lay, 1, "g" * 9)
    tracemalloc.start()
    try:
        dyn.integrate(gen, psi0, np.linspace(0.0, 0.01, 3), track=("n_photon",))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 16 * lay.dim**2


def test_closed_system_conserves_excitation_number():
    lay, gen = _gen(2, (G, 0.6 * G))
    n_ex = np.diag(excitations(lay))
    psi0 = fs.basis_state(lay, 1, "gg")
    ts = np.linspace(0.0, 0.5, 201)
    _, states = integrate_states(gen, psi0, ts)
    values = [np.trace(n_ex @ s).real for s in states[::10]]
    assert np.max(np.abs(np.array(values) - values[0])) < 1e-8


def test_snapshots_remain_valid_states():
    # the states rebuilt from projections; x's Hermiticity, which no
    # projection shows, is gated inside integrate
    lay, gen = _gen(2, (G,), kappa=0.19, gamma=0.04)
    _, states = integrate_states(gen, fs.basis_state(lay, 1, "g"), np.linspace(0.0, 2.0, 801))
    for rho in states[:: max(1, len(states) // 50)]:
        validate_density_matrix(rho, trace_tol=1e-9, herm_tol=1e-10, positivity_tol=1e-8)


def test_projection_observables():
    lay, gen = _gen(2, (G, G))
    chi0, chi1 = analytic.single_excitation_states(lay, (G, G))
    psi0 = chi0
    ts = np.linspace(0.0, np.pi / (np.sqrt(2) * G), 201)
    traj = dyn.integrate(gen, psi0, ts, projections={"P_chi1": chi1})
    expected = np.sin(np.sqrt(2) * G * ts) ** 2
    assert np.max(np.abs(traj.series("P_chi1") - expected)) < 1e-6


def test_sector_norm_dims():
    lay = HilbertLayout(n_max=2, n_atoms=2)
    assert dyn.sector_norm_dim(lay, (0,), 1) == 2   # photon, single excitation
    assert dyn.sector_norm_dim(lay, (1,), 1) == 2   # one atom
    assert dyn.sector_norm_dim(lay, (0,), 2) == 3   # photon, two excitations
    assert dyn.sector_norm_dim(lay, (1, 2), 1) == 2
    lay3 = HilbertLayout(n_max=2, n_atoms=3)
    assert dyn.sector_norm_dim(lay3, (1, 2, 3), 1) == 2


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_sector_norm_dim_matches_reduced_projector_rank(n_max, n_atoms):
    # oracle: reduce the projector onto the basis states with at most n_exc
    # excitations to each side of the cut; the rank of that reduced state
    # counts the states the side takes in the sector (1 for an empty side)
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    factors = range(n_atoms + 1)
    exc = excitations(lay)
    for n_exc in range(4):
        proj = np.diag((exc <= n_exc).astype(complex))[None]
        for k in range(1, n_atoms + 2):
            for keep in itertools.combinations(factors, k):
                rest = tuple(p for p in factors if p not in keep)
                ranks = [
                    np.linalg.matrix_rank(ent.partial_trace(proj, lay, side)[0])
                    if side else 1
                    for side in (keep, rest)
                ]
                assert dyn.sector_norm_dim(lay, keep, n_exc) == max(2, min(ranks)), (
                    keep, n_exc)


def test_count_extrema():
    ts = np.linspace(0, 4 * np.pi, 400)
    assert dyn.count_extrema(np.sin(ts)) == 4
    assert dyn.count_extrema(np.ones_like(ts)) == 0


def test_csv_export_deterministic_and_schema():
    lay, traj = _single_atom_run(n_points=41)
    text1 = trajectory_csv_text(traj)
    lay, traj2 = _single_atom_run(n_points=41)
    assert text1 == trajectory_csv_text(traj2)
    lines = text1.splitlines()
    assert lines[0] == f"# schema: {dyn.TRAJECTORY_SCHEMA}"
    header = lines[1].split(",")
    assert header[0] == "time_ns"
    # populations in basis-index order, then n_photon
    assert header[1:7] == ["pop_0g", "pop_0e", "pop_1g", "pop_1e", "pop_2g", "pop_2e"]
    assert header[7] == "n_photon"
    assert len(lines) == 2 + 41


def test_observable_column_order_with_entropies_and_concurrence():
    lay, gen = _gen(2, (G, G))
    psi0 = fs.basis_state(lay, 1, "gg")
    ts = np.linspace(0.0, 0.05, 21)
    traj = dyn.integrate(
        gen, psi0, ts,
        track=("populations", "n_photon", "entropies", "concurrence"),
        projections={"P_extra": fs.basis_state(lay, 0, "gg")},
    )
    cols = traj.column_order
    assert cols[-5:] == ["S_A", "S_B", "S_C", "C_BC", "P_extra"]


def test_validate_density_matrix_rejects_bad_inputs():
    good = np.diag([0.5, 0.5]).astype(complex)
    validate_density_matrix(good)
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([0.6, 0.6]))
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.5, -0.5]))


def test_integrate_allocates_by_its_allocation_plan(monkeypatch):
    # two atoms from two photons, a stack of two: d_n = 4 and d_l = 4, so x
    # has 16 entries and the Van Loan block 16 + 16 rows.  integrate asks
    # for one plan, and expm's two inputs, the ket step's generator and the
    # block, have its shapes
    lay, gen = _gen(3, (G, 0.6 * G), kappa=0.19, gamma=0.04)
    plans, inputs = [], []
    plan, exact = dyn.allocations, dyn.expm
    monkeypatch.setattr(dyn, "allocations", lambda *args: plans.append(plan(*args)) or plans[-1])
    monkeypatch.setattr(dyn, "expm", lambda a: inputs.append(a.shape) or exact(a))
    dyn.integrate([gen, gen], fs.basis_state(lay, 2, "gg"), [np.linspace(0.0, 0.1, 11)] * 2)
    (arrays,) = plans
    assert (arrays["psi"].shape, arrays["x"].shape) == ((2, 11, 4), (2, 11, 16))
    assert inputs == [arrays["ket_step"].shape, arrays["van_loan"].shape]
    assert inputs == [(2, 4, 4), (2, 32, 32)]
    # from one photon: d_n = 3 (|0ge>, |0eg>, |1gg>), x is the population
    # of |0gg>, the block is the jump Gramian's of 3 + 3 rows, and no feed
    # is built
    plans.clear(), inputs.clear()
    dyn.integrate([gen, gen], fs.basis_state(lay, 1, "gg"), [np.linspace(0.0, 0.1, 11)] * 2)
    (arrays,) = plans
    assert (arrays["psi"].shape, arrays["x"].shape) == ((2, 11, 3), (2, 11, 1))
    assert inputs == [arrays["ket_step"].shape, arrays["van_loan"].shape]
    assert inputs == [(2, 3, 3), (2, 6, 6)]
    assert arrays["feed"].copies == 0


def test_chunk_holds_about_one_mebibyte():
    assert dyn.chunk_states(12) == 2**20 // (16 * 144)
    assert dyn.chunk_states(4096) == 1


def _two_atom_observables_run(extra_projections=None, runs=((0.6, 0.3),)):
    """The run at couplings (G, r G) over 62 outputs up to t_end for each
    (r, t_end) of runs: one trajectory for one run, else the list of a
    stack."""
    gens = [_gen(2, (G, r * G), kappa=0.19, gamma=0.04)[1] for r, _ in runs]
    grids = [np.linspace(0.0, t_end, 62) for _, t_end in runs]
    lay = gens[0].layout
    chi0, chi1 = analytic.single_excitation_states(lay, (G, 0.6 * G))
    psi0 = fs.basis_state(lay, 1, "gg")
    return dyn.integrate(
        gens[0] if len(runs) == 1 else gens, psi0, grids[0] if len(runs) == 1 else grids,
        track=("populations", "n_photon", "entropies", "concurrence"),
        projections={"P_chi0": chi0, "P_chi1": chi1, **(extra_projections or {})},
    )


@pytest.mark.parametrize("runs", [((0.6, 0.3),), ((0.6, 0.3), (0.0, 0.2), (1.4, 0.45))],
                         ids=["one_run", "stack"])
def test_chunked_run_equals_one_chunk(runs, monkeypatch):
    # the tomography columns fix the state, so equal columns mean equal states
    tomography = tomography_kets(HilbertLayout(n_max=2, n_atoms=2), 1)
    # each run alone, in one chunk
    one = [_two_atom_observables_run(tomography, (run,)) for run in runs]
    # one photon from |1gg>: the chunk holds 3 x 3 outer products of kets on
    # |0ge>, |0eg>, |1gg> of the d = 12 space
    assert dyn.chunk_states(3) >= 62  # the reference fits one chunk
    # 7 output times per chunk: 62 outputs span 9 chunks, the last one
    # partial; a stack's 186 outputs span 27, some across two runs
    monkeypatch.setattr(dyn, "CHUNK_BYTES", 7 * 16 * 3 * 3)
    assert dyn.chunk_states(3) == 7
    many = _two_atom_observables_run(tomography, runs)
    many = [many] if len(runs) == 1 else many
    for alone, chunked in zip(one, many, strict=True):
        assert chunked.column_order == alone.column_order
        assert chunked.times.tobytes() == alone.times.tobytes()
        for name in alone.column_order:  # bytes, so -0.0 differs from 0.0
            assert chunked.series(name).tobytes() == alone.series(name).tobytes(), name


def test_trace_gate_names_first_time_in_a_later_chunk(monkeypatch):
    # with eps = 8e-11 the trace deviation of _leaky_run, 2 eps (1 -
    # e^(-0.095 k)) / (1 - e^-0.095), first exceeds TRACE_TOL at k = 9:
    # 9.398e-10 at t = 8 ns, 1.015e-9 at t = 9 ns
    run = _leaky_run(monkeypatch, 1.0 + 8e-11)
    ts = np.linspace(0.0, 50.0, 51)
    with pytest.raises(dyn.IntegrationError) as one:
        run(ts)
    assert str(one.value) == "trace deviation 1.015e-09 at t=9 ns exceeds tolerance 1e-09"
    # 5 output times per chunk: t = 9 ns is the last of the second chunk
    # (the chunk is sized by 2 x 2 outer products of kets on |0e>, |1g>)
    monkeypatch.setattr(dyn, "CHUNK_BYTES", 5 * 16 * 2**2)
    assert dyn.chunk_states(2) == 5
    with pytest.raises(dyn.IntegrationError) as chunked:
        run(ts)
    assert str(chunked.value) == str(one.value)


def test_hermiticity_gate_names_first_time(monkeypatch):
    # two photons: x on |0g>, |0e>, |1g> below the sector of |1e>, |2g>
    # (from one photon x is the real population of |0g>)
    assert dyn.HERM_TOL == 1e-10
    lay, gen = _gen(2, (G,), kappa=0.19)
    psi0, ts = fs.basis_state(lay, 2, "g"), np.linspace(0.0, 50.0, 51)
    skew_x(monkeypatch, 13, 1e-10)
    with pytest.raises(dyn.IntegrationError) as one:
        dyn.integrate(gen, psi0, ts)
    assert str(one.value) == (
        "Hermiticity deviation 2.000e-10 of x at t=13 ns exceeds tolerance 1e-10")
    # 5 output times per chunk: t = 13 ns is the fourth of the third chunk
    monkeypatch.setattr(dyn, "CHUNK_BYTES", 5 * 16 * 2**2)
    with pytest.raises(dyn.IntegrationError) as chunked:
        dyn.integrate(gen, psi0, ts)
    assert str(chunked.value) == str(one.value)
    # a deviation below HERM_TOL passes
    monkeypatch.undo()
    skew_x(monkeypatch, 13, 4e-11)
    dyn.integrate(gen, psi0, ts)


def _csv_cases() -> list:
    """Trajectories whose CSVs test the writer's pieces and blocks."""
    traj = _two_atom_observables_run()
    # the populations above one excitation are not held: they read +0.0
    # throughout and are written as a constant.  Added columns are held and
    # converted: one of +0.0, one of -0.0, whose repr is "-0.0", and one with
    # a single -0.0 cell
    assert "pop_2gg" not in traj.observables
    assert not np.any(traj.series("pop_2gg")) and not np.any(np.signbit(traj.series("pop_2gg")))
    one_negative = np.zeros(62)
    one_negative[40] = -0.0
    # n_photon == pop_1gg bit for bit, so they share their text; a copy that
    # differs in rows 12..14 only shares it in the other blocks of 5 rows,
    # and those that differ from pop_0ge in the sign of its zero cell, or from
    # pop_0eg in the last bit of one cell, never
    assert traj.series("n_photon").tobytes() == traj.series("pop_1gg").tobytes()
    partly_equal = traj.series("n_photon").copy()
    partly_equal[12:15] += 0.25
    assert traj.series("pop_0ge")[0] == 0.0 and not np.signbit(traj.series("pop_0ge")[0])
    signed_zero = traj.series("pop_0ge").copy()
    signed_zero[0] = -0.0
    one_ulp = traj.series("pop_0eg").copy()
    one_ulp[30] = np.nextafter(one_ulp[30], 1.0)
    for name, values in (("zeros", np.zeros(62)), ("negative_zeros", np.full(62, -0.0)),
                         ("one_negative_zero", one_negative), ("partly_equal", partly_equal),
                         ("signed_zero", signed_zero), ("one_ulp", one_ulp)):
        traj.observables[name] = values
        traj.column_order.append(name)
    cases = [traj]
    # runs of all-zero columns right after time_ns, in the middle and at the
    # end; one row (at t = 0, so time_ns is all zero too), and one and two
    # blocks of 5 rows, the second of one row
    rng = np.random.default_rng(7)
    for rows in (1, 5, 6):
        values = rng.random(rows)
        columns = {"z1": np.zeros(rows), "z2": np.zeros(rows), "a": values,
                   "z3": np.zeros(rows), "z4": np.zeros(rows), "z5": np.zeros(rows),
                   "b": values.copy(), "c": -values, "z6": np.zeros(rows), "z7": np.zeros(rows)}
        cases.append(dyn.Trajectory(layout=traj.layout, times=np.linspace(0.0, 0.4, rows),
                                    observables=columns, column_order=list(columns)))
    return cases


def test_csv_matches_per_cell_reference(monkeypatch):
    cases = _csv_cases()
    lines = trajectory_csv_text(cases[0]).splitlines()
    assert lines[2].endswith(",0.0,-0.0,0.0,1.0,-0.0,0.0")
    assert lines[42].split(",")[-6:-3] == ["0.0", "-0.0", "-0.0"]
    one_row = trajectory_csv_text(cases[1]).splitlines()[2]
    assert one_row.startswith("0.0,0.0,0.0,") and one_row.endswith(",0.0,0.0")
    for block_rows in (dyn.CSV_BLOCK_ROWS, 5):  # 62 rows: one block, or 13 of 5
        monkeypatch.setattr(dyn, "CSV_BLOCK_ROWS", block_rows)
        for traj in cases:
            assert trajectory_csv_text(traj) == per_cell_csv(traj)


def test_a_file_cut_at_a_block_edge_is_its_head_and_its_tail(monkeypatch):
    # fig2's `short` from one photon, 1001 rows: n_photon has pop_1g's bytes,
    # so its text is reused, in a piece as in the whole file.  At 64 rows a
    # block, the rows before each block edge (after the schema line and the
    # header) and the rows from it on are the whole file
    cfg = parse_config('scenario = "fig2_single_atom"\nt_end_ns = 0.05\n')
    traj = runner.trajectory(cfg, SCENARIOS[cfg.scenario].plan(cfg).runs[0])
    assert traj.times.size == 1001
    assert traj.series("n_photon").tobytes() == traj.series("pop_1g").tobytes()
    monkeypatch.setattr(dyn, "CSV_BLOCK_ROWS", 64)
    whole = trajectory_csv_text(traj)
    for edge in range(64, traj.times.size, 64):
        head, tail = io.StringIO(), io.StringIO()
        dyn.write_trajectory_csv(traj, head, 0, edge)
        dyn.write_trajectory_csv(traj, tail, edge)
        assert len(tail.getvalue().splitlines()) == traj.times.size - edge
        assert head.getvalue() + tail.getvalue() == whole
