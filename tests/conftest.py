"""Shared helpers: independent brute-force oracles and random-state factories.

The oracles here deliberately re-derive results through a different route
than the package (explicit Kronecker chains, index-loop partial traces,
sqrtm-based concurrence, the master equation's right-hand side written
out) so agreement is meaningful.  The density-matrix helpers live here
because only tests use them: every run starts from a ket, and a run's
state is read back through projections (tomography_kets/_states).  So do
the oracles no run reaches: the global mode volume, an emitter's coupling
g(r), the one-point map read, the closed-form single-excitation
population, a basis index's |n,s1..sN> label, and the Van Loan block's
ground population of a lossy run from one photon.
"""

import io
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from cavitysim import dynamics, fockspace as fs, presets, runner
from cavitysim.analytic import coupling_norm
from cavitysim.config import SCENARIOS
from cavitysim.coupling import (
    FieldMap, ModeVolume, _grid_cell, _synth_axes, _synth_density, _trilinear, local_mode_volume,
)
from cavitysim.fockspace import HilbertLayout
from cavitysim.model import LindbladGenerator, build_hamiltonian, collapse_operators
from cavitysim.units import EPSILON_0, HBAR, SPEED_OF_LIGHT, TWO_PI

# Every run of the suite draws the same examples, and none fails on its
# wall-clock time; each test keeps its own example count.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


def random_pure_state(dim: int, rng) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, rng, rank: int | None = None) -> np.ndarray:
    """Random mixed state via a Wishart-style construction."""
    r = rank or dim
    a = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def basis_label(layout: HilbertLayout, index: int) -> str:
    """Human-readable label |n,s1..sN> for a basis index."""
    if not 0 <= index < layout.dim:
        raise ValueError(f"index {index} outside 0..{layout.dim - 1}")
    atoms = index % 2**layout.n_atoms
    n = index // 2**layout.n_atoms
    bits = format(atoms, f"0{layout.n_atoms}b")
    return f"{n}," + bits.replace("0", "g").replace("1", "e")


def excitations(layout: HilbertLayout) -> np.ndarray:
    """Excitations of each basis state (photons plus excited atoms), read
    off the basis labels."""
    return np.array([
        int(label.split(",")[0]) + label.count("e")
        for label in (basis_label(layout, k) for k in range(layout.dim))
    ])


def dense(layout: HilbertLayout, ket: dict) -> np.ndarray:
    """The vector of length d of a ket {basis index: amplitude}."""
    vec = np.zeros(layout.dim, dtype=complex)
    for index, amplitude in ket.items():
        vec[index] = amplitude
    return vec


def sparse(vec: np.ndarray) -> dict:
    """The ket {basis index: amplitude} of a vector's non-zero entries, the
    inverse of dense."""
    return {int(k): vec[k] for k in np.flatnonzero(vec)}


def random_sector_ket(layout: HilbertLayout, rng, n_exc: int) -> dict:
    """Random normalized ket on the basis states with exactly n_exc
    excitations."""
    psi = np.zeros(layout.dim, dtype=complex)
    sector = np.flatnonzero(excitations(layout) == n_exc)
    psi[sector] = random_pure_state(sector.size, rng)
    return sparse(psi)


def validate_density_matrix(
    rho: np.ndarray,
    trace_tol: float = 1e-9,
    herm_tol: float = 1e-10,
    positivity_tol: float = 1e-8,
):
    """Raise if rho is not a normalized Hermitian PSD matrix within tolerance."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr} deviates from 1 by more than {trace_tol}")
    herm_dev = np.max(np.abs(rho - rho.conj().T))
    if herm_dev > herm_tol:
        raise ValueError(f"hermiticity deviation {herm_dev} exceeds {herm_tol}")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < -positivity_tol:
        raise ValueError(f"minimum eigenvalue {min_eig} below -{positivity_tol}")


def pure_state_density(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a normalized ket."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def state_fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """sqrt(<psi|rho|psi>) for a normalized pure reference state."""
    psi = np.asarray(psi, dtype=complex)
    if rho.shape != (psi.size, psi.size):
        raise ValueError(
            f"dimension mismatch: rho {rho.shape}, state length {psi.size}"
        )
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"reference state norm {norm} is not 1")
    val = float(np.real(psi.conj() @ rho @ psi))
    return float(np.sqrt(max(val, 0.0)))


def lindblad_rhs(gen: LindbladGenerator, rho: np.ndarray) -> np.ndarray:
    """d(rho)/dt = -i[H, rho] + sum_k r_k (L rho L^dag - 1/2 {L^dag L, rho}).

    The result is traceless, and Hermitian for Hermitian rho.
    """
    if rho.shape != (gen.dim, gen.dim):
        raise ValueError(
            f"rho has shape {rho.shape}, generator dimension is {gen.dim}"
        )
    h = build_hamiltonian(gen.layout, gen.params)
    out = -1j * (h @ rho - rho @ h)
    for rate, L, anti in collapse_operators(gen):
        out += rate * (L @ rho @ L.conj().T - 0.5 * (anti[:, None] * rho + rho * anti))
    return out


def trajectory_csv_text(traj) -> str:
    buf = io.StringIO()
    dynamics.write_trajectory_csv(traj, buf)
    return buf.getvalue()


def per_cell_csv(traj) -> str:
    """The per-cell CSV writer the column-wise one replaced, as a reference."""
    lines = [f"# schema: {dynamics.TRAJECTORY_SCHEMA}",
             ",".join(["time_ns"] + traj.column_order)]
    columns = [traj.times] + [traj.series(c) for c in traj.column_order]
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def tomography_kets(layout: HilbertLayout, n_exc: int) -> dict:
    """Projection kets whose populations <v|rho|v> fix a state on the basis
    states with at most n_exc excitations: |i> as column T_i, and
    (|i> + |j>)/sqrt(2) and (|i> + i|j>)/sqrt(2) as T_i_j_re and T_i_j_im,
    for every pair i < j of those states."""
    kept = np.flatnonzero(excitations(layout) <= n_exc)
    eye = np.eye(layout.dim, dtype=complex)
    kets = {f"T_{i}": sparse(eye[i]) for i in kept}
    for i, j in itertools.combinations(kept, 2):
        kets[f"T_{i}_{j}_re"] = sparse((eye[i] + eye[j]) / np.sqrt(2))
        kets[f"T_{i}_{j}_im"] = sparse((eye[i] + 1j * eye[j]) / np.sqrt(2))
    return kets


def tomography_states(traj, n_exc: int) -> np.ndarray:
    """The (outputs, d, d) states of a trajectory that recorded
    tomography_kets(traj.layout, n_exc), rebuilt from those columns:
    rho_ij = (T_i_j_re - m) - i (T_i_j_im - m), m = (rho_ii + rho_jj) / 2.
    Zero off the kept states, and Hermitian by construction."""
    lay = traj.layout
    rho = np.zeros((traj.times.size, lay.dim, lay.dim), dtype=complex)
    kept = np.flatnonzero(excitations(lay) <= n_exc)
    for i in kept:
        rho[:, i, i] = traj.series(f"T_{i}")
    for i, j in itertools.combinations(kept, 2):
        mean = (traj.series(f"T_{i}") + traj.series(f"T_{j}")) / 2
        rho[:, i, j] = (traj.series(f"T_{i}_{j}_re") - mean) - 1j * (
            traj.series(f"T_{i}_{j}_im") - mean)
        rho[:, j, i] = rho[:, i, j].conj()
    return rho


def integrate_states(gen: LindbladGenerator, psi0: dict, times, projections=None,
                     **kwargs) -> tuple:
    """(trajectory, states) of dynamics.integrate from the ket psi0: the run
    records tomography_kets after `projections`, and the states at every
    output time are rebuilt from them."""
    n_exc = int(excitations(gen.layout)[np.flatnonzero(dense(gen.layout, psi0))[0]])
    projections = {**(projections or {}), **tomography_kets(gen.layout, n_exc)}
    traj = dynamics.integrate(gen, psi0, times, projections=projections, **kwargs)
    return traj, tomography_states(traj, n_exc)


def skew_x(monkeypatch, first: int, eps: float):
    """Add i eps to every entry of x from output `first` on, in each run of
    a stack whose x is propagated (from two photons or more): x then has
    |x - x^dag| = 2 eps there, and the same real trace."""
    scan = dynamics._linear_scan

    def skewed(rows, step):
        scan(rows, step)
        rows[..., first:, :] += 1j * eps

    monkeypatch.setattr(dynamics, "_linear_scan", skewed)


def van_loan_one_photon(gens: list, psi0: dict, times) -> tuple:
    """(psi, x) of a lossy stack from one photon at each output time, one
    row per run: the ket on the top sector, propagated as integrate
    propagates it, and the population x of |0, g..g>, propagated as x is
    from two photons: x_k = E x_(k-1) + F vec(psi_(k-1) psi_(k-1)^dag),
    with E and F the top row of expm([[L_low, J], [0, L_top]] dt), a block
    of 1 + d_n^2 rows (Van Loan, IEEE TAC 23, 395 (1978))."""
    layout, times = gens[0].layout, np.asarray(times, dtype=float)
    kept, exc = fs.states_up_to(layout, 1)
    in_top = exc == 1
    top, low = kept[in_top], kept[~in_top]
    n_runs, n_out = times.shape
    dt = (times[:, -1:] - times[:, :1]) / (n_out - 1)
    h_eff = build_hamiltonian(layout, [g.params for g in gens], top)
    channels = collapse_operators(gens[0], kept)
    for rate, _, anti in channels:
        h_eff -= 0.5j * rate * np.diag(anti[in_top])
    psi = np.zeros((n_runs, n_out, top.size), dtype=complex)
    psi[:, 0] = dynamics._kets_on([psi0], top)
    dynamics._power_series(psi, dynamics.expm(-1j * h_eff * dt[..., None]).swapaxes(-1, -2))
    rows = 1 + top.size**2
    block = dynamics._van_loan_generator(dynamics.Alloc((n_runs, rows, rows), complex),
                                         gens, kept, in_top, h_eff)
    step, feed = np.split(dynamics.expm(block * dt[..., None])[:, :1], [1], axis=-1)
    rank_one = (psi[:, :-1, :, None] * psi[:, :-1, None, :].conj()).reshape(n_runs, n_out - 1, -1)
    x = np.zeros((n_runs, n_out, 1), dtype=complex)
    x[:, 1:] = rank_one @ feed.swapaxes(-1, -2)
    dynamics._linear_scan(x, step.swapaxes(-1, -2))
    return psi, x[..., 0].real


def plan_runs(plan, cfg):
    """Every run of the plan in order: the fixed runs, then the sweep's
    points, each propagated alone."""
    points = plan.sweep.points(cfg) if plan.sweep else ()
    return itertools.chain(plan.runs, (run for _, run in points))


def plan_trajectories(cfg, stride: int) -> list:
    """(run, trajectory, states) of every run of the config's plan in order:
    each run records tomography_kets in place of its own projections, and
    its states are rebuilt from them at every stride-th output time."""
    plan = SCENARIOS[cfg.scenario].plan(cfg)
    out = []
    for run in plan_runs(plan, cfg):
        kets = run._replace(projections=lambda layout, r: tomography_kets(layout, r.n_photons))
        traj = runner.trajectory(cfg, kets)
        out.append((run, traj, tomography_states(traj, run.n_photons)[::stride]))
    return out


def kron_chain(factors) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def ladder_block(n_max: int) -> np.ndarray:
    """a on the (n_max+1)-level photon factor alone: a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)


SIGMA_MINUS_BLOCK = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|, basis order (g, e)


def embed_oracle(layout: HilbertLayout, position: int, op: np.ndarray) -> np.ndarray:
    """Brute-force I x .. x op x .. x I in the layout's factor order."""
    factors = []
    for pos, d in enumerate(layout.factor_dims()):
        factors.append(op if pos == position else np.eye(d, dtype=complex))
    return kron_chain(factors)


def partial_trace_oracle(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Index-summation partial trace, independent of the einsum path."""
    keep = tuple(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    d_keep = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((d_keep, d_keep), dtype=complex)
    all_indices = list(np.ndindex(*dims))
    def to_flat(idx):
        flat = 0
        for i, d in enumerate(dims):
            flat = flat * d + idx[i]
        return flat
    def keep_flat(idx):
        flat = 0
        for i in keep:
            flat = flat * dims[i] + idx[i]
        return flat
    for row in all_indices:
        for col in all_indices:
            if all(row[i] == col[i] for i in traced):
                out[keep_flat(row), keep_flat(col)] += rho[to_flat(row), to_flat(col)]
    return out


def concurrence_sqrtm_oracle(rho: np.ndarray) -> float:
    """Wootters concurrence through R = sqrt(sqrt(rho) rho~ sqrt(rho))."""
    from scipy.linalg import sqrtm

    sy = np.array([[0, -1j], [1j, 0]])
    syy = np.kron(sy, sy)
    rho_t = syy @ rho.conj() @ syy
    sq = sqrtm(rho)
    r = sqrtm(sq @ rho_t @ sq)
    lam = np.sort(np.real(np.linalg.eigvals(r)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


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


def synth_density_at(design: str, resolution_nm: float, r_nm) -> float:
    """Unnormalized D.E of synth_fieldmap(design, resolution_nm) at a point
    (nm), interpolated from the 8 nodes of its cell, the only ones computed.
    Normalization and total energy cancel in a coupling ratio, so
    sqrt(synth_density_at(r2) / synth_density_at(r1)) = coupling_ratio(r1, r2).
    """
    axes = _synth_axes(resolution_nm)
    origin = tuple(float(ax[0]) for ax in axes)
    idx, frac = _grid_cell(origin, (resolution_nm,) * 3, [ax.size for ax in axes], r_nm)
    block = _synth_density(design, *(ax[i:i + 2] for ax, i in zip(axes, idx)))
    return _trilinear(block, frac)


def single_excitation_population(couplings: tuple, t):
    """P(chi1)(t) = sin^2(g_norm t) for the closed system started in chi0.

    Peaks at 1 when t = pi / (2 g_norm)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    return np.sin(coupling_norm(couplings) * t) ** 2


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
