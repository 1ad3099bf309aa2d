"""Shared helpers: independent brute-force oracles and random-state factories.

The oracles here deliberately re-derive results through a different route
than the package (explicit Kronecker chains, index-loop partial traces,
sqrtm-based concurrence) so agreement is meaningful.
"""

import numpy as np
import pytest

from cavitysim import runner
from cavitysim.config import SCENARIOS
from cavitysim.fockspace import HilbertLayout


def random_pure_state(dim: int, rng) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, rng, rank: int | None = None) -> np.ndarray:
    """Random mixed state via a Wishart-style construction."""
    r = rank or dim
    a = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_sector_ket(layout: HilbertLayout, rng, n_exc: int) -> np.ndarray:
    """Random normalized ket on the basis states with exactly n_exc
    excitations (photons plus excited atoms, read off the basis labels)."""
    exc = np.array([
        int(label.split(",")[0]) + label.count("e")
        for label in (layout.basis_label(k) for k in range(layout.dim))
    ])
    psi = np.zeros(layout.dim, dtype=complex)
    sector = np.flatnonzero(exc == n_exc)
    psi[sector] = random_pure_state(sector.size, rng)
    return psi


def plan_trajectories(cfg, snapshot_stride: int) -> list:
    """(run, trajectory) of every run of the config's plan in order, each
    storing every snapshot_stride-th state."""
    plan = SCENARIOS[cfg.scenario].plan(cfg)
    return [(run, runner.trajectory(cfg, run, snapshot_stride))
            for _, run in plan.schedule(cfg)]


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
