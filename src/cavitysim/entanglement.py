"""Entanglement diagnostics: partial trace, entropy, concurrence and
population splitting.

Subsystems are addressed by tensor-factor position: 0 is the photon,
1..N are the atoms (matching the fixed layout ordering).  Letters used in
observable names map A -> photon, B -> atom 1, C -> atom 2, ...

All functions are pure and operate on plain dense arrays.
"""

import string

import numpy as np

from .fockspace import HilbertLayout

# Slightly negative eigenvalues are expected from the integrator; anything
# below this is a hard error signaling a misconfigured run.
EIGENVALUE_CLAMP_TOL = 1e-8

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SY_SY = np.kron(_SIGMA_Y, _SIGMA_Y)


def partial_trace(rho: np.ndarray, layout: HilbertLayout, keep) -> np.ndarray:
    """Reduced density matrix on the kept factors (in the order given) of one
    state (d, d) -> (d_keep, d_keep), or of a stack (n, d, d) -> (n, d_keep,
    d_keep).

    keep is a sequence of factor positions (0 = photon, i = atom i).
    """
    keep = tuple(keep)
    n_factors = layout.n_atoms + 1
    if not keep:
        raise ValueError("keep must name at least one subsystem factor")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep has duplicate factors: {keep}")
    if any(not 0 <= p < n_factors for p in keep):
        raise ValueError(
            f"keep {keep} outside valid factor positions 0..{n_factors - 1}"
        )
    dims = layout.factor_dims()
    if rho.shape[-2:] != (layout.dim, layout.dim):
        raise ValueError(f"rho shape {rho.shape} does not match layout dim {layout.dim}")

    # index letters: the factors take a, b, ...; "..." is the stack
    letters = string.ascii_lowercase
    ket = list(letters[:n_factors])
    bra = list(ket)
    out_ket, out_bra = [], []
    nxt = n_factors
    for p in keep:
        bra[p] = letters[nxt]
        nxt += 1
        out_ket.append(ket[p])
        out_bra.append(bra[p])
    spec = (
        "..." + "".join(ket) + "".join(bra)
        + "->..." + "".join(out_ket) + "".join(out_bra)
    )
    reduced = np.einsum(spec, rho.reshape(rho.shape[:-2] + dims + dims))
    d_keep = int(np.prod([dims[p] for p in keep]))
    return reduced.reshape(rho.shape[:-2] + (d_keep, d_keep))


def _check_min_eigenvalues(min_evals) -> None:
    """Raise on the first state whose smallest eigenvalue is below
    -EIGENVALUE_CLAMP_TOL (min_evals holds one value per state)."""
    min_evals = np.atleast_1d(min_evals)
    bad = np.flatnonzero(min_evals < -EIGENVALUE_CLAMP_TOL)
    if bad.size:
        raise ValueError(
            f"density matrix eigenvalue {min_evals[bad[0]]:.3e} below "
            f"-{EIGENVALUE_CLAMP_TOL:g}; input is not positive semidefinite"
        )


def entropy_normalized(rho_sub: np.ndarray, norm_dim: int) -> float | np.ndarray:
    """Von Neumann entropy -sum(l ln l) / ln(norm_dim), in [0, 1], of one
    state (k, k) -> float, or of a stack (n, k, k) -> (n,)."""
    return spectrum_entropy_stack(np.linalg.eigvalsh(rho_sub), norm_dim)


def spectrum_entropy_stack(evals: np.ndarray, norm_dim: int) -> np.ndarray:
    """Normalized von Neumann entropies of states with the given spectra,
    shape (n, k) -> (n,), or of one spectrum (k,) -> float.  The spectrum
    of a diagonal state is its populations, so its entropy needs no
    eigensolver.

    Eigenvalues are clamped to [0, 1] (0 ln 0 := 0); see module notes on the
    clamping tolerance.  The minimum and the sum run over the columns of
    evals (a copy of evals.T), not a short last axis: 6x faster on (6507,
    2).  Up to 7 entries that sum has the bits of one along each spectrum;
    from 8 on numpy unrolls its pairwise sum there, and they differ by a
    few ulp.
    """
    if norm_dim < 2:
        raise ValueError(f"norm_dim must be >= 2, got {norm_dim}")
    columns = np.ascontiguousarray(evals.T)
    _check_min_eigenvalues(columns.min(axis=0))
    columns = np.clip(columns, 0.0, 1.0)
    # 1 ln 1 = 0 stands in for the clamped zeros
    safe = np.where(columns > 0.0, columns, 1.0)
    return -np.sum(safe * np.log(safe), axis=0) / np.log(norm_dim)


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of one two-qubit density matrix (4, 4) -> float,
    or of a stack (n, 4, 4) -> (n,).

    With rho_tilde = (sy x sy) rho* (sy x sy), the lambda_i are the ordered
    square roots of the eigenvalues of rho @ rho_tilde (equivalently the
    eigenvalues of R = sqrt(sqrt(rho) rho_tilde sqrt(rho))) and
    C = max(0, l1 - l2 - l3 - l4).  Numerically the lambda_i are computed
    as the singular values of B = sqrt(rho) (sy x sy) sqrt(rho)*, since
    B B^dag = sqrt(rho) rho_tilde sqrt(rho): unlike square roots of
    eigenvalues, singular values of the near-singular B keep full absolute
    accuracy, which pure states (rank-1 B) need.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"concurrence needs 4x4 two-qubit states, got {rho.shape}")
    herm_dev = np.atleast_1d(
        np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)), axis=(-2, -1))
    )
    bad = np.flatnonzero(herm_dev > 1e-8)
    if bad.size:
        raise ValueError(f"input not Hermitian (deviation {herm_dev[bad[0]]:.3e})")
    evals_rho, vecs = np.linalg.eigh(rho)
    _check_min_eigenvalues(evals_rho[..., 0])
    roots = np.sqrt(np.clip(evals_rho, 0.0, None))
    sqrt_rho = (vecs * roots[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    b = sqrt_rho @ _SY_SY @ sqrt_rho.conj()
    lam = np.linalg.svd(b, compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def x_state_concurrence_stack(
    pops: np.ndarray, upper: np.ndarray, lower: np.ndarray
) -> np.ndarray:
    """Wootters concurrences of a stack of two-qubit states whose only
    off-diagonal elements are upper = rho[ge, eg] and lower = rho[eg, ge],
    shape (n, 4), (n,), (n,) -> (n,); pops are the diagonals in gg, ge, eg,
    ee order.

    A pair of atoms reduced from a state that is block-diagonal in
    excitation number has this form, with C = 2 max(0, |rho_eg,ge| -
    sqrt(p_gg p_ee)).  The checks of concurrence stay: the two
    coherences must be conjugates within 1e-8, and the smallest eigenvalue,
    min(p_gg, p_ee, (p_ge + p_eg)/2 - hypot((p_ge - p_eg)/2, |rho_eg,ge|)),
    must not fall below -EIGENVALUE_CLAMP_TOL.
    """
    herm_dev = np.abs(upper - lower.conj())
    bad = np.flatnonzero(herm_dev > 1e-8)
    if bad.size:
        raise ValueError(f"input not Hermitian (deviation {herm_dev[bad[0]]:.3e})")
    coherence = np.abs(lower)
    p_gg, p_ge, p_eg, p_ee = pops.T
    mixed = 0.5 * (p_ge + p_eg) - np.hypot(0.5 * (p_ge - p_eg), coherence)
    _check_min_eigenvalues(np.minimum(np.minimum(p_gg, p_ee), mixed))
    corners = np.sqrt(np.clip(p_gg, 0.0, None) * np.clip(p_ee, 0.0, None))
    return 2.0 * np.maximum(0.0, coherence - corners)


def splitting_magnitude(alpha: float) -> float:
    """Population-amplitude splitting |1 - a^2| / |1 + a^2| of the two atoms."""
    return abs(1.0 - alpha**2) / abs(1.0 + alpha**2)


def trajectory_splitting(pop_atom1, pop_atom2) -> float:
    """Splitting measured from two population series: the oscillation
    amplitudes differ while staying in phase, so the peak values give
    (A1 - A2) / (A1 + A2)."""
    a1 = float(np.max(pop_atom1))
    a2 = float(np.max(pop_atom2))
    if a1 + a2 <= 0:
        raise ValueError("population series carry no excitation")
    return abs(a1 - a2) / (a1 + a2)
