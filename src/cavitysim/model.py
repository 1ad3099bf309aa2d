"""Tavis-Cummings Hamiltonian and Lindblad generator assembly.

All rates and frequencies here are angular, in rad/ns (see units.py); with
hbar = 1 the Hamiltonian is then also in rad/ns.  It is written in the
frame rotating at the cavity frequency: simulating bare optical
frequencies (~2.4e6 rad/ns) is numerically pointless since every observable
used downstream (bare-state populations, entropies, concurrence) is
invariant under that frame change.  In that frame the two frequencies
enter only as the detuning Delta = omega_0 - omega_c, `SystemParams.detuning`.

Loss enters in the standard trace-preserving Lindblad form
    kappa (a rho a^dag - 1/2 {a^dag a, rho}) + gamma sum_i (...)
(Lindblad, Commun. Math. Phys. 48, 119 (1976)).

Every operator is built by index arithmetic on `fockspace`'s basis
encoding, on the basis states a caller passes as `keep` (all d of them if
None): a run passes the d' states it propagates, so no d x d operator is
built on its path.  The generator itself holds only what defines it.
"""

from dataclasses import dataclass

import numpy as np

from . import fockspace as fs
from .fockspace import HilbertLayout


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the atoms-plus-mode system (angular rad/ns).

    detuning is Delta = omega_0 - omega_c, the atomic transition's offset
    from the cavity frequency; couplings holds one g per atom; kappa and
    gamma are energy decay rates.
    """

    detuning: float
    kappa: float
    gamma: float
    couplings: tuple

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(float(g) for g in self.couplings))
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if any(g < 0 for g in self.couplings):
            raise ValueError(f"couplings must be >= 0, got {self.couplings}")

    @property
    def n_atoms(self) -> int:
        return len(self.couplings)


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """What defines d(rho)/dt: the layout and the parameters.  It holds no
    operator; build_hamiltonian, collapse_operators and liouvillian_matrix
    build them on the basis states a caller needs."""

    layout: HilbertLayout
    params: SystemParams

    def __post_init__(self):
        _check_match(self.layout, self.params)

    @property
    def dim(self) -> int:
        return self.layout.dim

    @property
    def collapse_channels(self) -> tuple:
        """(rate, factor) per collapse operator: (kappa, 0) for a, then
        (gamma, i) for each sigma_i; a zero rate has no channel."""
        p = self.params
        photon = ((p.kappa, 0),) if p.kappa > 0 else ()
        atoms = tuple((p.gamma, i) for i in range(1, p.n_atoms + 1)) if p.gamma > 0 else ()
        return photon + atoms


def _check_match(layout: HilbertLayout, params: SystemParams):
    if params.n_atoms != layout.n_atoms:
        raise ValueError(
            f"params have {params.n_atoms} couplings but layout has "
            f"{layout.n_atoms} atoms"
        )


def _states(layout: HilbertLayout, keep) -> np.ndarray:
    return np.arange(layout.dim) if keep is None else np.asarray(keep)


def _lowering(layout: HilbertLayout, factor: int, states: np.ndarray) -> tuple:
    """Amplitude of L|k> for each basis state k, and how far L moves the
    index down.  L is a (factor 0) or sigma_i (factor i): it lowers the
    factor's digit m by one, with amplitude sqrt(m) (1 or 0 for an atom),
    so it moves the index down by the digit's place value 2^(N - factor)."""
    digit = fs.factor_index(layout, states, (factor,))
    return np.sqrt(digit), 2 ** (layout.n_atoms - factor)


def _on_states(states: np.ndarray, amplitudes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The d' x d' matrix on `states` with amplitudes[..., j] at
    (targets[j], states[j]), dropping the amplitudes that are zero in every
    matrix of a stack and the targets that are not among the states."""
    order = np.argsort(states)
    rows = order[np.minimum(np.searchsorted(states, targets, sorter=order), states.size - 1)]
    hit = (amplitudes != 0).reshape(-1, states.size).any(axis=0) & (states[rows] == targets)
    out = np.zeros(amplitudes.shape[:-1] + (states.size, states.size), dtype=complex)
    out[..., rows[hit], np.flatnonzero(hit)] = amplitudes[..., hit]
    return out


def lowering_operator(layout: HilbertLayout, factor: int, keep=None) -> np.ndarray:
    """a (factor 0) or sigma_i (factor i) on the basis states `keep` (all of
    them if None): a|n, s> = sqrt(n)|n-1, s>, sigma_i takes atom i from e to g."""
    states = _states(layout, keep)
    amplitudes, shift = _lowering(layout, factor, states)
    return _on_states(states, amplitudes, states - shift)


def build_hamiltonian(layout: HilbertLayout, params: SystemParams | list, keep=None) -> np.ndarray:
    """Assemble H (hbar=1) in the frame rotating at the cavity frequency,
    on the basis states `keep` (all of them if None):

        H = (Delta/2) sum sigma^z + sum g_i (a sig_i^dag + a^dag sig_i)

    The diagonal is read off each state's digits.  a sig_i^dag takes
    |n, s> with atom i in g to sqrt(n)|n-1, s + e_i>, which moves the index
    down by 2^N and up by 2^(N-i).  The interaction is assembled as
    T + T^dag so the result is Hermitian exactly (entrywise), not merely to
    tolerance.  params may be a sequence of SystemParams, for which the
    stack of their Hamiltonians returns, each as its own SystemParams
    builds it.
    """
    stacked = not isinstance(params, SystemParams)
    stack = list(params) if stacked else [params]
    for p in stack:
        _check_match(layout, p)
    states = _states(layout, keep)
    half_sz = np.array([[0.5 * p.detuning] for p in stack])
    couplings = np.array([p.couplings for p in stack])
    diag = np.zeros((len(stack), states.size))
    photons, down = _lowering(layout, 0, states)
    h = np.zeros((len(stack), states.size, states.size), dtype=complex)
    for i in range(1, layout.n_atoms + 1):
        excited, up = _lowering(layout, i, states)
        diag = diag + half_sz * (2.0 * excited - 1.0)  # sigma^z: +1 on e, -1 on g
        g = couplings[:, i - 1, None]
        t = _on_states(states, g * photons * (1.0 - excited), states - down + up)
        h += t + t.conj().swapaxes(-1, -2)
    on_diagonal = np.zeros(h.shape)
    np.einsum("...ii->...i", on_diagonal)[...] = diag
    h = h + on_diagonal
    return h if stacked else h[0]


def build_generator(layout: HilbertLayout, params: SystemParams) -> LindbladGenerator:
    """The generator with collapse channels (kappa, a) and (gamma, sigma_i)."""
    return LindbladGenerator(layout, params)


def collapse_operators(gen: LindbladGenerator, keep=None) -> list:
    """(rate, L, diagonal of L^dag L) per collapse channel, on the basis
    states `keep` (all of them if None).  L^dag L is diagonal: at |k> it is
    the squared amplitude of L there."""
    layout, states = gen.layout, _states(gen.layout, keep)
    return [(rate, lowering_operator(layout, factor, states),
             _lowering(layout, factor, states)[0] ** 2)
            for rate, factor in gen.collapse_channels]


def decay_rates(gen: LindbladGenerator, keep=None) -> np.ndarray:
    """The diagonal of sum rate L^dag L over the collapse channels, on the
    basis states `keep` (all of them if None), with no L built."""
    layout, states = gen.layout, _states(gen.layout, keep)
    return sum((rate * _lowering(layout, factor, states)[0] ** 2
                for rate, factor in gen.collapse_channels), np.zeros(states.size))


def liouvillian_matrix(gen: LindbladGenerator, keep=None) -> np.ndarray:
    """Dense superoperator L with vec(d rho/dt) = L @ vec(rho).

    vec() is row-major (C-order) flattening, for which
    vec(A rho B) = (A kron B^T) vec(rho).  Tests check it against the
    right-hand side written out directly.

    keep, if given, lists the basis states of a subspace whose operators the
    generator maps into themselves (such as all states up to an excitation
    number), and L is built for rho on that subspace only, from operators
    built on it.  A lossy run from two photons or more builds it on the
    states below the excitation sector it starts in, as the L_low block of
    its Van Loan generator.
    """
    states = _states(gen.layout, keep)
    eye = np.eye(states.size)
    h = build_hamiltonian(gen.layout, gen.params, states)
    liou = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, L, anti in collapse_operators(gen, states):
        anti = np.diag(anti)
        liou += rate * (
            np.kron(L, L.conj())
            - 0.5 * (np.kron(anti, eye) + np.kron(eye, anti))
        )
    return liou
