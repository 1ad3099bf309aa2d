"""Tavis-Cummings Hamiltonian and Lindblad generator assembly.

All rates and frequencies here are angular, in rad/ns (see units.py); with
hbar = 1 the Hamiltonian is then also in rad/ns.  The rotating frame at the
cavity frequency is the default working frame: simulating bare optical
frequencies (~2.4e6 rad/ns) is numerically pointless since every observable
used downstream (bare-state populations, entropies, concurrence) is
invariant under that frame change.  The lab frame is kept for
small-dimension validation.

The dissipator is built in the standard trace-preserving form
    kappa (a rho a^dag - 1/2 {a^dag a, rho}) + gamma sum_i (...)
A `literal` variant with the anticommutators transposed ({a a^dag, rho}) is
exposed for comparison; it does not preserve the trace, so `integrate`'s
trace-drift gate rejects it at the default tolerance, and
`runner.trajectory` lifts the gate (trace_tol = inf) for it.
"""

from dataclasses import dataclass

import numpy as np

from . import fockspace as fs
from .fockspace import HilbertLayout

FRAME_ROTATING = "rotating_at_cavity"
FRAME_LAB = "lab"
FRAMES = (FRAME_ROTATING, FRAME_LAB)

DISSIPATOR_TRACE_PRESERVING = "trace_preserving"
DISSIPATOR_LITERAL = "literal"
DISSIPATOR_FORMS = (DISSIPATOR_TRACE_PRESERVING, DISSIPATOR_LITERAL)


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the atoms-plus-mode system (angular rad/ns).

    couplings holds one g per atom; omega_c / omega_0 are the cavity and
    atomic transition frequencies (only their difference matters in the
    rotating frame), kappa and gamma are energy decay rates.
    """

    omega_c: float
    omega_0: float
    kappa: float
    gamma: float
    couplings: tuple
    frame: str = FRAME_ROTATING

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(float(g) for g in self.couplings))
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if any(g < 0 for g in self.couplings):
            raise ValueError(f"couplings must be >= 0, got {self.couplings}")
        if self.frame not in FRAMES:
            raise ValueError(f"frame must be one of {FRAMES}, got {self.frame!r}")

    @property
    def detuning(self) -> float:
        """Delta = omega_0 - omega_c (rad/ns)."""
        return self.omega_0 - self.omega_c

    @property
    def n_atoms(self) -> int:
        return len(self.couplings)


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """Hamiltonian plus weighted collapse operators defining d(rho)/dt."""

    layout: HilbertLayout
    hamiltonian: np.ndarray
    collapse_ops: tuple = ()  # of (rate, operator) pairs
    dissipator_form: str = DISSIPATOR_TRACE_PRESERVING

    def __post_init__(self):
        fs.assert_hermitian(self.hamiltonian, tol=1e-12)
        if self.hamiltonian.shape != (self.layout.dim, self.layout.dim):
            raise ValueError("hamiltonian dimension does not match layout")
        for rate, op in self.collapse_ops:
            if rate < 0:
                raise ValueError(f"collapse rate must be >= 0, got {rate}")
            if op.shape != (self.layout.dim, self.layout.dim):
                raise ValueError("collapse operator dimension does not match layout")

    @property
    def dim(self) -> int:
        return self.layout.dim


def _check_match(layout: HilbertLayout, params: SystemParams):
    if params.n_atoms != layout.n_atoms:
        raise ValueError(
            f"params have {params.n_atoms} couplings but layout has "
            f"{layout.n_atoms} atoms"
        )


def build_hamiltonian(layout: HilbertLayout, params: SystemParams) -> np.ndarray:
    """Assemble H (hbar=1) in the frame selected by params.

    Lab frame:      H = w_c a^dag a + (w_0/2) sum sigma^z + sum g_i (a sig_i^dag + a^dag sig_i)
    Rotating frame: H = (Delta/2) sum sigma^z + sum g_i (a sig_i^dag + a^dag sig_i)

    The interaction is assembled as T + T^dag so the result is Hermitian
    exactly (entrywise), not merely to tolerance.
    """
    _check_match(layout, params)
    dim = layout.dim
    h = np.zeros((dim, dim), dtype=complex)

    if params.frame == FRAME_LAB:
        h += params.omega_c * fs.number_operator(layout)
        half_sz = 0.5 * params.omega_0
    else:
        half_sz = 0.5 * params.detuning
    if half_sz != 0.0:
        for i in range(1, layout.n_atoms + 1):
            h += half_sz * fs.atom_sigma_z(layout, i)

    a = fs.annihilation(layout)
    for i, g in enumerate(params.couplings, start=1):
        if g == 0.0:
            continue
        t = g * (a @ fs.atom_raising(layout, i))
        h += t + t.conj().T
    return h


def build_generator(
    layout: HilbertLayout,
    params: SystemParams,
    dissipator_form: str = DISSIPATOR_TRACE_PRESERVING,
) -> LindbladGenerator:
    """Hamiltonian plus collapse channels (kappa, a) and (gamma, sigma_i)."""
    if dissipator_form not in DISSIPATOR_FORMS:
        raise ValueError(
            f"dissipator_form must be one of {DISSIPATOR_FORMS}, got {dissipator_form!r}"
        )
    h = build_hamiltonian(layout, params)
    collapse = []
    if params.kappa > 0:
        collapse.append((params.kappa, fs.annihilation(layout)))
    if params.gamma > 0:
        for i in range(1, layout.n_atoms + 1):
            collapse.append((params.gamma, fs.atom_lowering(layout, i)))
    return LindbladGenerator(
        layout=layout,
        hamiltonian=h,
        collapse_ops=tuple(collapse),
        dissipator_form=dissipator_form,
    )


def lindblad_rhs(gen: LindbladGenerator, rho: np.ndarray) -> np.ndarray:
    """d(rho)/dt = -i[H, rho] + sum_k r_k (L rho L^dag - 1/2 {L^dag L, rho}).

    In the trace-preserving form the result is traceless and Hermitian for
    Hermitian rho.  The `literal` form uses {L L^dag, rho} instead and is
    not trace-preserving.
    """
    if rho.shape != (gen.dim, gen.dim):
        raise ValueError(
            f"rho has shape {rho.shape}, generator dimension is {gen.dim}"
        )
    h = gen.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for rate, L in gen.collapse_ops:
        Ld = L.conj().T
        if gen.dissipator_form == DISSIPATOR_TRACE_PRESERVING:
            anti = Ld @ L
        else:
            anti = L @ Ld
        out += rate * (L @ rho @ Ld - 0.5 * (anti @ rho + rho @ anti))
    return out


def liouvillian_matrix(gen: LindbladGenerator, keep=None) -> np.ndarray:
    """Dense superoperator L with vec(d rho/dt) = L @ vec(rho).

    vec() is row-major (C-order) flattening, for which
    vec(A rho B) = (A kron B^T) vec(rho).  Agreement with lindblad_rhs is
    checked by tests.

    keep, if given, lists the basis states of a subspace whose operators the
    generator maps into themselves (such as all states up to an excitation
    number), and L is built for rho on that subspace only.  Each operator
    is restricted after any product of them: the literal form's L L^dag on
    the subspace is not the product of the restricted L and L^dag.  Lossy
    runs exponentiate this matrix into their step propagator.
    """
    keep = np.arange(gen.dim) if keep is None else np.asarray(keep)
    block = np.ix_(keep, keep)
    eye = np.eye(keep.size)
    h = gen.hamiltonian[block]
    liou = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, L in gen.collapse_ops:
        Ld = L.conj().T
        if gen.dissipator_form == DISSIPATOR_TRACE_PRESERVING:
            anti = Ld @ L
        else:
            anti = L @ Ld
        L, Ld, anti = L[block], Ld[block], anti[block]
        liou += rate * (
            np.kron(L, Ld.T)
            - 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T))
        )
    return liou
