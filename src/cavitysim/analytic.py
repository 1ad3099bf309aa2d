"""Closed-form solutions in the excitation-conserving sectors.

These serve as independent references for the numerical integrator and as
fast evaluators for sweeps: the single-excitation manifold for arbitrary N
and couplings, the two-excitation manifold for two atoms, and the peak
entanglement metrics as functions of the coupling ratio alpha.  Each ket is
a dict {basis index: amplitude}, as fockspace.basis_state's.  All forms
are for the resonant rotating-frame Hamiltonian without losses; lossy runs
may use them only as short-time references.
"""

from dataclasses import dataclass

import numpy as np

from . import fockspace as fs
from .fockspace import HilbertLayout


def coupling_norm(couplings) -> float:
    """sqrt(sum g_i^2): the collective coupling setting the exchange rate."""
    return float(np.sqrt(sum(g * g for g in couplings)))


def single_excitation_states(layout: HilbertLayout, couplings: tuple):
    """(chi0, chi1) of the one-excitation manifold, for one coupling g_i
    (rad/ns) per atom, none negative and not all zero.

    chi0 = |1, g..g> and chi1 = |0> (x) sum_i (g_i / g_norm) sigma_i^dag |g..g>;
    the initial photon state exchanges with this single collective atomic
    excitation, which for equal couplings is the N-atom W state.
    """
    if len(couplings) != layout.n_atoms:
        raise ValueError(f"{len(couplings)} couplings, layout has {layout.n_atoms} atoms")
    if any(g < 0 for g in couplings):
        raise ValueError(f"couplings must be >= 0, got {couplings}")
    if all(g == 0 for g in couplings):
        raise ValueError("all couplings are zero; no collective mode exists")
    g_norm = coupling_norm(couplings)
    ground = "g" * layout.n_atoms
    chi1 = {layout.basis_index(0, ground[:i] + "e" + ground[i + 1:]): np.complex128(g) / g_norm
            for i, g in enumerate(couplings)}
    return fs.basis_state(layout, 1, ground), chi1


def two_photon_states(layout: HilbertLayout, g1: float, g2: float):
    """The four orthonormal states spanning the two-excitation manifold of
    two atoms: |2,gg>, |1>(x)(g1|eg>+g2|ge>)/W, |0,ee>, |1>(x)(g2|eg>-g1|ge>)/W.

    The last (dark combination) has no Hamiltonian matrix element to any of
    the others except |0,ee>, with element (g2^2 - g1^2)/W; at equal
    coupling it therefore decouples entirely and the dynamics stay on the
    remaining triplet.
    """
    if layout.n_atoms != 2:
        raise ValueError("two-photon manifold states are defined for 2 atoms")
    if layout.n_max < 2:
        raise ValueError("layout must retain at least 2 photons")
    if g1 == 0 and g2 == 0:
        raise ValueError("couplings cannot both be zero")
    w = float(np.hypot(g1, g2))
    eg, ge = layout.basis_index(1, "eg"), layout.basis_index(1, "ge")
    chi1 = {eg: np.complex128(g1) / w, ge: np.complex128(g2) / w}
    chi3 = {eg: np.complex128(g2) / w, ge: np.complex128(-g1) / w}
    return fs.basis_state(layout, 2, "gg"), chi1, fs.basis_state(layout, 0, "ee"), chi3


@dataclass(frozen=True)
class PeakEntanglementMetrics:
    fidelity: float
    concurrence: float
    entropy_atom2: float


def peak_entanglement_metrics(alpha: float) -> PeakEntanglementMetrics:
    """Entanglement of the peak state (g1|eg> + alpha g1|ge>)/norm.

    fidelity    = (1 + a) / sqrt(2 (1 + a^2))   (overlap with the Bell state)
    concurrence = 2 a / (1 + a^2)
    entropy_atom2 = binary entropy of a^2 / (1 + a^2), normalized by ln 2
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    a2 = alpha * alpha
    fidelity = (1.0 + alpha) / np.sqrt(2.0 * (1.0 + a2))
    conc = 2.0 * alpha / (1.0 + a2)
    p = a2 / (1.0 + a2)
    ent = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            ent -= q * np.log(q)
    return PeakEntanglementMetrics(
        fidelity=float(fidelity),
        concurrence=float(conc),
        entropy_atom2=float(ent / np.log(2.0)),
    )


def symmetric_bell_state(layout: HilbertLayout) -> dict:
    """|0> (x) (|eg> + |ge>)/sqrt(2), the maximal two-atom target state."""
    if layout.n_atoms != 2:
        raise ValueError("the symmetric Bell state is defined for 2 atoms")
    return {layout.basis_index(0, p): np.complex128(1.0) / np.sqrt(2.0) for p in ("eg", "ge")}
