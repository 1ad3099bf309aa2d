"""Truncated photon (x) N-qubit Hilbert space and elementary operators.

Tensor ordering is fixed: the photon factor comes first, then atoms 1..N.
Basis encoding: the photon index is the slowest-varying (major) index and
atom states are binary digits with g -> 0 and e -> 1, atom 1 most
significant.  So for ``n_max=1, n_atoms=2`` the basis order is
``|0gg>, |0ge>, |0eg>, |0ee>, |1gg>, ...`` and ``|1gg>`` has index 4.

All operators are dense complex matrices on the full composite space
(identity on the untouched factors).  Target dimensions stay small
(<= (n_max+1) * 2^N ~ a few hundred), where dense is simple and fast.
Everything here is a pure function of immutable inputs.
"""

from dataclasses import dataclass

import numpy as np

ORDERING = "photon factor first, then atoms 1..N"


@dataclass(frozen=True)
class HilbertLayout:
    """Bookkeeping for a truncated Fock (x) (2-level)^N tensor space.

    n_max   -- largest retained photon number (photon factor has n_max+1 levels)
    n_atoms -- number N of two-level emitters
    """

    n_max: int
    n_atoms: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")

    @property
    def photon_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return (self.n_max + 1) * 2**self.n_atoms

    @property
    def ordering(self) -> str:
        return ORDERING

    def factor_dims(self) -> tuple:
        """Dimensions of the tensor factors, in storage order."""
        return (self.photon_dim,) + (2,) * self.n_atoms

    def basis_index(self, n_photons: int, pattern) -> int:
        """Index of |n_photons, s_1 ... s_N> under the fixed ordering."""
        bits = _parse_pattern(pattern, self.n_atoms)
        if not 0 <= n_photons <= self.n_max:
            raise ValueError(
                f"photon number {n_photons} outside truncation 0..{self.n_max}"
            )
        idx = n_photons
        for b in bits:
            idx = 2 * idx + b
        return idx

    def basis_label(self, index: int) -> str:
        """Human-readable label |n,s1..sN> for a basis index."""
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} outside 0..{self.dim - 1}")
        atoms = index % 2**self.n_atoms
        n = index // 2**self.n_atoms
        bits = format(atoms, f"0{self.n_atoms}b")
        return f"{n}," + bits.replace("0", "g").replace("1", "e")


def _parse_pattern(pattern, n_atoms: int):
    """Atom pattern -> tuple of bits (g=0, e=1).  Accepts 'ge..' or ints."""
    if isinstance(pattern, str):
        bad = set(pattern) - {"g", "e"}
        if bad:
            raise ValueError(f"atom pattern may contain only g/e, got {pattern!r}")
        bits = tuple(1 if c == "e" else 0 for c in pattern)
    else:
        bits = tuple(int(b) for b in pattern)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"atom pattern bits must be 0/1, got {pattern!r}")
    if len(bits) != n_atoms:
        raise ValueError(
            f"atom pattern length {len(bits)} does not match n_atoms={n_atoms}"
        )
    return bits


def _check_atom_index(layout: HilbertLayout, i: int):
    if not 1 <= i <= layout.n_atoms:
        raise ValueError(f"atom index {i} outside 1..{layout.n_atoms}")


def _embed(layout: HilbertLayout, factor_ops: dict) -> np.ndarray:
    """Kronecker product with identities on all factors not in factor_ops.

    factor_ops maps factor position (0 = photon, k = atom k) to a matrix.
    """
    out = np.array([[1.0 + 0.0j]])
    dims = layout.factor_dims()
    for pos, d in enumerate(dims):
        op = factor_ops.get(pos)
        if op is None:
            op = np.eye(d, dtype=complex)
        out = np.kron(out, op)
    return out


def photon_annihilation_block(n_max: int) -> np.ndarray:
    """a on the (n_max+1)-level photon factor alone: a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)


def annihilation(layout: HilbertLayout) -> np.ndarray:
    """Photon annihilation operator a embedded on the full space."""
    return _embed(layout, {0: photon_annihilation_block(layout.n_max)})


def creation(layout: HilbertLayout) -> np.ndarray:
    return annihilation(layout).conj().T


def photon_number_diagonal(layout: HilbertLayout) -> np.ndarray:
    """Photon number of each basis state (the diagonal of a^dag a).

    The photon index is the major one, so it is the basis index shifted
    past the N atom bits."""
    return np.arange(layout.dim) >> layout.n_atoms


def excitation_number_diagonal(layout: HilbertLayout) -> np.ndarray:
    """Excitations of each basis state: photons plus excited atoms, the
    diagonal of a^dag a + sum_i sigma_i^dag sigma_i."""
    atoms = np.arange(layout.dim) & (2**layout.n_atoms - 1)
    excited = sum((atoms >> i) & 1 for i in range(layout.n_atoms))
    return photon_number_diagonal(layout) + excited


def number_operator(layout: HilbertLayout) -> np.ndarray:
    """a^dag a embedded on the full space."""
    return np.diag(photon_number_diagonal(layout).astype(complex))


SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # sigma|e> = |g>
SIGMA_Z = np.array([[-1, 0], [0, 1]], dtype=complex)     # basis order (g, e)


def atom_lowering(layout: HilbertLayout, i: int) -> np.ndarray:
    """Lowering operator sigma_i (|g><e| on atom i, identity elsewhere)."""
    _check_atom_index(layout, i)
    return _embed(layout, {i: SIGMA_MINUS})


def atom_raising(layout: HilbertLayout, i: int) -> np.ndarray:
    _check_atom_index(layout, i)
    return _embed(layout, {i: SIGMA_MINUS.conj().T})


def atom_sigma_z(layout: HilbertLayout, i: int) -> np.ndarray:
    """sigma^z_i = |e><e| - |g><g| on atom i, identity elsewhere."""
    _check_atom_index(layout, i)
    return _embed(layout, {i: SIGMA_Z})


def excitation_number(layout: HilbertLayout) -> np.ndarray:
    """Total excitation operator a^dag a + sum_i sigma_i^dag sigma_i."""
    return np.diag(excitation_number_diagonal(layout).astype(complex))


def basis_state(layout: HilbertLayout, n_photons: int, pattern) -> np.ndarray:
    """Unit computational basis ket |n_photons, s_1 ... s_N>."""
    vec = np.zeros(layout.dim, dtype=complex)
    vec[layout.basis_index(n_photons, pattern)] = 1.0
    return vec


def basis_labels(layout: HilbertLayout) -> list:
    """Labels for all basis indices, in index order."""
    return [layout.basis_label(k) for k in range(layout.dim)]


def assert_hermitian(m: np.ndarray, tol: float = 1e-12):
    """Raise if max |M - M^dag| element exceeds tol."""
    dev = np.max(np.abs(m - m.conj().T))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian within {tol} (deviation {dev})")
