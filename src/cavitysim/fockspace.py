"""Truncated photon (x) N-qubit Hilbert space and its basis encoding.

Tensor ordering is fixed: the photon factor comes first, then atoms 1..N.
Basis encoding: the photon index is the slowest-varying (major) index and
atom states are binary digits with g -> 0 and e -> 1, atom 1 most
significant.  So for ``n_max=1, n_atoms=2`` the basis order is
``|0gg>, |0ge>, |0eg>, |0ee>, |1gg>, ...`` and ``|1gg>`` has index 4.
The digit of factor p (0 = photon, i = atom i) has place value 2^(N-p).

Nothing here builds an operator or an array of length d: `model` builds
each operator by index arithmetic on the basis states a caller asks for,
and a ket is the dict {basis index: amplitude} of its non-zero amplitudes.
The number operators are diagonal and read off an index: factor_index
gives the photon number, and states_up_to lists the states a run can
reach, with their excitations, without a pass over all d states.
Everything here is a pure function of immutable inputs.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class HilbertLayout:
    """Bookkeeping for a truncated Fock (x) (2-level)^N tensor space.

    n_max   -- largest retained photon number (photon factor has n_max+1 levels)
    n_atoms -- number N of two-level emitters

    Every basis index is an int64: d = (n_max + 1) 2^N is at most 2^63
    (ValueError otherwise).
    """

    n_max: int
    n_atoms: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if reason := index_overflow(self.n_max, self.n_atoms):
            raise ValueError(reason)

    @property
    def photon_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return (self.n_max + 1) * 2**self.n_atoms

    def factor_dims(self) -> tuple:
        """Dimensions of the tensor factors, in storage order."""
        return (self.photon_dim,) + (2,) * self.n_atoms

    def basis_index(self, n_photons: int, pattern: str) -> int:
        """Index of |n_photons, s_1 ... s_N> under the fixed ordering, for
        the atom pattern 'ge..' of s_1 ... s_N."""
        if not isinstance(pattern, str) or set(pattern) - {"g", "e"}:
            raise ValueError(f"atom pattern must be a string of g/e, got {pattern!r}")
        if len(pattern) != self.n_atoms:
            raise ValueError(
                f"atom pattern length {len(pattern)} does not match n_atoms={self.n_atoms}"
            )
        if not 0 <= n_photons <= self.n_max:
            raise ValueError(
                f"photon number {n_photons} outside truncation 0..{self.n_max}"
            )
        return n_photons * 2**self.n_atoms + int(pattern.replace("g", "0").replace("e", "1"), 2)


def index_overflow(n_max: int, n_atoms: int) -> str:
    """Why a basis index of d = (n_max + 1) 2^N states overflows an int64,
    or '' where it does not."""
    # n_atoms first, so no 2**N is built for a huge N
    if n_atoms >= 63 or (n_max + 1) * 2**n_atoms > 2**63:
        return (f"d = {n_max + 1} * 2^{n_atoms} basis states, more than the 2^63 that an "
                "int64 index reaches")
    return ""


def _check_atom_index(layout: HilbertLayout, i: int):
    if not 1 <= i <= layout.n_atoms:
        raise ValueError(f"atom index {i} outside 1..{layout.n_atoms}")


def states_up_to(layout: HilbertLayout, n: int) -> tuple:
    """(index, excitations) of every basis state with at most n excitations
    (photons plus excited atoms), in index order.  p photons and each choice
    of j <= n - p excited atoms make them, so no pass over the d states is
    made: there are as many as sector_sizes counts when n <= n_max."""
    places = [2 ** (layout.n_atoms - i) for i in range(1, layout.n_atoms + 1)]
    states = sorted(
        (p * 2**layout.n_atoms + sum(atoms), p + j)
        for p in range(min(n, layout.n_max) + 1)
        for j in range(min(layout.n_atoms, n - p) + 1)
        for atoms in itertools.combinations(places, j)
    )
    return tuple(np.array(states, dtype=np.int64).reshape(-1, 2).T)


def sector_sizes(n_atoms: int, n_photons: int) -> tuple:
    """(d_n, d_l): the basis states with n_photons excitations, and those
    with fewer, when every photon number up to n_photons is retained.  j
    excited atoms with n_photons - j photons make the sector, and with
    fewer photons the states below it."""
    excited = range(min(n_atoms, n_photons) + 1)
    return (sum(math.comb(n_atoms, j) for j in excited),
            sum(math.comb(n_atoms, j) * (n_photons - j) for j in excited))


def factor_index(layout: HilbertLayout, basis, factors) -> np.ndarray:
    """Index of each basis state in `basis` within the product basis of the
    given factors (0 = photon, i = atom i), the first factor most
    significant: the basis order of `entanglement.partial_trace`."""
    basis = np.asarray(basis)
    dims = layout.factor_dims()
    out = np.zeros_like(basis)
    for p in factors:
        if p == 0:
            digit = basis >> layout.n_atoms
        else:
            _check_atom_index(layout, p)
            digit = (basis >> (layout.n_atoms - p)) & 1
        out = out * dims[p] + digit
    return out


def basis_state(layout: HilbertLayout, n_photons: int, pattern: str) -> dict:
    """Unit computational basis ket |n_photons, s_1 ... s_N>: {index: 1.0}."""
    return {layout.basis_index(n_photons, pattern): 1.0}
