import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavitysim import fockspace as fs, model
from cavitysim.fockspace import HilbertLayout

from conftest import SIGMA_MINUS_BLOCK, dense, embed_oracle, excitations, kron_chain, ladder_block


def test_layout_dimensions():
    lay = HilbertLayout(n_max=2, n_atoms=2)
    assert lay.dim == 12
    assert lay.factor_dims() == (3, 2, 2)


@pytest.mark.parametrize("n_max,n_atoms", [(0, 1), (1, 0), (-1, 2), (2, -1)])
def test_layout_rejects_bad_sizes(n_max, n_atoms):
    with pytest.raises(ValueError):
        HilbertLayout(n_max=n_max, n_atoms=n_atoms)


def test_layout_basis_indices_fit_int64():
    # d = 4 * 2^61 = 2^63: the last index is the largest int64
    assert HilbertLayout(n_max=3, n_atoms=61).dim == 2**63
    for n_max, n_atoms in ((4, 61), (2, 62), (1, 63), (1, 10**10)):
        with pytest.raises(ValueError, match=rf"^d = {n_max + 1} \* 2\^{n_atoms} basis states"):
            HilbertLayout(n_max=n_max, n_atoms=n_atoms)


def test_annihilation_ladder_action():
    lay = HilbertLayout(n_max=1, n_atoms=1)
    a = model.lowering_operator(lay, 0, np.arange(lay.dim))
    one = dense(lay, fs.basis_state(lay, 1, "g"))
    zero = dense(lay, fs.basis_state(lay, 0, "g"))
    assert np.allclose(a @ one, zero)        # a|1> = |0>, amplitude sqrt(1)=1
    assert np.allclose(a @ zero, 0.0)        # vacuum annihilation


def test_annihilation_matrix_element_sqrt3():
    # ladder rule oracle: <2|a|3> = sqrt(3)
    lay = HilbertLayout(n_max=3, n_atoms=1)
    a = model.lowering_operator(lay, 0, np.arange(lay.dim))
    bra = dense(lay, fs.basis_state(lay, 2, "g"))
    ket = dense(lay, fs.basis_state(lay, 3, "g"))
    assert bra.conj() @ a @ ket == pytest.approx(np.sqrt(3.0), abs=1e-15)


def test_atom_lowering_single_atom():
    lay = HilbertLayout(n_max=1, n_atoms=1)
    sm = model.lowering_operator(lay, 1, np.arange(lay.dim))
    assert np.allclose(sm @ dense(lay, fs.basis_state(lay, 0, "e")),
                       dense(lay, fs.basis_state(lay, 0, "g")))
    assert np.allclose(sm @ dense(lay, fs.basis_state(lay, 0, "g")), 0.0)


def test_atom_lowering_acts_only_on_its_atom():
    lay = HilbertLayout(n_max=1, n_atoms=2)
    s2 = model.lowering_operator(lay, 2, np.arange(lay.dim))
    assert np.allclose(s2 @ dense(lay, fs.basis_state(lay, 0, "ge")),
                       dense(lay, fs.basis_state(lay, 0, "gg")))
    assert np.allclose(s2 @ dense(lay, fs.basis_state(lay, 0, "eg")), 0.0)


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_lowering_projector_spectrum(n_max, n_atoms):
    # full eigendecomposition oracle: sigma^dag sigma has eigenvalues in {0,1}
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    for i in range(1, n_atoms + 1):
        sm = model.lowering_operator(lay, i, np.arange(lay.dim))
        evals = np.linalg.eigvalsh(sm.conj().T @ sm)
        assert np.all((np.abs(evals) < 1e-12) | (np.abs(evals - 1) < 1e-12))


def test_atom_index_out_of_range():
    # factor 0 is the photon; atoms are 1..N
    lay = HilbertLayout(n_max=1, n_atoms=2)
    for bad in (3, -1):
        with pytest.raises(ValueError):
            model.lowering_operator(lay, bad, np.arange(lay.dim))
        with pytest.raises(ValueError):
            fs.factor_index(lay, np.arange(lay.dim), (bad,))


def _enumerated_index(lay, n, bits):
    # ordering oracle: enumerate (photon-major, then atoms 1..N binary)
    idx = 0
    for np_ in range(lay.n_max + 1):
        for atoms in range(2**lay.n_atoms):
            pattern = [(atoms >> (lay.n_atoms - 1 - k)) & 1 for k in range(lay.n_atoms)]
            if np_ == n and pattern == list(bits):
                return idx
            idx += 1
    raise AssertionError("state not found")


def test_basis_state_index_matches_enumeration():
    lay = HilbertLayout(n_max=1, n_atoms=2)
    vec = dense(lay, fs.basis_state(lay, 1, "gg"))
    assert np.argmax(np.abs(vec)) == 4
    assert _enumerated_index(lay, 1, (0, 0)) == 4
    assert np.argmax(np.abs(dense(lay, fs.basis_state(lay, 0, "gg")))) == 0


@given(
    n_max=st.integers(1, 3),
    n_atoms=st.integers(1, 3),
    n=st.integers(0, 3),
    atoms=st.integers(0, 7),
)
def test_basis_state_enumeration_property(n_max, n_atoms, n, atoms):
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    n = min(n, n_max)
    atoms %= 2**n_atoms
    bits = [(atoms >> (n_atoms - 1 - k)) & 1 for k in range(n_atoms)]
    vec = dense(lay, fs.basis_state(lay, n, "".join("ge"[b] for b in bits)))
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)
    assert np.argmax(np.abs(vec)) == _enumerated_index(lay, n, bits)


def test_basis_state_rejects_out_of_range():
    lay = HilbertLayout(n_max=1, n_atoms=2)
    with pytest.raises(ValueError):
        fs.basis_state(lay, 2, "gg")
    with pytest.raises(ValueError):
        fs.basis_state(lay, 0, "g")      # wrong pattern length
    with pytest.raises(ValueError):
        fs.basis_state(lay, 0, "gx")
    for pattern in ((0, 1), [1, 0], b"ge"):  # a pattern is a string of g/e only
        with pytest.raises(ValueError, match="string of g/e"):
            lay.basis_index(0, pattern)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_truncated_commutator_identity(n_max, n_atoms):
    # [a, a^dag] = I - (n_max+1)|n_max><n_max| on the photon factor
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    a = model.lowering_operator(lay, 0, np.arange(lay.dim))
    ad = a.conj().T
    comm = a @ ad - ad @ a
    top = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    top[n_max, n_max] = 1.0
    expected = np.eye(lay.dim) - (n_max + 1) * embed_oracle(lay, 0, top)
    assert np.max(np.abs(comm - expected)) < 1e-12


def test_atom_operators_commute_across_atoms():
    lay = HilbertLayout(n_max=2, n_atoms=3)
    ops = [model.lowering_operator(lay, i, np.arange(lay.dim)) for i in (1, 2, 3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.max(np.abs(ops[i] @ ops[j] - ops[j] @ ops[i])) == 0.0


@pytest.mark.parametrize("n_max,n_atoms", [(1, 1), (2, 2), (3, 2), (1, 4)])
def test_embedding_against_kron_oracle(n_max, n_atoms):
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    assert lay.dim <= 64
    a = embed_oracle(lay, 0, ladder_block(n_max))
    assert np.max(np.abs(model.lowering_operator(lay, 0, np.arange(lay.dim)) - a)) == 0.0
    for i in range(1, n_atoms + 1):
        sm = embed_oracle(lay, i, SIGMA_MINUS_BLOCK)
        assert np.max(np.abs(model.lowering_operator(lay, i, np.arange(lay.dim)) - sm)) == 0.0


def test_excitation_number_diagonal():
    # up to n_max + N excitations, states_up_to lists every basis state
    lay = HilbertLayout(n_max=2, n_atoms=2)
    index, exc = fs.states_up_to(lay, 4)
    assert np.array_equal(index, np.arange(lay.dim))
    n_ex = np.diag(exc)
    for n in range(3):
        for pattern in ("gg", "ge", "eg", "ee"):
            v = dense(lay, fs.basis_state(lay, n, pattern))
            expected = n + pattern.count("e")
            assert v.conj() @ n_ex @ v == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_number_diagonals_match_kron_operators(n_max, n_atoms):
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    a = ladder_block(n_max)
    eye2 = np.eye(2, dtype=complex)
    excited = np.diag([0.0, 1.0]).astype(complex)
    nph = kron_chain([a.conj().T @ a] + [eye2] * n_atoms)
    n_ex = nph + sum(
        kron_chain([np.eye(n_max + 1)] + [excited if j == i else eye2 for j in range(n_atoms)])
        for i in range(n_atoms)
    )
    # every basis state, its photon number read off its index, and its excitations
    index, exc = fs.states_up_to(lay, n_max + n_atoms)
    assert np.array_equal(index, np.arange(lay.dim))
    # the kron-built a^dag a holds sqrt(2) * sqrt(2), an ulp above 2
    for diagonal, op in ((fs.factor_index(lay, index, (0,)), nph), (exc, n_ex)):
        assert np.array_equal(diagonal, np.round(np.diag(op).real))
        assert np.max(np.abs(diagonal - np.diag(op))) <= 1e-15
        assert np.count_nonzero(op - np.diag(np.diag(op))) == 0


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_states_up_to_matches_the_label_oracle(n_max, n_atoms):
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    labelled = excitations(lay)
    for n in range(n_max + n_atoms + 1):
        index, exc = fs.states_up_to(lay, n)
        assert np.array_equal(index, np.flatnonzero(labelled <= n))
        assert np.array_equal(exc, labelled[index])
        if n <= n_max:  # every photon number up to n is retained
            assert (np.count_nonzero(exc == n), np.count_nonzero(exc < n)) == \
                fs.sector_sizes(n_atoms, n)

