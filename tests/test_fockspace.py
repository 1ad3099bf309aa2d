import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavitysim import fockspace as fs
from cavitysim.fockspace import HilbertLayout

from conftest import embed_oracle, kron_chain


def test_layout_dimensions():
    lay = HilbertLayout(n_max=2, n_atoms=2)
    assert lay.dim == 12
    assert lay.factor_dims() == (3, 2, 2)
    assert "photon" in lay.ordering


@pytest.mark.parametrize("n_max,n_atoms", [(0, 1), (1, 0), (-1, 2), (2, -1)])
def test_layout_rejects_bad_sizes(n_max, n_atoms):
    with pytest.raises(ValueError):
        HilbertLayout(n_max=n_max, n_atoms=n_atoms)


def test_annihilation_ladder_action():
    lay = HilbertLayout(n_max=1, n_atoms=1)
    a = fs.annihilation(lay)
    one = fs.basis_state(lay, 1, "g")
    zero = fs.basis_state(lay, 0, "g")
    assert np.allclose(a @ one, zero)        # a|1> = |0>, amplitude sqrt(1)=1
    assert np.allclose(a @ zero, 0.0)        # vacuum annihilation


def test_annihilation_matrix_element_sqrt3():
    # ladder rule oracle: <2|a|3> = sqrt(3)
    lay = HilbertLayout(n_max=3, n_atoms=1)
    a = fs.annihilation(lay)
    bra = fs.basis_state(lay, 2, "g")
    ket = fs.basis_state(lay, 3, "g")
    assert bra.conj() @ a @ ket == pytest.approx(np.sqrt(3.0), abs=1e-15)


def test_atom_lowering_single_atom():
    lay = HilbertLayout(n_max=1, n_atoms=1)
    sm = fs.atom_lowering(lay, 1)
    assert np.allclose(sm @ fs.basis_state(lay, 0, "e"), fs.basis_state(lay, 0, "g"))
    assert np.allclose(sm @ fs.basis_state(lay, 0, "g"), 0.0)


def test_atom_lowering_acts_only_on_its_atom():
    lay = HilbertLayout(n_max=1, n_atoms=2)
    s2 = fs.atom_lowering(lay, 2)
    assert np.allclose(s2 @ fs.basis_state(lay, 0, "ge"), fs.basis_state(lay, 0, "gg"))
    assert np.allclose(s2 @ fs.basis_state(lay, 0, "eg"), 0.0)


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_lowering_projector_spectrum(n_max, n_atoms):
    # full eigendecomposition oracle: sigma^dag sigma has eigenvalues in {0,1}
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    for i in range(1, n_atoms + 1):
        sm = fs.atom_lowering(lay, i)
        evals = np.linalg.eigvalsh(sm.conj().T @ sm)
        assert np.all((np.abs(evals) < 1e-12) | (np.abs(evals - 1) < 1e-12))


def test_sigma_z_action_and_trace():
    lay = HilbertLayout(n_max=1, n_atoms=1)
    sz = fs.atom_sigma_z(lay, 1)
    e = fs.basis_state(lay, 0, "e")
    g = fs.basis_state(lay, 0, "g")
    assert np.allclose(sz @ e, e)
    assert np.allclose(sz @ g, -g)
    lay12 = HilbertLayout(n_max=2, n_atoms=2)
    assert lay12.dim == 12
    assert np.trace(fs.atom_sigma_z(lay12, 1)) == pytest.approx(0.0, abs=1e-15)


def test_atom_index_out_of_range():
    lay = HilbertLayout(n_max=1, n_atoms=2)
    for bad in (0, 3, -1):
        with pytest.raises(ValueError):
            fs.atom_lowering(lay, bad)
        with pytest.raises(ValueError):
            fs.atom_sigma_z(lay, bad)


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
    vec = fs.basis_state(lay, 1, "gg")
    assert np.argmax(np.abs(vec)) == 4
    assert _enumerated_index(lay, 1, (0, 0)) == 4
    assert np.argmax(np.abs(fs.basis_state(lay, 0, "gg"))) == 0


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
    vec = fs.basis_state(lay, n, bits)
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


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_truncated_commutator_identity(n_max, n_atoms):
    # [a, a^dag] = I - (n_max+1)|n_max><n_max| on the photon factor
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    a = fs.annihilation(lay)
    ad = a.conj().T
    comm = a @ ad - ad @ a
    top = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    top[n_max, n_max] = 1.0
    expected = np.eye(lay.dim) - (n_max + 1) * embed_oracle(lay, 0, top)
    assert np.max(np.abs(comm - expected)) < 1e-12


def test_atom_operators_commute_across_atoms():
    lay = HilbertLayout(n_max=2, n_atoms=3)
    ops = [fs.atom_lowering(lay, i) for i in (1, 2, 3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.max(np.abs(ops[i] @ ops[j] - ops[j] @ ops[i])) == 0.0


@pytest.mark.parametrize("n_max,n_atoms", [(1, 1), (2, 2), (3, 2), (1, 4)])
def test_embedding_against_kron_oracle(n_max, n_atoms):
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    assert lay.dim <= 64
    a_block = fs.photon_annihilation_block(n_max)
    assert np.max(np.abs(fs.annihilation(lay) - embed_oracle(lay, 0, a_block))) == 0.0
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    sz = np.diag([-1.0, 1.0]).astype(complex)
    for i in range(1, n_atoms + 1):
        assert np.max(np.abs(fs.atom_lowering(lay, i) - embed_oracle(lay, i, sm))) == 0.0
        assert np.max(np.abs(fs.atom_sigma_z(lay, i) - embed_oracle(lay, i, sz))) == 0.0


def test_excitation_number_diagonal():
    lay = HilbertLayout(n_max=2, n_atoms=2)
    n_ex = fs.excitation_number(lay)
    for n in range(3):
        for pattern in ("gg", "ge", "eg", "ee"):
            v = fs.basis_state(lay, n, pattern)
            expected = n + pattern.count("e")
            assert v.conj() @ n_ex @ v == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_number_diagonals_match_kron_operators(n_max, n_atoms):
    lay = HilbertLayout(n_max=n_max, n_atoms=n_atoms)
    a = fs.photon_annihilation_block(n_max)
    eye2 = np.eye(2, dtype=complex)
    excited = np.diag([0.0, 1.0]).astype(complex)
    nph = kron_chain([a.conj().T @ a] + [eye2] * n_atoms)
    n_ex = nph + sum(
        kron_chain([np.eye(n_max + 1)] + [excited if j == i else eye2 for j in range(n_atoms)])
        for i in range(n_atoms)
    )
    # the kron-built a^dag a holds sqrt(2) * sqrt(2), an ulp above 2
    for diagonal, op in ((fs.photon_number_diagonal(lay), nph),
                         (fs.excitation_number_diagonal(lay), n_ex)):
        assert np.array_equal(diagonal, np.round(np.diag(op).real))
        assert np.max(np.abs(diagonal - np.diag(op))) <= 1e-15
        assert np.count_nonzero(op - np.diag(np.diag(op))) == 0
    assert np.array_equal(fs.number_operator(lay), np.diag(fs.photon_number_diagonal(lay)))
    assert np.array_equal(fs.excitation_number(lay),
                          np.diag(fs.excitation_number_diagonal(lay)))


def test_basis_labels():
    lay = HilbertLayout(n_max=1, n_atoms=2)
    assert lay.basis_label(0) == "0,gg"
    assert lay.basis_label(4) == "1,gg"
    assert lay.basis_label(3) == "0,ee"
    assert fs.basis_labels(lay)[5] == "1,ge"


def test_assert_hermitian():
    fs.assert_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]))
    with pytest.raises(ValueError):
        fs.assert_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
