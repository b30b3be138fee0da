import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqkd3.linalg import (basis_vectors, haar_isometry, shannon_entropy3,
                          von_neumann_entropy3)

# frozen oracle value: -sum p log3 p at 40 digits (mpmath)
H3_08_01_01 = 0.5816718657178868


def test_basis_a_is_canonical():
    a = basis_vectors("A")
    assert np.allclose(a, np.eye(3))


def test_basis_t_orthonormal():
    t = basis_vectors("T")
    assert np.max(np.abs(t.conj().T @ t - np.eye(3))) < 1e-12


@pytest.mark.parametrize("alt", ["T", "K"])
def test_mutual_unbiasedness_with_a(alt):
    v = basis_vectors(alt)
    overlaps = np.abs(basis_vectors("A").conj().T @ v) ** 2
    assert np.max(np.abs(overlaps - 1.0 / 3.0)) < 1e-12


def test_unknown_basis_rejected():
    with pytest.raises(ValueError):
        basis_vectors("B")


def test_shannon_uniform_and_deterministic():
    assert shannon_entropy3([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(1.0, abs=1e-12)
    assert shannon_entropy3([1.0, 0.0, 0.0]) == 0.0


def test_shannon_frozen_oracle_value():
    assert shannon_entropy3([0.8, 0.1, 0.1]) == pytest.approx(H3_08_01_01,
                                                              abs=1e-12)


def test_shannon_not_renormalized():
    # twice the mass is not the same entropy
    assert shannon_entropy3([2 / 3, 2 / 3, 2 / 3]) != pytest.approx(
        shannon_entropy3([1 / 3, 1 / 3, 1 / 3]), abs=1e-3)


def test_shannon_rejects_negative():
    with pytest.raises(ValueError):
        shannon_entropy3([0.5, -0.1, 0.6])


def test_von_neumann_maximally_mixed_and_pure():
    assert von_neumann_entropy3(np.eye(3) / 3) == pytest.approx(1.0, abs=1e-12)
    proj = np.zeros((3, 3), dtype=complex)
    proj[0, 0] = 1.0
    assert von_neumann_entropy3(proj) == pytest.approx(0.0, abs=1e-12)


def test_von_neumann_matches_shannon_on_diagonal():
    probs = [0.5, 0.3, 0.2]
    assert von_neumann_entropy3(np.diag(probs).astype(complex)) == pytest.approx(
        shannon_entropy3(probs), abs=1e-10)


def test_von_neumann_rejects_bad_input():
    m = np.eye(3, dtype=complex)
    m[0, 1] = 0.5  # not Hermitian
    with pytest.raises(ValueError):
        von_neumann_entropy3(m)
    with pytest.raises(ValueError):
        von_neumann_entropy3(np.eye(3, dtype=complex))  # trace 3


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_haar_isometry_square_is_unitary(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 10))
    u = haar_isometry(dim, dim, rng)
    assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([3, 9]))
@settings(max_examples=25, deadline=None)
def test_entropy_invariant_under_conjugation(seed, dim):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(dim))
    rho = np.diag(probs).astype(complex)
    u = haar_isometry(dim, dim, rng)
    rotated = u @ rho @ u.conj().T
    assert von_neumann_entropy3(rotated) == pytest.approx(
        shannon_entropy3(probs), abs=1e-9)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_shannon_equals_von_neumann_on_diagonals(seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(3))
    assert von_neumann_entropy3(np.diag(probs).astype(complex)) == pytest.approx(
        shannon_entropy3(probs), abs=1e-10)


def _block_diagonal_state(sizes, n_zero, rng, chains=False):
    """Density matrix with blocks of the given sizes on its diagonal,
    followed by n_zero zero rows.  Blocks are dense, or with chains=True
    randomly dense or tridiagonal (linked only through a path)."""
    weights = rng.dirichlet(np.ones(len(sizes)))
    dim = sum(sizes) + n_zero
    rho = np.zeros((dim, dim), dtype=complex)
    start = 0
    for w, size in zip(weights, sizes):
        if chains and rng.random() < 0.5:
            b = np.diag(rng.normal(size=size) + 1j * rng.normal(size=size))
            b += np.diag(rng.normal(size=size - 1) + 1.0, k=-1)
            block = b @ b.conj().T
            block /= block.trace().real
        else:
            u = haar_isometry(size, size, rng)
            block = u @ np.diag(rng.dirichlet(np.ones(size))).astype(complex) \
                @ u.conj().T
        rho[start:start + size, start:start + size] = w * block
        start += size
    return rho


def _full_spectrum_entropy(rho):
    return shannon_entropy3(np.clip(np.linalg.eigvalsh(rho), 0.0, None))


@given(st.integers(min_value=0, max_value=10_000),
       st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=5))
@example(0, [9], 0)   # dense: one block, no zero row
@example(1, [1], 6)   # one live row
@settings(max_examples=60, deadline=None)
def test_von_neumann_blockwise_equals_full_spectrum(seed, sizes, n_zero):
    rng = np.random.default_rng(seed)
    rho = _block_diagonal_state(sizes, n_zero, rng, chains=True)
    perm = rng.permutation(len(rho))
    rho = rho[np.ix_(perm, perm)]
    assert abs(von_neumann_entropy3(rho) - _full_spectrum_entropy(rho)) < 1e-12


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=4),
       st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=3), st.booleans())
@example(0, 1, [4], 0, False)   # one dense block
@example(1, 3, [2, 1], 2, True)
@settings(max_examples=40, deadline=None)
def test_von_neumann_of_block_stack_equals_assembled_matrix(seed, n_blocks, sizes,
                                                            n_zero, zero_block):
    rng = np.random.default_rng(seed)
    n = sum(sizes) + n_zero
    stack = np.zeros((n_blocks + zero_block, n, n), dtype=complex)
    for b, w in enumerate(rng.dirichlet(np.ones(n_blocks))):
        perm = rng.permutation(n)
        stack[b] = w * _block_diagonal_state(sizes, n_zero, rng, chains=True)[
            np.ix_(perm, perm)]
    stack = stack[rng.permutation(len(stack))]
    dense = np.zeros((len(stack) * n, len(stack) * n), dtype=complex)
    for b, block in enumerate(stack):
        dense[b * n:(b + 1) * n, b * n:(b + 1) * n] = block
    assert von_neumann_entropy3(stack) == von_neumann_entropy3(dense)


_FAULTS = [("non-hermitian", "not Hermitian"), ("trace", "trace"),
           ("negative", "negative eigenvalue"), ("nan", "non-finite"),
           ("inf", "non-finite")]


def _state_with_fault(fault):
    """An 8x8 state, two zero rows and two 3x3 blocks at 1..6, with the
    fault in its second block."""
    rng = np.random.default_rng(5)
    rho = _block_diagonal_state([3, 3], 0, rng)
    if fault == "non-hermitian":
        rho[4, 5] += 1e-3
    elif fault == "trace":
        rho[3:, 3:] *= 1.5
    elif fault == "negative":
        rho[3:, 3:] = np.diag([rho[3:, 3:].trace().real + 0.01, 0.0, -0.01])
    else:
        rho[4, 5] = rho[5, 4] = np.nan if fault == "nan" else np.inf
    big = np.zeros((8, 8), dtype=complex)
    big[1:7, 1:7] = rho
    return big


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("fault,message", _FAULTS)
def test_von_neumann_rejects_fault_inside_one_block(fault, message):
    with pytest.raises(ValueError, match=message):
        von_neumann_entropy3(_state_with_fault(fault))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("fault,message", _FAULTS)
def test_von_neumann_rejects_fault_inside_one_block_of_a_stack(fault, message):
    # the faulty state shares the trace with a healthy block and a zero block
    healthy = _block_diagonal_state([2, 4], 2, np.random.default_rng(6))
    stack = np.stack([0.5 * healthy, np.zeros((8, 8)), 0.5 * _state_with_fault(fault)])
    with pytest.raises(ValueError, match=message):
        von_neumann_entropy3(stack)
