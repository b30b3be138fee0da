import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqkd3 import linalg
from sqkd3.linalg import (_component_labels, _components, basis_vectors,
                          entropy3, gaussian_matrix, haar_isometry,
                          shannon_entropy3, von_neumann_entropy3)

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
    # NaN is not a probability either, and must not be dropped as a zero
    with pytest.raises(ValueError, match="nan"):
        shannon_entropy3([np.nan, 0.5])
    with pytest.raises(ValueError, match="nan"):
        entropy3([[0.5, 0.5], [np.nan, np.nan]])
    # +inf would give an entropy of -inf
    with pytest.raises(ValueError, match="invalid probability inf"):
        entropy3([np.inf, 0.5])
    with pytest.raises(ValueError, match="invalid probability inf"):
        entropy3([[0.5, 0.5], [0.5, np.inf]])
    with pytest.raises(ValueError, match="invalid probability inf"):
        entropy3([[0.5, 0.0], [0.0, np.inf]])


@pytest.mark.parametrize("n", [3, 4, 9, 25, 27, 81])
def test_entropy3_row_is_its_value_alone(n):
    rng = np.random.default_rng(n)
    p = rng.random((60, n))
    # zero shares that run from none to all of a row
    p[rng.random((60, n)) < np.linspace(0.0, 1.0, 60)[:, None]] = 0.0
    p[1] = np.eye(n)[n // 2]   # one-hot
    p[2, 1] = -1e-13           # a tolerated negative entry
    got = entropy3(p)
    assert got.shape == (60,) and not p[-1].any()
    for row, value in zip(p, got):
        assert value.tobytes() == entropy3(row).tobytes()
        # numpy sums fewer than 8 terms in order, so a zero term changes
        # no partial sum; longer rows are summed pairwise, where it can
        if n < 8:
            assert value.tobytes() == entropy3(row[row > 0]).tobytes()


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


def _linked_blocks(linked):
    """Connected components of a symmetric boolean pattern, leaving out
    rows with no True entry, as one (k, m) index array per block size m:
    a breadth-first search that expands each row once, the reference for
    the labelling of von_neumann_entropy3."""
    if linked.all():
        return [np.arange(len(linked))[None]]
    unseen = linked.any(axis=1)
    blocks = []
    while unseen.any():
        frontier = unseen.argmax(keepdims=True)
        block = []
        while frontier.size:
            block.append(frontier)
            unseen[frontier] = False
            frontier = (linked[frontier].any(axis=0) & unseen).nonzero()[0]
        blocks.append(np.sort(np.concatenate(block)))
    return [np.array([b for b in blocks if len(b) == m])
            for m in sorted({len(b) for b in blocks})]


def assert_components_equal_search(stack):
    """The labels of stack's pattern give the search's index sets, and
    _components returns the search's components, entry for entry."""
    linked = stack != 0
    k, n, _ = linked.shape
    label = _component_labels(linked).reshape(k, n)
    expected = []
    for b in range(k):
        found = [tuple(idx) for sizes in _linked_blocks(linked[b]) for idx in sizes]
        groups = {}
        for r in np.flatnonzero(linked[b].any(axis=1)):
            groups.setdefault(label[b, r], []).append(r)
        assert sorted(found) == sorted(tuple(g) for g in groups.values())
        expected += [stack[b][np.ix_(idx, idx)].tobytes() for idx in found]
    got = [c.tobytes() for comps in _components(stack) for c in comps]
    assert sorted(got) == sorted(expected)


def _hermitian_with_pattern(pattern, rng):
    """Hermitian matrix with nonzero entries exactly on a symmetric pattern
    whose diagonal holds every row that has a True entry."""
    n = len(pattern)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = np.where(np.triu(pattern, 1), m, 0.0)
    return m + m.conj().T + np.diag(np.where(pattern.any(axis=1), 1.0 + rng.random(n), 0.0))


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=12),
       st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=4),
       st.booleans())
@example(0, 1, 5, 1.0, 0, False)   # one fully linked block
@example(1, 3, 6, 0.3, 2, True)
@settings(max_examples=80, deadline=None)
def test_labelling_equals_breadth_first_search(seed, k, n, density, n_zero, zero_block):
    rng = np.random.default_rng(seed)
    stack = np.zeros((k + zero_block, n, n), dtype=complex)
    for b in range(k):
        pattern = rng.random((n, n)) < density
        pattern |= pattern.T
        pattern[np.diag_indices(n)] = True
        dead = rng.permutation(n)[:n_zero]   # zero rows and columns
        pattern[dead] = pattern[:, dead] = False
        stack[b] = _hermitian_with_pattern(pattern, rng)
    assert_components_equal_search(stack[rng.permutation(len(stack))])


@pytest.mark.parametrize("n, order", [(2, "random"), (3, "random"), (500, "random"),
                                      (500, "two_ended"), (500, "increasing"),
                                      (500, "decreasing")])
def test_labelling_of_a_long_chain(n, order, monkeypatch):
    # a path through the rows in the given order, beside the same path with
    # one row cut out of it; the two-ended order (0, 2, 4, ..., 5, 3, 1)
    # leaves two long trees after the first pass, which a pass that moves
    # rows but not roots would merge one row at a time
    rng = np.random.default_rng(n)
    order = {"random": rng.permutation(n),
             "two_ended": np.r_[np.arange(0, n, 2), np.arange(1, n, 2)[::-1]],
             "increasing": np.arange(n), "decreasing": np.arange(n)[::-1]}[order]
    chain = np.zeros((n, n), dtype=bool)
    chain[order[:-1], order[1:]] = True
    chain |= chain.T | np.eye(n, dtype=bool)
    split = chain.copy()
    half = order[n // 2]
    split[half] = split[:, half] = False
    split[half, half] = True
    stack = np.stack([_hermitian_with_pattern(p, rng) for p in (chain, split)])
    assert_components_equal_search(stack)
    passes = []
    label_pass = linalg._label_pass

    def counting(linked, label):
        passes.append(1)
        return label_pass(linked, label)

    monkeypatch.setattr(linalg, "_label_pass", counting)
    label = _component_labels(stack != 0)
    assert len(set(label[:n])) == 1
    assert len(passes) <= int(np.ceil(np.log2(n))) + 1


def test_labelling_of_an_entry_that_cancels_to_zero():
    # a + (-a) is exactly +0.0: the sum has the pattern of two blocks
    rng = np.random.default_rng(4)
    a = _hermitian_with_pattern(np.ones((4, 4), dtype=bool), rng)
    b = np.zeros_like(a)
    b[0, 2], b[2, 0], b[0, 3], b[3, 0], b[1, 2], b[1, 3], b[2, 1], b[3, 1] = (
        -a[0, 2], -a[2, 0], -a[0, 3], -a[3, 0], -a[1, 2], -a[1, 3], -a[2, 1], -a[3, 1])
    total = a + b
    assert (total[:2, 2:] == 0).all() and (total[:2, :2] != 0).all()
    assert_components_equal_search(total[None])
    assert [c.shape for c in _components(total[None])] == [(2, 2, 2)]


#: the (rows, cols) of every stage that random_attack draws, d_f, d_r in
#: {1, 3, 9}
_STAGE_SHAPES = sorted({(3 * d_f, 3) for d_f in (1, 3, 9)}
                       | {(3 * d_f * d_r, 3 * d_f)
                          for d_f in (1, 3, 9) for d_r in (1, 3, 9)})


@pytest.mark.parametrize("rows,cols", _STAGE_SHAPES)
def test_gaussian_matrix_has_the_bits_of_the_sum_of_its_parts(rows, cols):
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        z = gaussian_matrix(rows, cols, rng)
        want = (ref.normal(size=(rows, cols))
                + 1j * ref.normal(size=(rows, cols)))
        assert z.tobytes() == want.tobytes()
        # and the generator is left where the two draws leave it
        assert rng.normal() == ref.normal()
