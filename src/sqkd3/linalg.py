"""Qutrit linear algebra: the three measurement bases and base-3 entropies.

Everything works on plain complex numpy arrays. Vectors are 1-d arrays,
operators 2-d; dimensions are carried at runtime so the same kernels serve
the 3-dimensional qutrit space and the composite eavesdropper spaces
(up to 3 x 81).
"""
from __future__ import annotations

import numpy as np

LN3 = np.log(3.0)

#: primitive third root of unity
OMEGA = np.exp(2j * np.pi / 3)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_CLAMP = 1e-10


def _build_bases() -> dict[str, np.ndarray]:
    w = OMEGA
    a = np.eye(3, dtype=complex)
    t = np.stack([
        np.array([w, 1, 1], dtype=complex),
        np.array([1, w, 1], dtype=complex),
        np.array([1, 1, w], dtype=complex),
    ], axis=1) / np.sqrt(3)
    k = np.stack([
        np.array([1, 1, 1], dtype=complex),
        np.array([1, w, np.conj(w)], dtype=complex),
        np.array([1, np.conj(w), w], dtype=complex),
    ], axis=1) / np.sqrt(3)
    return {"A": a, "T": t, "K": k}


_BASES = _build_bases()


def basis_vectors(basis_id: str) -> np.ndarray:
    """Return one of the three qutrit bases as a 3x3 array, column j = ket j
    (a fresh copy).

    "A" is the canonical basis; "T" and "K" are the two alternative bases,
    each mutually unbiased with A (all cross overlaps have squared
    magnitude 1/3).
    """
    if basis_id not in _BASES:
        raise ValueError(f"unknown basis id {basis_id!r}, expected A, T or K")
    return _BASES[basis_id].copy()


def entropy3(probs) -> np.ndarray:
    """Base-3 Shannon entropy of each row (last axis) of an array.

    -sum p_i log3 p_i with 0 log 0 := 0; the result has the input's shape
    without its last axis.  Rows are used as given: no renormalisation.
    Entries in [-1e-12, 0) count as 0; more negative, NaN and infinite
    entries raise.

    A non-positive entry is replaced by 1, whose term 1 log 1 is an exact
    0, and each row is summed over all its entries as numpy sums a 1-d
    array.  So a row's value does not depend on the other rows, and a row
    of fewer than 8 entries, which numpy sums in order, has the value of
    the sum over its positive entries alone.
    """
    p = np.ascontiguousarray(probs, dtype=float)
    # the minimum is NaN if an entry is; the all-positive path makes no
    # second pass
    if not p.min(initial=np.inf) > 0:
        valid = p >= -1e-12  # False at NaN
        if not valid.all():
            raise ValueError(f"invalid probability {p[~valid][0]} in entropy argument")
        p = np.where(p > 0, p, 1.0)
    terms = np.log(p)
    terms *= p
    # -s / LN3 and s / -LN3 are the same float
    out = terms.sum(axis=-1) / -LN3
    # Every entry is now positive, so no row entropy is NaN or +inf, and a
    # +inf entry has an infinite term, which makes its row entropy -inf: one
    # test of the least row entropy stands for a second pass over p.
    if not out.min(initial=np.inf) > -np.inf:
        raise ValueError(f"invalid probability {p.max()} in entropy argument")
    return out


def sequential_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, adding the terms in order:
    ((t0 + t1) + t2) + ...

    A C-ordered sum over the leading axis adds in that order when each term
    has more than one entry; with one entry numpy sums pairwise instead, so
    that case takes an accumulate, which is sequential but slower.
    """
    if terms[0].size > 1:
        return np.ascontiguousarray(terms).sum(axis=0)
    return np.add.accumulate(terms)[-1]


def sq_norms(v: np.ndarray) -> np.ndarray:
    """Squared norms <v|v> over the last axis of a stack of vectors.

    One stacked 1 x n by n x 1 product per vector, which gives each norm
    the bits of np.vdot(v, v).real.
    """
    return np.matmul(v.conj()[..., None, :], v[..., :, None])[..., 0, 0].real


def shannon_entropy3(probs) -> float:
    """Base-3 Shannon entropy -sum p_i log3 p_i with 0 log 0 := 0.

    The input is used as given: no renormalisation. Entries may sum to
    anything nonnegative; entries in [-1e-12, 0) are clamped to 0.
    """
    return float(entropy3(np.ravel(probs)))


def von_neumann_entropy3(rho: np.ndarray) -> float:
    """Base-3 von Neumann entropy of a density matrix.

    rho is the (n, n) matrix, or a stack (..., n, n) of the diagonal blocks
    of a block-diagonal one (a 2-d input is the one-block stack).  Every
    block must be Hermitian within tolerance and the block traces must sum
    to 1.  Each block is Hermitized as (M + M^dag)/2.  Its exactly-zero
    rows and columns, which only add zero eigenvalues, are dropped; the
    rest is split into the connected components of its nonzero pattern,
    which are diagonal blocks up to a permutation, and each component is
    eigendecomposed on its own, on its rows in increasing order (the
    components of one size from all blocks in one batched call).  A fully
    linked block is one component.  Eigenvalues in [-1e-10, 0) are clamped
    to 0.
    """
    rho = np.asarray(rho, dtype=complex)
    stack = rho.reshape((-1,) + rho.shape[-2:])
    adjoint = stack.conj().swapaxes(-1, -2)
    # a non-finite entry makes the deviation NaN, which fails this test
    if not np.max(np.abs(stack - adjoint)) <= HERMITICITY_TOL:
        raise ValueError("operator is not Hermitian within tolerance, "
                         "or has a non-finite entry")
    trace = np.trace(stack, axis1=-2, axis2=-1).sum()
    if abs(trace.real - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {trace} is not 1 within tolerance")
    herm = stack + adjoint
    herm *= 0.5
    evals = np.sort(np.concatenate([np.linalg.eigvalsh(c).ravel()
                                    for c in _components(herm)]))
    if evals.min() < -EIGENVALUE_CLAMP:
        raise ValueError(f"negative eigenvalue {evals.min()} beyond tolerance")
    return shannon_entropy3(evals[evals > 0])


def _components(stack: np.ndarray) -> list:
    """The connected components of the nonzero patterns of a stack (k, n, n)
    of Hermitian matrices, leaving out zero rows, as one (count, m, m)
    stack per component size m; each component keeps its rows in
    increasing order.

    A stack with no zero entry is its own one stack, at the cost of one
    check; any other stack is labelled by _component_labels.
    """
    linked = stack != 0
    if linked.all():
        return [stack]
    k, n, _ = linked.shape
    rows = np.flatnonzero(linked.any(axis=-1))
    label = _component_labels(linked)[rows]
    size = np.bincount(label)[label]
    # by size, then component; the stable sort keeps each component's rows
    # in increasing order
    rows = rows[np.argsort(size * (k * n) + label, kind="stable")]
    per_size = np.bincount(size)   # rows in the components of each size
    flat = stack.reshape(k * n, n)
    out, start = [], 0
    for m in np.flatnonzero(per_size):
        comp = rows[start:start + per_size[m]].reshape(-1, m)
        start += per_size[m]
        out.append(flat[comp[:, :, None], comp[:, None, :] % n])
    return out


def _component_labels(linked: np.ndarray) -> np.ndarray:
    """One label per row of a stack (k, n, n) of symmetric boolean patterns,
    flat over (k, n): the rows of one connected component share the flat
    index of the least of them, and a row with no True entry keeps its own.

    Runs _label_pass until a pass changes no label.  A chain of n rows
    takes at most ceil(log2 n) + 1 passes: each pass merges every tree of
    rows with a tree next to it, except trees with no lesser label next
    to them, which on a chain are at most every other tree.
    """
    label = np.arange(linked.shape[0] * linked.shape[1])
    while True:
        least = _label_pass(linked, label)
        if (least == label).all():
            return label
        label = least


def _label_pass(linked: np.ndarray, label: np.ndarray) -> np.ndarray:
    """One pass of _component_labels over labels that each point at a root
    (a row labelled by itself): every row takes the least label among its
    own and its neighbours', every root the least label that its rows took
    (hooking its whole tree), then every label points at its label's label
    until that changes nothing (pointer jumping)."""
    k, n, _ = linked.shape
    seen = np.broadcast_to(label.reshape(k, 1, n), linked.shape)
    least = np.minimum.reduce(seen, axis=-1, where=linked,
                              initial=k * n).ravel()
    np.minimum(least, label, out=least)
    np.minimum.at(least, label, least)
    jumped = least[least]
    while (jumped != least).any():
        least, jumped = jumped, jumped[jumped]
    return least


def gaussian_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian rows x cols matrix (rows >= cols) that haar_isometry
    factors: rng draws all the real parts, then all the imaginary parts.

    The draws are written into one complex array.  rng.normal adds its loc
    0.0, so it never returns -0.0, and the matrix has the bits of
    rng.normal(...) + 1j * rng.normal(...)."""
    if rows < cols:
        raise ValueError("isometry needs rows >= cols")
    z = np.empty((rows, cols), dtype=complex)
    z.real, z.imag = rng.normal(size=(2, rows, cols))
    return z


def isometries_from_gaussian(z: np.ndarray) -> np.ndarray:
    """Haar-random isometries from a stack (..., rows, cols) of complex
    Gaussian matrices: the Q of each matrix's QR factorisation, column k
    times the phase of R's diagonal entry k.

    numpy's qr factors a stack one matrix at a time, so each result has the
    bits it has when its matrix is factored alone.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry (rows x cols, rows >= cols) with V^dag V = I,
    a Haar unitary when rows == cols."""
    return isometries_from_gaussian(gaussian_matrix(rows, cols, rng))
