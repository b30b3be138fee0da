"""Qutrit linear algebra: the three measurement bases and base-3 entropies.

Everything works on plain complex numpy arrays. Vectors are 1-d arrays,
operators 2-d; dimensions are carried at runtime so the same kernels serve
the 3-dimensional qutrit space and the composite eavesdropper spaces
(up to 3 x 81).
"""
from __future__ import annotations

import math

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
    Entries in [-1e-12, 0) count as 0; more negative entries raise.

    Each row is summed over exactly its positive entries, in their order,
    so its value is that of the 1-d sum over those entries and does not
    depend on the other rows or on where its zeros sit.
    """
    p = np.asarray(probs, dtype=float)
    if (p < -1e-12).any():
        raise ValueError(f"negative probability {p.min()} in entropy argument")
    rows = p.reshape(math.prod(p.shape[:-1]), p.shape[-1])
    keep = rows > 0
    if keep.all():
        return _positive_entropy3(rows).reshape(p.shape[:-1])
    out = np.empty(len(rows))
    pending = np.ones(len(rows), dtype=bool)
    while pending.any():  # once per distinct pattern of positive entries
        mask = keep[pending.argmax()]
        group = pending & (keep == mask).all(axis=1)
        pending &= ~group
        out[group] = _positive_entropy3(rows[group][:, mask])
    return out.reshape(p.shape[:-1])


def _positive_entropy3(rows: np.ndarray) -> np.ndarray:
    # row-major, so numpy sums each row pairwise as it sums a 1-d array
    v = np.ascontiguousarray(rows)
    return -(v * np.log(v)).sum(axis=1) / LN3


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
    eigendecomposed on its own (the components of one size from all
    blocks in one batched call).  A fully linked block is one component.
    Eigenvalues in [-1e-10, 0) are clamped to 0.
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
    components = {}   # size -> list of (k, size, size) stacks
    for block in herm:
        for idx in _linked_blocks(block != 0):
            components.setdefault(idx.shape[1], []).append(
                block[idx[:, :, None], idx[:, None, :]])
    evals = np.sort(np.concatenate([
        np.linalg.eigvalsh(np.concatenate(parts)).ravel()
        for parts in components.values()]))
    if evals.min() < -EIGENVALUE_CLAMP:
        raise ValueError(f"negative eigenvalue {evals.min()} beyond tolerance")
    return shannon_entropy3(np.clip(evals, 0.0, None))


def _linked_blocks(linked: np.ndarray) -> list:
    """Connected components of a symmetric boolean pattern, leaving out
    rows with no True entry, as one (k, m) index array per block size m.

    Breadth-first search that expands each row once, so O(n^2) in all.
    A pattern with no False entry is one block at the cost of one check,
    so a small dense operator pays a few numpy calls over its eigvalsh.
    """
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


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry (rows x cols, rows >= cols) with V^dag V = I,
    a Haar unitary when rows == cols."""
    if rows < cols:
        raise ValueError("isometry needs rows >= cols")
    z = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q[:, :cols] * (d / np.abs(d))
