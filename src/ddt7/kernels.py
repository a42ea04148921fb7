"""Batched grid kernels, numpy only.  Fields are (npts, ncoeffs) arrays and
tables come from ``tables``.  ``wedge_fields`` is the one loop over wedge
table entries: ``torus.wedge_field`` and the CG adjoint in ``flow`` use it.
"""
from __future__ import annotations

import numpy as np

# bytes per gathered temporary; 256 KiB blocks ran slower end to end
_BLOCK_BYTES = 1 << 17


def wedge_fields(A, B, ii, jj, oo, ss, dim_out):
    """out[p, oo[e]] = sum_e ss[e] * A[p, ii[e]] * B[p, jj[e]].

    The table must be grouped by output: ``oo`` equal to
    ``repeat(arange(dim_out), m)`` for some m, as ``tables.wedge_arrays``
    guarantees; ``oo`` itself is not read.  Each block of points gathers the
    entry products in coefficient-major layout and sums every output's m
    products with their signs as one stacked (1 x m)(m x points) product.
    The result dtype follows the inputs.
    """
    npts = A.shape[0]
    m = len(ii) // dim_out
    dtype = np.result_type(A, B)
    At = np.ascontiguousarray(A.T, dtype=dtype)
    Bt = np.ascontiguousarray(B.T)
    signs = np.asarray(ss, dtype=dtype).reshape(dim_out, 1, m)
    out = np.empty((npts, dim_out), dtype)
    block = max(1, _BLOCK_BYTES // (len(ii) * out.itemsize))
    for lo in range(0, npts, block):
        prod = At[ii, lo:lo + block]
        prod *= Bt[jj, lo:lo + block]
        prod = prod.reshape(dim_out, m, -1)
        out[lo:lo + block] = np.matmul(signs, prod)[:, 0].T
    return out


def hodge_fields(A, tgt, sgn, dim_out):
    out = np.empty((A.shape[0], dim_out))
    out[:, tgt] = A * sgn
    return out


def bareiss_ranks(mats):
    """Exact ranks of a batch of int64 matrices, fraction-free elimination.

    Vectorized over the batch with a per-matrix row pointer, since matrices
    may skip pivot columns independently.  Each step updates only columns
    ``col:`` (in the rows still being eliminated, and in the pivot row,
    every column left of ``col`` is already zero) and only rows below the
    lowest row pointer among the matrices that found a pivot.  The
    pre-division products ``M * pivot - colvals * pivrow`` must stay below
    2^63; the caller bounds them.  Rows at or above a matrix's own pivot
    are computed but not written, so wrapped products can appear in those
    discarded lanes; only the written lanes are exact.
    """
    M = mats.astype(np.int64, copy=True)
    nb, nr, nc = M.shape
    r = np.zeros(nb, dtype=np.int64)
    prev = np.ones(nb, dtype=np.int64)
    batch = np.arange(nb)
    rows = np.arange(nr)
    for col in range(nc):
        cand = (M[:, :, col] != 0) & (rows[None, :] >= r[:, None])
        piv = np.argmax(cand, axis=1)
        act = cand[batch, piv]
        if not act.any():
            continue
        swap = act & (piv != r)
        if swap.any():
            b2, p2, r2 = batch[swap], piv[swap], r[swap]
            M[b2, r2, col:], M[b2, p2, col:] = M[b2, p2, col:], M[b2, r2, col:]
        rsafe = np.minimum(r, nr - 1)
        top = int(r[act].min()) + 1
        pivrow = M[batch, rsafe, col:]
        pivot = pivrow[:, :1, None]
        sub = M[:, top:, col:]
        upd = sub * pivot
        upd -= sub[:, :, :1] * pivrow[:, None, :]
        upd //= prev[:, None, None]
        elim = act[:, None] & (rows[None, top:] > r[:, None])
        np.copyto(sub, upd, where=elim[:, :, None])
        prev = np.where(act, pivrow[:, 0], prev)
        r = r + act
    return r


def backend_name() -> str:
    """The kernel backend recorded in reports; numpy is the only one."""
    return "numpy"
