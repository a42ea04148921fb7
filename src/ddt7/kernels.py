"""Batched grid kernels, numpy only.  Fields are coefficient-major float64
(n_coeffs, npts) arrays, one contiguous row per blade, and tables come from
``tables``.  ``wedge_fields`` is the one loop over wedge table entries,
and only ``torus`` calls it (``wedge_field``, ``cube_field`` and, over the
contraction table, ``interior_field``; the CG adjoint in ``flow`` is a
``wedge_field`` between two Hodge stars).
``hodge_fields`` is a signed row gather.

Importing this module sets the C library's malloc thresholds once, for the
whole process, when that library is glibc (see ``_hold_freed_heap``).
"""
from __future__ import annotations

import ctypes
import os

import numpy as np

# bytes per gathered temporary: at 512 points every float64 table of up to
# 128 entries is one block, and at 4096 points a block fits a 2 MiB L2.
# Blocks are cut at multiples of 64 points (at least 64, past the budget
# if need be), so every block's SIMD lanes fall where one whole-row block's
# would and a point's bits do not depend on the budget.
_BLOCK_BYTES = 1 << 19

# glibc's mallopt parameters (malloc.h) and the ceiling its adaptive rule
# reaches: DEFAULT_MMAP_THRESHOLD_MAX on 64-bit, trim at twice that
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _hold_freed_heap() -> None:
    """Set glibc's mmap threshold to 32 MiB and its trim threshold to 64 MiB.

    glibc starts both near 128 KiB and raises them only when the process
    frees an mmapped block, up to these values once it frees a 32 MiB one.
    At desk and benchmark scale the field solvers never free a block that
    large, so their short-lived (npts x 35) temporaries were trimmed from
    the top of the heap and faulted back in on every rk4 stage.  Setting
    the ceiling at once keeps blocks under 32 MiB on the heap and up to
    64 MiB of free heap top mapped.  Process-wide, when the module is first
    imported; nothing runs on another C library, and no arithmetic changes.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    if not (libc or "").startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt  # int mallopt(int, int)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_hold_freed_heap()


def wedge_fields(A, B, ii, jj, signs):
    """out[o, p] = sum_e signs[o, 0, e - o*m] * A[ii[e], p] * B[jj[e], p]
    over o's entries, for float64 fields A and B.

    The table must be grouped by output: entries o*m .. o*m + m - 1 belong
    to output o, as ``tables.wedge_arrays`` orders them, so no output row
    is passed.  ``signs`` is the grouped table's float64 (dim_out, 1, m)
    sign array, which gives dim_out and m.  Each block of points gathers
    the entry products as rows and sums every output's m products with
    their signs as one stacked (1 x m)(m x points) product, written in
    place into the output's block.  A block is the widest multiple of 64
    points whose products fit in ``_BLOCK_BYTES`` (64 points if none
    does); when one block holds every point, the gathers take whole rows.
    Each point's bits are the same for any budget.
    """
    dim_out, _, m = signs.shape
    npts = A.shape[1]
    block = max(64, _BLOCK_BYTES // (len(ii) * A.itemsize) // 64 * 64)
    if block >= npts:
        prod = A.take(ii, axis=0)
        prod *= B.take(jj, axis=0)
        return np.matmul(signs, prod.reshape(dim_out, m, npts)).reshape(dim_out, npts)
    out = np.empty((dim_out, npts))
    for lo in range(0, npts, block):
        hi = min(lo + block, npts)
        prod = A[ii, lo:hi]
        prod *= B[jj, lo:hi]
        np.matmul(signs, prod.reshape(dim_out, m, -1), out=out[:, None, lo:hi])
    return out


def hodge_fields(A, src, sgn):
    """out[o] = sgn[o] * A[src[o]]: the Hodge star as a signed row gather,
    from the gather form ``tables.hodge_gather``.  The sign is applied in
    place to the gathered copy, never to A."""
    out = A[src]
    out *= sgn[:, None]
    return out


def bareiss_ranks(mats):
    """Exact ranks of a batch of integer matrices, by fraction-free
    (Bareiss) elimination on Python ints in an object array, so no entry
    can overflow and each Bareiss quotient is exact.

    Vectorized over the batch with a per-matrix row pointer, since matrices
    may skip pivot columns independently.  Each step updates only columns
    ``col:`` (in the rows still being eliminated, and in the pivot row,
    every column left of ``col`` is already zero) and only rows below the
    lowest row pointer among the matrices that found a pivot.  Rows at or
    above a matrix's own pivot are computed but not written; each written
    entry is a minor of the input.
    """
    M = np.array(mats, dtype=object)
    nb, nr, nc = M.shape
    r = np.zeros(nb, dtype=np.int64)
    prev = np.ones(nb, dtype=M.dtype)
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
        np.floor_divide(upd, prev[:, None, None], out=upd)
        elim = act[:, None] & (rows[None, top:] > r[:, None])
        np.copyto(sub, upd, where=elim[:, :, None])
        prev = np.where(act, pivrow[:, 0], prev)
        r = r + act
    return r


def backend_name() -> str:
    """The kernel backend recorded in reports; numpy is the only one."""
    return "numpy"
