"""Integer structure tables as numpy arrays, for the batched field kernels.

Everything here is derived from the exact tables in ``exalg`` and from the
standard associative 3-form, so the batched numeric path and the symbolic
path share one source of truth.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import g2
from .exalg import KForm, blades, hodge_table, wedge, wedge_table


@lru_cache(maxsize=None)
def wedge_arrays(n: int, p: int, q: int):
    """(i, j, out, sign) columns of the wedge structure table, int64,
    stably sorted by output blade.

    Every output blade of degree p+q has exactly C(p+q, p) entries, so
    ``out`` is ``repeat(arange(dim_out), C(p+q, p))``: the grouping
    ``kernels.wedge_fields`` relies on.
    """
    t = np.asarray(wedge_table(n, p, q), dtype=np.int64).reshape(-1, 4)
    t = t[np.argsort(t[:, 2], kind="stable")]
    return tuple(np.ascontiguousarray(t[:, c]) for c in range(4))


@lru_cache(maxsize=None)
def wedge_adjoint_arrays(n: int, p: int, q: int):
    """The p^q table regrouped for y, w -> x with <x ^ w, y> = <x, adj>.

    Columns (out, j, i, sign), stably sorted by the p-form blade i, so that
    ``wedge_fields(y, w, *wedge_adjoint_arrays(n, p, q), dim_p)`` is the
    adjoint of x -> x ^ w.  Each p-blade meets C(n-p, q) q-blades.
    """
    ii, jj, oo, ss = wedge_arrays(n, p, q)
    order = np.argsort(ii, kind="stable")
    return tuple(np.ascontiguousarray(c[order]) for c in (oo, jj, ii, ss))


@lru_cache(maxsize=None)
def hodge_arrays(n: int, k: int):
    """(target, sign) per source blade, int64."""
    t = np.asarray(hodge_table(n, k), dtype=np.int64)
    return np.ascontiguousarray(t[:, 0]), np.ascontiguousarray(t[:, 1])


@lru_cache(maxsize=None)
def wedge_const_matrix(n: int, p: int, q: int, const_coeffs: tuple) -> np.ndarray:
    """Matrix M with (f ^ c)_out = sum_i M[out, i] f_i for the fixed q-form c.

    Used to turn "wedge with a constant form" (phi, *phi, flux background)
    into one matmul over the whole grid.
    """
    ii, jj, oo, ss = wedge_arrays(n, p, q)
    c = np.asarray(const_coeffs, dtype=np.float64)
    M = np.zeros((len(blades(n, p + q)), len(blades(n, p))))
    M[oo, ii] = ss * c[jj]  # each (out, i) pair occurs once
    return M


@lru_cache(maxsize=None)
def mode_weight_tensor() -> np.ndarray:
    """Float tensor S, (35, 7, 7, 7), linear in a constant 4-form W.

    T = tensordot(W, S, 1) gives, for each axis i, the 7x7 matrix T[i] of
    b |-> (e_i ^ b) ^ W on 1-form coefficients (rows index 6-form blades),
    so the Fourier symbol of b |-> db ^ W at mode k is 2*pi*i sum_i k_i T[i].
    At W = *phi, T is ``mode_kernel_tensors()[0]``.  Linear in W rather than
    built per W, so no cache grows with the weights a solver meets.
    """
    ia, ib, io, isg = wedge_arrays(7, 1, 1)
    axis = np.zeros((7, 21, 7))
    axis[ia, io, ib] = isg  # e_i ^ e_b, each (i, b) pair once
    ii, jj, oo, ss = wedge_arrays(7, 2, 4)
    by_w = np.zeros((35, 7, 21))
    by_w[jj, oo, ii] = ss  # x ^ e_j for a 2-blade x, each (x, j) pair once
    return np.einsum("joc,icb->jiob", by_w, axis)


@lru_cache(maxsize=None)
def mode_kernel_tensors():
    """Integer tensors (T, U) for the per-mode linearization on the 7-torus.

    For an integer mode k, the Fourier symbol of b |-> (dx_k ^ b) ^ *phi on
    1-form coefficients is A_k = sum_i k_i T[i]  (7x7), and the symbol of
    g |-> dx_k ^ g on 5-form coefficients is B_k = sum_i k_i U[i]  (7x21).
    Rows index 6-form blades.
    """
    one = g2.standard()
    T = np.zeros((7, 7, 7), dtype=np.int64)
    U = np.zeros((7, 7, 21), dtype=np.int64)
    ring = one.star_phi.ring
    for i in range(7):
        ei = KForm.from_blades(7, 1, {(i + 1,): 1}, ring)
        for b in range(7):
            eb = KForm.from_blades(7, 1, {(b + 1,): 1}, ring)
            out = wedge(wedge(ei, eb), one.star_phi)
            T[i, :, b] = [int(c) for c in out.coeffs]
        for gpos, gblade in enumerate(blades(7, 5)):
            eg = KForm.from_blades(7, 5, {gblade: 1}, ring)
            out = wedge(ei, eg)
            U[i, :, gpos] = [int(c) for c in out.coeffs]
    return T, U
