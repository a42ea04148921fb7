"""Integer structure tables as numpy arrays, for the batched field kernels.

Everything here is derived from the exact tables in ``exalg`` and from the
standard associative 3-form, so the batched numeric path and the symbolic
path share one source of truth.  ``wedge_tensor`` is the one place a wedge
table becomes a dense per-blade tensor: the d and codiff combines in
``torus`` and the mode symbols below are slices or products of it.  Every
cached array is read-only, since callers share it.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from . import g2
from .exalg import blades, contract_table, hodge_table, power_table, wedge_table
from .scalars import RATIONAL


def read_only(a: np.ndarray) -> np.ndarray:
    """a, marked read-only: for arrays a cache hands to every caller."""
    a.flags.writeable = False
    return a


class GroupedTable(tuple):
    """A structure table's (i, j, out, sign) columns, int64, stably sorted
    by output and read-only, as a 4-tuple, with ``signs``: the sign column
    as a read-only float64 (dim_out, 1, m) array, m entries per output,
    the form ``kernels.wedge_fields`` multiplies by, made once per table."""

    signs: np.ndarray


def _columns_by_output(table) -> GroupedTable:
    """The ``GroupedTable`` of a structure table whose outputs all hold the
    same number of entries."""
    t = np.asarray(table, dtype=np.int64).reshape(-1, 4)
    t = t[np.argsort(t[:, 2], kind="stable")]
    cols = GroupedTable(read_only(np.ascontiguousarray(t[:, c])) for c in range(4))
    dim_out = int(cols[2][-1]) + 1 if len(t) else 0  # outputs run 0 .. dim_out - 1
    m = len(t) // max(dim_out, 1)
    cols.signs = read_only(cols[3].astype(np.float64).reshape(dim_out, 1, m))
    return cols


@lru_cache(maxsize=None)
def wedge_arrays(n: int, p: int, q: int):
    """(i, j, out, sign) columns of the wedge structure table, int64,
    stably sorted by output blade.

    Every output blade of degree p+q has exactly C(p+q, p) entries, so
    ``out`` is ``repeat(arange(dim_out), C(p+q, p))``: the grouping
    ``kernels.wedge_fields`` relies on.
    """
    return _columns_by_output(wedge_table(n, p, q))


@lru_cache(maxsize=None)
def wedge_tensor(n: int, p: int, q: int) -> np.ndarray:
    """The p^q wedge table as a dense int64 (C(n,p), C(n,p+q), C(n,q))
    tensor: slice [i] is the matrix of e^{I_i} ^ (.) on q-form
    coefficients, rows indexing (p+q)-blades."""
    ii, jj, oo, ss = wedge_arrays(n, p, q)
    T = np.zeros((len(blades(n, p)), len(blades(n, p + q)), len(blades(n, q))),
                 dtype=np.int64)
    T[ii, oo, jj] = ss  # each (i, j) pair occurs once
    return read_only(T)


@lru_cache(maxsize=None)
def power_arrays(n: int, k: int):
    """(i, j, out, k * sign) columns of ``exalg.power_table``, int64, so
    that ``wedge_fields(E, P, i, j, k * sign, dim_out)`` is E^k from a 2-form
    E and P = E^(k-1).  Grouped by output, 2k - 1 entries each, as
    ``kernels.wedge_fields`` needs."""
    return _columns_by_output([(i, j, o, k * s) for i, j, o, s in power_table(n, k)])


@lru_cache(maxsize=None)
def interior_arrays():
    """(axis - 1, blade, out, sign) columns of ``exalg.contract_table(7, 2)``,
    int64, stably sorted by output, so that ``wedge_fields(b, a, axis - 1,
    blade, sign, 7)`` is i(b#) a for a 1-form b and a 2-form a on R^7.
    Each of the 7 outputs has 6 entries, one per other axis, as
    ``kernels.wedge_fields`` needs."""
    return _columns_by_output(contract_table(7, 2))


@lru_cache(maxsize=None)
def hodge_arrays(n: int, k: int):
    """(target, sign) per source blade, int64."""
    t = np.asarray(hodge_table(n, k), dtype=np.int64)
    return tuple(read_only(np.ascontiguousarray(t[:, c])) for c in range(2))


@lru_cache(maxsize=None)
def hodge_gather(n: int, k: int):
    """The Hodge table in gather form: (source, sign) per target blade, so
    that *(f)[o] = sign[o] * f[source[o]]; source int64, sign float64.  The
    star maps k-blades one to one onto (n-k)-blades, so the source is the
    inverse of ``hodge_arrays``' target permutation."""
    tgt, sgn = hodge_arrays(n, k)
    src = np.argsort(tgt)
    return read_only(src), read_only(sgn[src].astype(np.float64))


@lru_cache(maxsize=256)
def wedge_const_matrix(n: int, p: int, q: int, const_coeffs: tuple) -> np.ndarray:
    """Matrix M with (f ^ c)_out = sum_i M[out, i] f_i for the fixed q-form c.

    Used to turn "wedge with a constant form" (phi, *phi, a flux background
    and its weight) into one matmul over the whole grid.  Each flux a
    process meets adds its own entries, so the cache is bounded.
    """
    ii, jj, oo, ss = wedge_arrays(n, p, q)
    c = np.asarray(const_coeffs, dtype=np.float64)
    M = np.zeros((len(blades(n, p + q)), len(blades(n, p))))
    M[oo, ii] = ss * c[jj]  # each (out, i) pair occurs once
    return read_only(M)


@lru_cache(maxsize=None)
def mode_weight_tensor() -> np.ndarray:
    """Float tensor S, (35, 7, 7, 7), linear in a constant 4-form W.

    T = tensordot(W, S, 1) gives, for each axis i, the 7x7 matrix T[i] of
    b |-> (e_i ^ b) ^ W on 1-form coefficients (rows index 6-form blades),
    so the Fourier symbol of b |-> db ^ W at mode k is 2*pi*i sum_i k_i T[i].
    At W = *phi, T is ``mode_kernel_tensors()[0]``.  Linear in W rather than
    built per W, so no cache grows with the weights a solver meets.  It is
    the 4^2 wedge tensor after the 1^1 one: (e_i ^ b) ^ W = W ^ (e_i ^ b).
    """
    S = np.einsum("joc,icb->jiob", wedge_tensor(7, 4, 2), wedge_tensor(7, 1, 1))
    return read_only(S.astype(np.float64))


@lru_cache(maxsize=None)
def mode_kernel_tensors():
    """Integer tensors (T, U) for the per-mode linearization on the 7-torus.

    For an integer mode k, the Fourier symbol of b |-> (dx_k ^ b) ^ *phi on
    1-form coefficients is A_k = sum_i k_i T[i]  (7x7), and the symbol of
    g |-> dx_k ^ g on 5-form coefficients is B_k = sum_i k_i U[i]  (7x21).
    Rows index 6-form blades; U is ``wedge_tensor(7, 1, 5)``.  T's entries
    are 0 and +-1, so its cast from the float weight tensor is exact.
    """
    star_phi = [int(c) for c in g2.star_phi_for(RATIONAL).coeffs]
    T = np.tensordot(star_phi, mode_weight_tensor(), 1).astype(np.int64)
    return read_only(T), wedge_tensor(7, 1, 5)


@lru_cache(maxsize=1)
def phi_symmetries():
    """The 1344 signed permutations x -> signs * x[perms] that fix phi.

    Returns read-only (perms, signs), each (1344, 7) int64, identity
    first.  Derived from the 7 blades of ``g2.PHI_BLADES`` alone: the
    permutation must map every Fano line (the support of a blade, as a bit
    set) to a Fano line, and on each line the product of the signs, times
    the parity of the line's image in its permuted order, must turn the
    blade's coefficient into its image's.  The group is 2^3.GL(3,2) inside
    G2; each element also fixes *phi and commutes with the Hodge star.
    """
    lines = np.array(sorted(g2.PHI_BLADES)) - 1
    coef = np.array([g2.PHI_BLADES[b] for b in sorted(g2.PHI_BLADES)])
    by_mask = np.zeros(1 << 7, dtype=np.int64)
    by_mask[(1 << lines).sum(axis=1)] = coef
    perms = np.array(list(itertools.permutations(range(7))))
    perms = perms[np.all(by_mask[(1 << perms[:, lines]).sum(axis=-1)] != 0, axis=1)]
    img = perms[:, lines]
    a, b, c = np.moveaxis(img, -1, 0)
    parity = np.sign((b - a) * (c - a) * (c - b))
    want = by_mask[(1 << img).sum(axis=-1)] * parity * coef
    signs = np.array(list(itertools.product((1, -1), repeat=7)))
    pi, si = np.nonzero(np.all(signs[:, lines].prod(axis=-1) == want[:, None],
                               axis=-1))
    return read_only(perms[pi]), read_only(signs[si])
