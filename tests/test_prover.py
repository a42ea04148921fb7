"""Symbolic catalog: every identity cancels exactly, every canonical
single-site mutation is caught with a concrete witness monomial."""

import hashlib
import json
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ddt7 import ddt, g2, prover
from ddt7.errors import InputError, NumericalError
from ddt7.exalg import Endo, KForm, det_endo, inner, sharp2, wedge
from ddt7.scalars import FLOAT, MultiPoly, PolyRing

ALL_IDS = ("A1", "A2a", "A2b", "A4", "A5", "A3F", "DET", "EIG7", "EIG14",
           "W3", "SF", "CYL")
# the witnesses the benchmark's verify workload gates on (read only)
BENCH_WITNESSES = Path(__file__).resolve().parents[1] / "perfbench" / "witnesses.json"


def test_catalog_order_and_ids():
    assert prover.catalog_ids() == ALL_IDS
    assert prover.identity_sites("A2a") == ()
    assert prover.identity_sites("A4") == ("corr-scale", "rhs-scale", "theta-inner")


def test_all_identities_reduce_to_zero():
    t0 = time.perf_counter()
    reports = prover.verify_all()
    elapsed = time.perf_counter() - t0
    assert [r.identity for r in reports] == list(ALL_IDS)
    for r in reports:
        assert r.reduced_to_zero, r.identity
        assert r.witness is None
        if r.identity == "A2a":
            # both sides share every term, so the difference never holds one
            assert r.monomial_count_before_cancellation == 0
        else:
            assert r.monomial_count_before_cancellation > 0
    assert elapsed < 60.0


def test_canonical_mutations_all_fail():
    mutated = prover.canonical_mutations()
    assert len(mutated) == 12
    assert {m[0] for m in mutated} == set(ALL_IDS) - {"A2a"}
    bench = json.loads(BENCH_WITNESSES.read_text())
    assert set(bench) == {f"{ident}.{site}" for ident, site, _ in mutated}
    for ident, site, value in mutated:
        mid = prover.mutate(ident, site, value)
        assert mid == f"{ident}[{site}={value}]"
        rep = prover.verify(mid)
        assert not rep.reduced_to_zero, mid
        w = rep.witness
        assert set(w) == {"component", "blade", "monomial", "coefficient"}
        assert w["coefficient"] not in ("0", "")
        want = bench[f"{ident}.{site}"]
        assert {k: w[k] for k in ("blade", "monomial", "coefficient")} == \
            {k: want[k] for k in ("blade", "monomial", "coefficient")}, mid


def test_mutation_witness_is_concrete():
    # frozen: scaling the cubic term leaves a pure u_7^3 survivor
    mid = prover.mutate("A5", "rhs-scale", 5)
    rep = prover.verify(mid)
    assert rep.witness == {
        "component": "cube",
        "blade": "e^123456",
        "monomial": "u_7^3",
        "coefficient": "1",
    }


def test_mutation_validation():
    with pytest.raises(InputError):
        prover.mutate("A9", "rhs-scale", 2)
    with pytest.raises(InputError):
        prover.mutate("A1", "no-such-site", 2)
    with pytest.raises(InputError):
        prover.mutate("A2a", "rhs-scale", 2)  # has no mutable sites
    with pytest.raises(InputError):
        prover.mutate("DET", "rhs-scale", 1)  # unchanged constant
    mid = prover.mutate("W3", "rhs-scale", 7)
    with pytest.raises(InputError):
        prover.mutate(mid, "rhs-scale", 9)
    with pytest.raises(InputError):
        prover.verify("nope")


def test_point_evaluation_consistency():
    rng = np.random.default_rng(11)
    for ident in ALL_IDS:
        assert prover.evaluate_at_point(ident, rng), ident
    # a broken variant should fail the same probe
    mid = prover.mutate("EIG7", "eig-scale", 4)
    assert not prover.evaluate_at_point(mid, np.random.default_rng(11))


def test_float_evaluation_single():
    rng = np.random.default_rng(5)
    for ident in ALL_IDS:
        r = prover.evaluate_float(ident, rng)
        assert r["pass"], (ident, r)
        assert r["max_rel_residual"] <= 1e-10


def test_float_suite_shape_and_pass():
    out = prover.float_suite(10, seed=1)
    assert out["samples"] == 10 and out["seed"] == 1
    assert set(out["identity_max_rel"]) == set(ALL_IDS)
    assert max(out["identity_max_rel"].values()) <= out["tol"]
    assert max(out["decomposition_max_rel"].values()) <= out["tol"]
    assert out["det_metric_min"] > 0.0
    assert out["det_metric_positive"]
    assert out["failures"] == 0
    assert out["pass"]


# --- reference: the per-sample FLOAT loop the batched suite replaced ----------


def _ref_evaluate_float(identity_id, rng, tol=1e-10):
    spec = prover._lookup(identity_id)
    point = {name: float(rng.uniform(-1.0, 1.0)) for name in spec.variables}
    components = spec.build(FLOAT, lambda nm: point[nm], spec.consts)
    worst = 0.0
    for _, lhs, rhs in components:
        worst = max(worst, _ref_rel_gap(lhs, rhs))
    return {"identity": identity_id, "max_rel_residual": worst,
            "pass": bool(worst <= tol)}


def _ref_absmax(form):
    return max(abs(float(c)) for c in form.coeffs)


def _ref_rel_gap(a, b):
    num = max(abs(float(x) - float(y)) for x, y in zip(a.coeffs, b.coeffs))
    return num / max(_ref_absmax(a), _ref_absmax(b), 1.0)


def _ref_decomposition_checks(F):
    dec = g2.decompose2(F)
    scale = max(_ref_absmax(F), 1.0)
    u2 = sum(float(c) * float(c) for c in dec.u.coeffs)
    f7sq = float(inner(dec.f7, dec.f7))
    f14sq = float(inner(dec.f14, dec.f14))
    th = float(ddt.theta_weight(F))
    calib = float(ddt._calibration(wedge(F, F)))
    residuals = {
        "recompose": _ref_rel_gap(dec.f7 + dec.f14, F),
        "f14_annihilates": _ref_absmax(wedge(dec.f14, g2.star_phi_for(F.ring))) / scale,
        "f7_f14_orthogonal": abs(float(inner(dec.f7, dec.f14))) / scale,
        "eig7": _ref_rel_gap(g2.star_wedge_phi(dec.f7), 2.0 * dec.f7),
        "eig14": _ref_rel_gap(g2.star_wedge_phi(dec.f14), -1.0 * dec.f14),
        "theta_split": abs(th - (1.0 - 3.0 * u2 + 0.5 * f14sq)) / max(abs(th), 1.0),
        "calibration_split": abs(calib - (2.0 * f7sq - f14sq)) / max(abs(calib), 1.0),
    }
    norms = {"u_sq": u2, "f7_sq": f7sq, "f14_sq": f14sq}
    return dec, norms, th, residuals


def _ref_float_suite(samples, seed=0, tol=1e-10):
    rng = np.random.default_rng(seed)
    ids = prover.catalog_ids()
    worst = {i: 0.0 for i in ids}
    deco = {}
    ident = Endo.identity(7, FLOAT)
    det_min = None
    for _ in range(samples):
        for i in ids:
            r = _ref_evaluate_float(i, rng, tol)
            worst[i] = max(worst[i], r["max_rel_residual"])
        F = KForm.from_coeffs(7, 2, [float(x) for x in rng.uniform(-1.0, 1.0, 21)],
                              FLOAT)
        for name, v in _ref_decomposition_checks(F)[3].items():
            deco[name] = max(deco.get(name, 0.0), v)
        det = float(det_endo(ident + sharp2(F)))
        det_min = det if det_min is None else min(det_min, det)
    n_fail = sum(1 for v in worst.values() if v > tol) \
        + sum(1 for v in deco.values() if v > tol) \
        + (0 if det_min > 0.0 else 1)
    return {
        "samples": int(samples),
        "seed": int(seed),
        "tol": float(tol),
        "identity_max_rel": worst,
        "decomposition_max_rel": deco,
        "det_metric_min": det_min,
        "det_metric_positive": bool(det_min > 0.0),
        "failures": int(n_fail),
        "pass": bool(n_fail == 0),
    }


@pytest.mark.parametrize("samples, seed", [(12, 2026), (30, 0), (5, 77)])
def test_float_suite_equals_the_per_sample_loop(samples, seed):
    got, want = prover.float_suite(samples, seed=seed), _ref_float_suite(samples, seed=seed)
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # same key order and float text


def test_evaluate_float_equals_the_per_sample_point():
    ids = list(ALL_IDS) + [prover.mutate(*m) for m in prover.canonical_mutations()]
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for ident in ids:
        assert prover.evaluate_float(ident, rng) == _ref_evaluate_float(ident, ref)


def test_decomposition_checks_at_one_float_point_equal_the_reference():
    coeffs = [float(x) for x in np.random.default_rng(0).uniform(-1.0, 1.0, 21)]
    F = KForm.from_coeffs(7, 2, coeffs, FLOAT)
    _, norms, th, checks, det = prover.decomposition_checks(F)
    _, want_norms, want_th, want_checks = _ref_decomposition_checks(F)
    assert (norms, th, checks) == (want_norms, want_th, want_checks)
    assert det == det_endo(Endo.identity(7, FLOAT) + sharp2(F))
    assert list(checks) == list(want_checks)


def test_float_suite_chunks_carry_the_random_stream(monkeypatch):
    want = prover.float_suite(20, seed=4)
    monkeypatch.setattr(prover, "FLOAT_BATCH", 7)
    assert prover.float_suite(20, seed=4) == want


def test_every_canonical_mutation_fails_in_every_batched_sample():
    # a broadcasting slip that compared a side with itself would pass these
    columns_rng = np.random.default_rng(21)
    for mutation in prover.canonical_mutations():
        spec = prover._lookup(prover.mutate(*mutation))
        columns = columns_rng.uniform(-1.0, 1.0, (len(spec.variables), 8))
        gaps = prover._float_gaps(spec, columns)
        assert gaps.shape == (8,)
        assert np.all(gaps > 1e-6), (spec.id, gaps)
        base = prover._float_gaps(prover._lookup(mutation[0]), columns)
        assert np.all(base <= 1e-10), mutation[0]


def test_reports_are_deterministic():
    assert prover.verify("A1") == prover.verify("A1")
    assert prover.float_suite(4, seed=9) == prover.float_suite(4, seed=9)


def test_det_monomial_count_frozen():
    rep = prover.verify("DET")
    assert rep.reduced_to_zero
    assert rep.monomial_count_before_cancellation == 807326


def test_det_bounds_each_matrix_once(monkeypatch):
    """One packing bound per matrix: I + F#'s bound is shared by the
    squared-rhs check and its DP."""
    calls = []
    real = prover._det_np_degree_bound

    def counted(ring, entries):
        calls.append(len(entries))
        return real(ring, entries)
    monkeypatch.setattr(prover, "_det_np_degree_bound", counted)
    assert prover.verify("DET").reduced_to_zero
    assert calls == [7, 7]


@pytest.mark.parametrize("scale, coefficient", [
    (Fraction(1, 2), "1/2"), (Fraction(3, 2), "-1/2"), (Fraction(-1), "2"),
    (Fraction(2), "-1")])
def test_det_mutation_witness_under_scale(scale, coefficient):
    # both sides have constant term 1, so lhs - scale*rhs leaves 1 - scale
    rep = prover.verify(prover.mutate("DET", "rhs-scale", scale))
    assert rep.witness == {"component": "factorization", "blade": "scalar",
                           "monomial": "1", "coefficient": coefficient}
    assert rep.monomial_count_before_cancellation == 807326


_RING = PolyRing(prover._F_NAMES, prover._lookup("DET").bound)   # DET's ring


def _key(exponents):
    """The DET ring's key of exponents for its leading variables."""
    return _RING.key(list(exponents) + [0] * (_RING.nvars - len(exponents)))


def _packed_entry(rng, nvars):
    out = {}
    for _ in range(int(rng.integers(0, 4))):
        key = _key(rng.integers(0, 2, nvars))
        c = out.get(key, 0) + int(rng.integers(-3, 4))
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


def _as_poly(ring, keys, coeffs):
    """Packed DET-ring (keys, coeffs) as a polynomial of ``ring``."""
    return MultiPoly(ring, {ring.key(_RING.exponents(k)): int(c)
                            for k, c in zip(keys, coeffs)})


def _row_term(row, a, b):
    """x_row^a * x_4^b; with a <= 4 in row `row` and b <= 1 in every row,
    each variable reaches degree at most 4 along any permutation of a 4x4
    matrix, the packing limit."""
    e = [0] * 5
    e[row], e[4] = a, b
    return _key(e)


def test_packed_dp_matches_generic_mask_dp():
    # the generic DP multiplies out whole products, of total degree up to 20
    ring = PolyRing(prover._F_NAMES, bound=20)
    rng = np.random.default_rng(3)
    biggest = 0
    for _ in range(5):
        # row 0: up to three terms, coefficients up to 2730 = (2^14 - 1) // 6;
        # rows 1-3: one term x_i^4 x_4^b per row with signs +-1, so a DP
        # coefficient sums at most 3! = 6 row-0 coefficients and every
        # product stays inside the 2^14 field, close to its edge
        entries = [[{} for _ in range(4)] for _ in range(4)]
        for j in range(4):
            for _ in range(3):
                key = _row_term(0, int(rng.integers(0, 5)), int(rng.integers(0, 2)))
                entries[0][j][key] = int(rng.integers(-2730, 2731)) or 1
        for i in range(1, 4):
            key = _row_term(i, 4, int(rng.integers(0, 2)))
            entries[i] = [{key: int(rng.choice((-1, 1)))} for _ in range(4)]
        assert prover._det_np_degree_bound(_RING, entries).max() == 4
        rows = [[_as_poly(ring, list(e), list(e.values())) for e in row]
                for row in entries]
        want = det_endo(Endo.from_rows(4, rows, ring))
        keys, coeffs = prover._det_np_dp(_RING, entries)
        assert np.all(keys[:-1] < keys[1:])
        assert _as_poly(ring, keys, coeffs).terms == want.terms
        biggest = max(biggest, int(np.abs(coeffs).max(initial=0)))
    assert biggest >= 2 ** 13
    # a state that cancels to zero drops out; a singular matrix gives 0
    keys, coeffs = prover._det_np_dp(_RING, [[{0: 1}] * 3 for _ in range(3)])
    assert keys.size == 0 and coeffs.size == 0


def _packed(entry, scale=Fraction(1)):
    keys = sorted(entry)
    return prover._Packed(np.array(keys, dtype=np.uint64),
                          np.array([entry[k] for k in keys], dtype=np.int64), scale)


def test_packed_witness_is_lexicographically_first():
    ring = _RING
    rng = np.random.default_rng(4)
    cases = [({}, {}, Fraction(1))]
    for _ in range(20):
        a, b = _packed_entry(rng, 5), _packed_entry(rng, 5)
        scale = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        cases += [(a, b, scale), (a, {k: 2 * c for k, c in a.items()}, Fraction(1, 2))]
    for a, b, scale in cases:
        lhs, rhs = _packed(a), _packed(b, scale)
        got = prover._packed_witness("c", lhs, rhs, ring)
        diff = _as_poly(ring, lhs.keys, lhs.coeffs) - _as_poly(ring, rhs.keys, rhs.coeffs) * scale
        if diff.is_zero():
            assert got is None
        else:
            e, coef = diff.leading()
            assert got == {"component": "c", "blade": "scalar",
                           "monomial": diff.monomial_str(e), "coefficient": str(coef)}


def test_packed_combine_guards_per_key_magnitude():
    top = prover._DET_COEFF_BIAS - 1
    keys = np.array([5, 9, 5, 9], dtype=np.uint64)
    words = (keys << 15) | (np.array([top, 1, top, -1]) + 2 ** 14).astype(np.uint64)
    k, c = prover._det_np_combine(words)
    assert k.tolist() == [5] and c.tolist() == [2 * top]   # key 9 cancels
    # every product coefficient must fit the 15-bit field, |coeff| < 2^14;
    # the check bounds max|a| * max|b| before any product is formed
    one = np.ones(1, dtype=np.uint64)
    part = (one, np.array([2 ** 7]), 2 * one, np.array([-(2 ** 7 - 1)]))
    k, c = prover._det_np_combine(prover._det_np_products([part]))
    assert k.tolist() == [3] and c.tolist() == [-(2 ** 14 - 2 ** 7)]
    for a, b in ((2 ** 7, 2 ** 7), (2 ** 14, 1), (-1, -(2 ** 14))):
        with pytest.raises(NumericalError):
            prover._det_np_products([part, (one, np.array([a]), one, np.array([1, b]))])


def _combine_reference(keys, coeffs):
    out = {}
    for k, c in zip(keys.tolist(), coeffs.tolist()):
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _words(keys, coeffs):
    return (np.asarray(keys, dtype=np.uint64) << 15) \
        | (np.asarray(coeffs, dtype=np.int64) + 2 ** 14).astype(np.uint64)


# chunk sizes for the combine's walk over the sorted words: every edge case
# of a short bucket, and the default
CHUNKS = (1, 2, 3, 4, 16, prover._DET_CHUNK)


def _assert_combines(keys, coeffs, order):
    """The combine of the words in ``order`` against the dict reference."""
    keys, coeffs = np.asarray(keys, dtype=np.uint64), np.asarray(coeffs, dtype=np.int64)
    k, c = prover._det_np_combine(_words(keys[order], coeffs[order]))
    assert k.dtype == np.uint64 and c.dtype == np.int64
    assert np.all(k[:-1] < k[1:]) and np.all(c != 0)
    assert dict(zip(k.tolist(), c.tolist())) == _combine_reference(keys, coeffs), \
        prover._DET_CHUNK


def test_packed_combine_matches_a_dict_reference(monkeypatch):
    top = prover._DET_COEFF_BIAS - 1
    # key 0 (first) and key 9 (last) cancel; key 2 appears once; keys 3 and
    # 5 are runs of negatives, at the field's edge for key 3
    fixed = ([0, 0, 2, 3, 3, 3, 5, 5, 9, 9, 9],
             [top, -top, -7, -top, -top, -1, -2, -3, 4, -top, top - 4])
    cases = [fixed, ([4], [-top]), ([], [])]
    rng = np.random.default_rng(22)
    for size in (1, 2, 17, 500, 4000):
        keys = rng.integers(0, max(2, size // 3), size)
        coeffs = rng.integers(-top, top + 1, size)
        coeffs[rng.random(size) < 0.2] = rng.choice((-top, top))
        cases.append((keys, coeffs))
        # every run all negative, and every key cancelling but one
        cases.append((keys, -np.maximum(np.abs(coeffs), 1)))
        pair = np.concatenate([coeffs, -coeffs])
        pair[0] += 1 if pair[0] < top else -1
        cases.append((np.concatenate([keys, keys]), pair))
    for chunk in CHUNKS:
        monkeypatch.setattr(prover, "_DET_CHUNK", chunk)
        for keys, coeffs in cases:
            _assert_combines(keys, coeffs, rng.permutation(len(keys)))


def test_packed_combine_across_chunk_edges(monkeypatch):
    """With chunks of 4 words: a run crossing an edge, a run longer than a
    chunk (a chunk with no key end), keys cancelling at an edge and across
    one, and buckets whose last word ends a chunk.  Within a key the sort
    orders the words by coefficient, so the runs' positions are fixed."""
    cases = [
        ([0, 0, 0, 1, 1, 1, 2], [1, 2, 3, 4, 5, 6, 7]),         # key 1 on words 3-5
        ([0] + [1] * 10 + [2], [-1] + [3] * 10 + [2]),          # words 4-7 all key 1
        ([0, 0, 1, 1, 2, 2], [5, 6, -4, 4, 1, 2]),              # key 1 cancels at word 3
        ([0, 1, 1, 1, 1, 2], [9, -3, -1, 1, 3, -2]),            # key 1 cancels on 1-4
        ([0, 0, 1, 1, 2, 3, 3, 3], [1, 1, -2, 3, 4, -5, 6, 7]),  # 8 words: two chunks
        ([5, 5, 5, 5], [1, 2, -4, 1]),                           # one chunk, cancelling
        ([7] * 8, [2, -1, 3, -4, 1, 1, -1, 2]),                  # one key, two chunks
    ]
    for chunk in CHUNKS:
        monkeypatch.setattr(prover, "_DET_CHUNK", chunk)
        for keys, coeffs in cases:
            _assert_combines(keys, coeffs, np.arange(len(keys))[::-1])


def test_packed_combine_allocates_no_bucket_sized_array():
    """After its in-place sort the combine holds only chunk-sized buffers
    and its outputs: on 2^21 words over at most 2^12 keys its traced peak
    stays below a quarter of the words' bytes."""
    rng = np.random.default_rng(25)
    keys = rng.integers(0, 2 ** 12, 2 ** 21)
    coeffs = rng.integers(-2 ** 14 + 1, 2 ** 14, 2 ** 21)
    words = _words(keys, coeffs)
    tracemalloc.start()
    try:
        k, c = prover._det_np_combine(words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < words.nbytes / 4, peak
    assert k.size <= 2 ** 12 and int(c.sum()) == int(coeffs.sum())


def test_packed_combine_checks_the_prefix_sum_bound(monkeypatch):
    monkeypatch.setattr(prover, "_DET_WORDS_MAX", 4)
    for chunk in CHUNKS:
        monkeypatch.setattr(prover, "_DET_CHUNK", chunk)
        k, c = prover._det_np_combine(_words([1, 2, 1, 3], [1, 1, 2, -1]))
        assert k.tolist() == [1, 2, 3] and c.tolist() == [3, 1, -1], chunk
        with pytest.raises(NumericalError):
            prover._det_np_combine(_words([1, 2, 1, 3, 3], [1, 1, 2, -1, 2]))


def _pairwise(parts):
    """Keys and coefficients of every term product of each part."""
    prods = [(int(a) + int(b), int(x) * int(y)) for ak, ac, ek, ec in parts
             for a, x in zip(ak, ac) for b, y in zip(ek, ec)]
    return np.array([k for k, _ in prods]), np.array([c for _, c in prods])


def test_packed_products_with_repeated_non_unit_coefficients():
    # the square path: one part, a polynomial times itself, whose repeated
    # coefficients (not only +-1) each give their own state row
    keys = np.array([0, 1, 3, 7, 8, 20, 25, 31], dtype=np.uint64)
    coeffs = np.array([3, -3, 5, 3, -2, 5, -2, 1], dtype=np.int64)
    # ... and several parts of different shapes in one array, part by part
    for parts in ([(keys, coeffs, keys, coeffs)],
                  [(keys[:3], coeffs[:3], keys[2:], -coeffs[2:]),
                   (keys[5:], coeffs[5:], keys[:1], coeffs[:1])]):
        words = prover._det_np_products(parts)
        assert np.array_equal(np.sort(words), np.sort(_words(*_pairwise(parts))))
    k, c = prover._det_np_square((keys, coeffs))
    assert dict(zip(k.tolist(), c.tolist())) == \
        _combine_reference(*_pairwise([(keys, coeffs, keys, coeffs)]))


def test_det_sides_fingerprint():
    """Both packed sides of DET at scale 1, pinned bit for bit."""
    spec = prover._lookup("DET")
    (_, lhs, rhs), = prover._build_det(_RING, _RING.var, spec.consts)
    for side in (lhs, rhs):
        assert side.keys.size == 403663
        assert int(np.abs(side.coeffs).max()) == 48
        digest = hashlib.sha256(side.keys.tobytes() + side.coeffs.tobytes()).hexdigest()
        assert digest == "89d673adff850970c89f83b2f288835c7741de089f08d9f5e8ec186ab3b80568"


def test_packing_bound_is_checked():
    x = _key((1,))
    entries = [[{x: 1} if i == j else {} for j in range(4)] for i in range(4)]
    entries[3][3] = {2 * x: 1}
    assert prover._det_np_degree_bound(_RING, entries)[0] == 5
    with pytest.raises(NumericalError):
        prover._det_np_dp(_RING, entries)
    with pytest.raises(NumericalError):   # a bound passed in is still checked
        prover._det_np_dp(_RING, entries, prover._det_np_degree_bound(_RING, entries))
    # degree 4 still packs: det = x^4 in the top digit, no carry
    entries[3][3] = {x: 1}
    assert prover._det_np_degree_bound(_RING, entries)[0] == 4
    keys, coeffs = prover._det_np_dp(_RING, entries)
    assert [_RING.exponents(k) for k in keys] == [(4,) + (0,) * 20]
    assert coeffs.tolist() == [1]
    # the shared radix 8 would need 63-bit keys for 21 variables
    with pytest.raises(NumericalError):
        prover._det_np_dp(PolyRing(prover._F_NAMES), entries)
    with pytest.raises(NumericalError):
        prover._det_np_dp(_RING, [[{0: Fraction(1, 2)}]])
