"""Chaining hash table: hash consistency, both access paths vs a dict
reference, Bloom-tag behaviour, size accounting."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common import hashtable as H


@given(st.integers(-(2**62), 2**62))
@settings(max_examples=200, deadline=None)
def test_scalar_matches_vectorized_hash(k):
    arr = np.array([k], dtype=np.int64)
    assert H.murmur_scalar(k) == int(H.murmur_vec(arr)[0])
    assert H.crc_scalar(k) == int(H.crc_vec(arr)[0])


@given(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1))
@settings(max_examples=100, deadline=None)
def test_combine_consistency(a, b):
    va = np.array([a], dtype=np.uint64)
    vb = np.array([b], dtype=np.uint64)
    assert H.combine_scalar(a, b) == int(H.combine_vec(va, vb)[0])


def test_hash_distribution():
    ks = np.arange(10000, dtype=np.int64)
    for fn in (H.murmur_vec, H.crc_vec):
        h = fn(ks)
        buckets = h & np.uint64(1023)
        counts = np.bincount(buckets.astype(np.int64), minlength=1024)
        assert counts.max() < 40  # roughly uniform


def _build(keys_cols, payloads, hash_fn="murmur", bulk=True):
    ht = H.ChainingHashTable(len(keys_cols), list(payloads), hash_fn=hash_fn)
    if bulk:
        ht.build_bulk(
            [np.asarray(k, dtype=np.int64) for k in keys_cols],
            {n: np.asarray(v) for n, v in payloads.items()},
        )
    else:
        n = len(keys_cols[0])
        for i in range(n):
            ht.insert_scalar(
                tuple(int(k[i]) for k in keys_cols),
                tuple(payloads[p][i] for p in payloads),
            )
    ht.freeze()
    return ht


def _probe_vectorized(ht, probe_keys):
    h = ht.hash_vec([np.asarray(k, dtype=np.int64) for k in probe_keys])
    cand = ht.bucket_heads(h)
    pos = np.nonzero(cand >= 0)[0]
    cand = cand[pos]
    hits = []
    while len(cand):
        eq = ht.compare_keys(cand, [np.asarray(k)[pos] for k in probe_keys])
        for e, p in zip(cand[eq], pos[eq]):
            hits.append((int(p), int(e)))
        nxt = ht.advance(cand)
        alive = nxt >= 0
        cand, pos = nxt[alive], pos[alive]
    return sorted(hits)


def _probe_scalar(ht, probe_keys):
    sh = H.SCALAR_HASH[ht.hash_fn]
    hits = []
    n = len(probe_keys[0])
    for i in range(n):
        h = sh(int(probe_keys[0][i]))
        for k in probe_keys[1:]:
            h = H.combine_scalar(h, sh(int(k[i])))
        b = h & ht.mask
        if ht.tags_l[b] & (1 << ((h >> 56) & 15)):
            e = ht.head_l[b]
            while e >= 0:
                if all(
                    ht.keys_l[j][e] == probe_keys[j][i]
                    for j in range(ht.n_key_cols)
                ):
                    hits.append((i, e))
                e = ht.next_l[e]
    return sorted(hits)


def _reference(build_keys, probe_keys):
    from collections import defaultdict

    d = defaultdict(list)
    for e, kt in enumerate(zip(*build_keys)):
        d[kt].append(e)
    hits = []
    for i, kt in enumerate(zip(*probe_keys)):
        for e in d[kt]:
            hits.append((i, e))
    return sorted(hits)


@pytest.mark.parametrize("hash_fn", ["murmur", "crc"])
@pytest.mark.parametrize("bulk", [True, False])
def test_single_key_probe(hash_fn, bulk):
    rng = np.random.default_rng(0)
    bk = [rng.integers(0, 50, 200)]
    pk = [rng.integers(0, 80, 300)]
    ht = _build(bk, {"v": np.arange(200.0)}, hash_fn, bulk)
    ref = _reference([list(bk[0])], [list(pk[0])])
    assert _probe_vectorized(ht, pk) == ref
    assert _probe_scalar(ht, pk) == ref


@pytest.mark.parametrize("hash_fn", ["murmur", "crc"])
def test_composite_key_probe(hash_fn):
    rng = np.random.default_rng(1)
    bk = [rng.integers(0, 10, 150), rng.integers(0, 10, 150)]
    pk = [rng.integers(0, 12, 200), rng.integers(0, 12, 200)]
    ht = _build(bk, {}, hash_fn)
    ref = _reference([list(bk[0]), list(bk[1])], [list(pk[0]), list(pk[1])])
    assert _probe_vectorized(ht, pk) == ref
    assert _probe_scalar(ht, pk) == ref


def test_duplicate_keys_all_matched():
    bk = [np.array([7, 7, 7, 3])]
    ht = _build(bk, {"v": np.array([1.0, 2.0, 3.0, 4.0])})
    hits = _probe_vectorized(ht, [np.array([7])])
    assert len(hits) == 3
    assert {ht.payloads["v"][e] for _, e in hits} == {1.0, 2.0, 3.0}


def test_empty_build():
    ht = _build([np.array([], dtype=np.int64)], {})
    assert _probe_vectorized(ht, [np.arange(10)]) == []
    assert ht.n_entries == 0


def test_negative_keys():
    bk = [np.array([-5, -1, 0, 3])]
    ht = _build(bk, {})
    assert _probe_vectorized(ht, [np.array([-5, 42])]) == [(0, 0)]
    assert _probe_scalar(ht, [np.array([-5, 42])]) == [(0, 0)]


def test_payload_gather():
    bk = [np.arange(10, dtype=np.int64)]
    ht = _build(bk, {"x": np.arange(10) * 1.5, "y": np.arange(10) * 2})
    idx = np.array([3, 7])
    np.testing.assert_array_equal(ht.gather_payload("x", idx), [4.5, 10.5])
    np.testing.assert_array_equal(ht.gather_payload("y", idx), [6, 14])


def test_tag_filter_prunes_most_misses():
    """The 16-bit Bloom tag (§3.2) should reject most missing probes
    before any chain walk."""
    ht = _build([np.arange(1000, dtype=np.int64)], {})
    missing = np.arange(100000, 110000, dtype=np.int64)
    h = ht.hash_vec([missing])
    heads = ht.bucket_heads(h)
    # without a tag, every occupied bucket would be walked (~40%+ load);
    # with the tag, the pass rate for misses must be far lower
    pass_rate = float((heads >= 0).mean())
    assert pass_rate < 0.25


def test_tag_never_rejects_present_keys():
    keys = np.arange(500, dtype=np.int64)
    ht = _build([keys], {})
    assert _probe_vectorized(ht, [keys]) == [(i, i) for i in range(500)]


def test_size_accounting():
    ht = _build([np.arange(100, dtype=np.int64)], {"v": np.arange(100.0)})
    assert ht.n_buckets >= 200 and (ht.n_buckets & (ht.n_buckets - 1)) == 0
    assert ht.bucket_bytes() == ht.n_buckets * 10
    assert ht.entry_bytes() == 100 * 8 * 3  # next + key + payload


def test_scalar_insert_counts():
    ht = H.ChainingHashTable(1, [])
    for i in range(5):
        ht.insert_scalar((i,), ())
    ht.freeze()
    assert ht.n_entries == 5
