"""Chaining hash table shared by both engines (§3.2 of the paper).

Layout mirrors the paper's: a power-of-two bucket directory whose entries
carry a 16-bit Bloom-filter tag (one bit set per resident hash) so that
most probe misses never touch the collision chain, plus entry storage in
insertion order with an explicit ``next`` chain.

Two access paths over the *same* storage:

* vectorized (Tectorwise): ``build_bulk`` links all chains with NumPy
  kernels; ``bucket_heads``/``advance`` + per-column gathers drive the
  candidate-loop probe of Figure 2b;
* scalar (Typer): ``freeze`` additionally materializes Python-list views
  (``head_l``/``next_l``/``tags_l``/key/payload lists) that the generated
  fused loop indexes tuple-at-a-time, exactly like Figure 2a.

Hash functions: ``murmur`` (Tectorwise default — more instructions,
higher throughput) and ``crc`` (Typer default — short latency), per §4.1.
Scalar and vectorized variants produce identical values.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_M = 0xC6A4A7935BD1E995
_PHI = 0x9E3779B97F4A7C15


def murmur_scalar(k: int) -> int:
    h = ((k & _MASK64) * _M) & _MASK64
    h ^= h >> 47
    h = (h * _M) & _MASK64
    return h


def murmur_vec(k: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = k.astype(np.uint64) * np.uint64(_M)
        h ^= h >> np.uint64(47)
        h *= np.uint64(_M)
    return h


def crc_scalar(k: int) -> int:
    """CRC-hash stand-in: one multiply + fold, short dependency chain."""
    h = ((k & _MASK64) * _PHI) & _MASK64
    return h ^ (h >> 29)


def crc_vec(k: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = k.astype(np.uint64) * np.uint64(_PHI)
    return h ^ (h >> np.uint64(29))


def combine_scalar(h1: int, h2: int) -> int:
    return (h1 * 3 + h2) & _MASK64


def combine_vec(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return h1 * np.uint64(3) + h2


SCALAR_HASH = {"murmur": murmur_scalar, "crc": crc_scalar}
VEC_HASH = {"murmur": murmur_vec, "crc": crc_vec}


def _pow2_at_least(x: int) -> int:
    p = 4
    while p < x:
        p <<= 1
    return p


class ChainingHashTable:
    """Join hash table with composite integer keys and named payloads."""

    def __init__(self, n_key_cols: int, payload_names: list[str], hash_fn: str = "murmur"):
        self.n_key_cols = n_key_cols
        self.payload_names = list(payload_names)
        self.hash_fn = hash_fn
        self._rows_keys: list[list] = [[] for _ in range(n_key_cols)]
        self._rows_payloads: dict[str, list] = {p: [] for p in payload_names}
        self.frozen = False

    # -- accumulation ------------------------------------------------------

    def insert_scalar(self, keys: tuple, payloads: tuple) -> None:
        """Typer-path insert: one tuple at a time (before freeze)."""
        for col, k in zip(self._rows_keys, keys):
            col.append(k)
        for name, v in zip(self.payload_names, payloads):
            self._rows_payloads[name].append(v)

    def build_bulk(self, keys: list[np.ndarray], payloads: dict[str, np.ndarray]) -> None:
        """Tectorwise-path build: whole columns at once (before freeze)."""
        assert len(keys) == self.n_key_cols
        for col, arr in zip(self._rows_keys, keys):
            col.extend(arr.tolist())
        for name in self.payload_names:
            self._rows_payloads[name].extend(payloads[name].tolist())

    # -- finalization ------------------------------------------------------

    def _hash_all(self, key_arrays: list[np.ndarray]) -> np.ndarray:
        hv = VEC_HASH[self.hash_fn]
        h = hv(key_arrays[0])
        for k in key_arrays[1:]:
            h = combine_vec(h, hv(k))
        return h

    def freeze(self) -> None:
        """Build the bucket directory + chains; enable both probe paths."""
        self.keys = [np.asarray(c, dtype=np.int64) for c in self._rows_keys]
        self.payloads = {
            n: np.asarray(v) for n, v in self._rows_payloads.items()
        }
        n = len(self.keys[0]) if self.keys else 0
        self.n_entries = n
        self.n_buckets = _pow2_at_least(max(4, 2 * n))
        self.mask = self.n_buckets - 1
        self.head = np.full(self.n_buckets, -1, dtype=np.int64)
        self.tags = np.zeros(self.n_buckets, dtype=np.uint16)
        self.next = np.full(n, -1, dtype=np.int64)
        if n:
            h = self._hash_all(self.keys)
            b = (h & np.uint64(self.mask)).astype(np.int64)
            tagbit = (
                np.uint16(1) << ((h >> np.uint64(56)) & np.uint64(15)).astype(np.uint16)
            )
            np.bitwise_or.at(self.tags, b, tagbit)
            order = np.argsort(b, kind="stable")
            sb = b[order]
            same = sb[1:] == sb[:-1]
            # within a bucket, entry i points at the previous entry in
            # insertion order; the head is the last-inserted entry
            self.next[order[1:][same]] = order[:-1][same]
            run_end = np.nonzero(np.r_[~same, True])[0]
            self.head[sb[run_end]] = order[run_end]
        # scalar views for the generated tuple-at-a-time code
        self.head_l = self.head.tolist()
        self.tags_l = self.tags.tolist()
        self.next_l = self.next.tolist()
        self.keys_l = [k.tolist() for k in self.keys]
        self.payloads_l = {n_: v.tolist() for n_, v in self.payloads.items()}
        self.frozen = True

    # -- size accounting for the cost model --------------------------------

    def bucket_bytes(self) -> int:
        return self.n_buckets * 10  # 8B head pointer + 2B tag

    def entry_bytes(self) -> int:
        width = 8 * (1 + self.n_key_cols + len(self.payload_names))  # next+keys+payload
        return max(1, self.n_entries) * width

    # -- vectorized probe path --------------------------------------------

    def hash_vec(self, key_arrays: list[np.ndarray]) -> np.ndarray:
        return self._hash_all(key_arrays)

    def bucket_heads(self, h: np.ndarray) -> np.ndarray:
        """Tag-filtered chain heads for a vector of hashes (-1 = miss)."""
        b = (h & np.uint64(self.mask)).astype(np.int64)
        tagbit = (
            np.uint16(1) << ((h >> np.uint64(56)) & np.uint64(15)).astype(np.uint16)
        )
        cand = self.head[b]
        pass_tag = (self.tags[b] & tagbit) != 0
        return np.where(pass_tag, cand, -1)

    def compare_keys(self, entry_idx: np.ndarray, probe_keys: list[np.ndarray]) -> np.ndarray:
        """Per-key-column equality of entries vs probe keys (one primitive
        per key column, per Figure 2b)."""
        eq = self.keys[0][entry_idx] == probe_keys[0]
        for kcol, pk in zip(self.keys[1:], probe_keys[1:]):
            eq &= kcol[entry_idx] == pk
        return eq

    def advance(self, entry_idx: np.ndarray) -> np.ndarray:
        return self.next[entry_idx]

    def gather_payload(self, name: str, entry_idx: np.ndarray) -> np.ndarray:
        return self.payloads[name][entry_idx]
