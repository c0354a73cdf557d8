"""Postings and their compressed binary codec.

A posting identifies a document by its physical location in cloud
storage — ``(blob name, byte offset, byte length)`` (§III-A) — so the
Searcher can range-read the document directly, with no per-document
metadata lookup.

Serialization follows the paper's compaction notes (§IV-C):

* repeated blob-name strings are compressed into integer keys through a
  :class:`StringTable` persisted once in the header block;
* postings are sorted and delta/varint encoded (LEB128), which is what
  keeps superposts small enough that fetching L of them in parallel
  beats one B-tree traversal.

The paper uses Protocol Buffers; a hand-rolled varint codec reproduces
the same wire-size characteristics without the dependency (DESIGN.md §2).

On the query side a decoded list is a :class:`PostingArray` — packed
int64 keys ``blob_id << 40 | offset`` plus lengths — decoded, intersected
and unioned with numpy (vectorized LEB128 decoding after Lemire & Boytsov,
SPE 2015). The key packing caps blob ids below 2^23 and offsets below
2^40; :func:`encode_postings` refuses anything outside, so no index can
hold colliding keys.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, order=True)
class Posting:
    """A document reference: which blob, and the byte span inside it."""

    blob_id: int
    offset: int
    length: int


class StringTable:
    """Bidirectional blob-name ↔ integer-id map (string compression)."""

    def __init__(self, names: list[str] | None = None):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        for n in names or []:
            self.intern(n)

    def intern(self, name: str) -> int:
        """Return the id for ``name``, assigning a new one if unseen."""
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def name(self, blob_id: int) -> str:
        return self._names[blob_id]

    def id(self, name: str) -> int:
        return self._ids[name]

    def names(self) -> list[str]:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids


# -- varint primitives -----------------------------------------------------


def write_uvarint(out: bytearray, value: int) -> None:
    """Append LEB128 unsigned varint."""
    if value < 0:
        raise ValueError("uvarint cannot encode negative values")
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def read_uvarint(buf: bytes, pos: int) -> tuple[int, int]:
    """Read LEB128 unsigned varint at ``pos``; returns (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise ValueError("truncated uvarint")
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise ValueError("uvarint too long")


# -- postings codec ----------------------------------------------------------

_OFFSET_BITS = 40
MAX_BLOB_ID = (1 << 23) - 1
MAX_OFFSET = (1 << _OFFSET_BITS) - 1
#: A postings varint holds at most 63 bits (nine 7-bit groups), so every
#: decoded value fits an int64.
MAX_LENGTH = (1 << 63) - 1
_MAX_VARINT_BYTES = 9


class PostingArray:
    """A sorted postings list as parallel numpy arrays.

    ``keys`` holds ``blob_id << 40 | offset`` (int64, strictly increasing:
    a list names each document at most once) and ``lengths`` the byte
    lengths (int64). Key order equals :class:`Posting` order, so
    :meth:`tolist` of a decoded list is ``sorted(set(encoded postings))``.
    Supports ``len()``, slicing and index arrays (giving a
    ``PostingArray``), integer indexing and iteration (giving ``Posting``).
    """

    __slots__ = ("keys", "lengths")

    def __init__(self, keys: np.ndarray, lengths: np.ndarray):
        self.keys = keys
        self.lengths = lengths

    @classmethod
    def empty(cls) -> "PostingArray":
        return cls(np.empty(0, np.int64), np.empty(0, np.int64))

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            key = int(self.keys[i])
            return Posting(key >> _OFFSET_BITS, key & MAX_OFFSET, int(self.lengths[i]))
        return PostingArray(self.keys[i], self.lengths[i])

    def __iter__(self):
        return iter(self.tolist())

    def tolist(self) -> list[Posting]:
        return list(
            map(
                Posting,
                (self.keys >> _OFFSET_BITS).tolist(),
                (self.keys & MAX_OFFSET).tolist(),
                self.lengths.tolist(),
            )
        )

    def __repr__(self) -> str:
        return f"PostingArray({self.tolist()!r})"


def encode_postings(postings: list[Posting]) -> bytes:
    """Serialize a (super)postings list.

    Layout: count, then per posting (delta-encoded, sorted order):
    blob_id delta, offset delta (within same blob) or absolute (new blob),
    length. Sorting both canonicalizes set semantics and makes deltas small.

    Raises ``ValueError`` for a blob id, offset or length the packed keys
    of :class:`PostingArray` cannot hold, and for two postings naming one
    (blob, offset) with different lengths.
    """
    out = bytearray()
    ordered = sorted(set(postings))
    write_uvarint(out, len(ordered))
    prev_blob = 0
    prev_off = 0
    prev_key = None
    for p in ordered:
        if not (
            0 <= p.blob_id <= MAX_BLOB_ID
            and 0 <= p.offset <= MAX_OFFSET
            and 0 <= p.length <= MAX_LENGTH
        ):
            raise ValueError(f"posting out of the codec's range: {p}")
        key = (p.blob_id, p.offset)
        if key == prev_key:
            raise ValueError(f"two lengths for one (blob, offset) posting: {p}")
        prev_key = key
        db = p.blob_id - prev_blob
        write_uvarint(out, db)
        if db:
            prev_off = 0
        write_uvarint(out, p.offset - prev_off)
        write_uvarint(out, p.length)
        prev_blob, prev_off = p.blob_id, p.offset
    return bytes(out)


def _decode_uvarints(body: np.ndarray, count: int) -> np.ndarray:
    """Decode exactly ``count`` LEB128 varints filling ``body`` (uint8)."""
    ends = np.flatnonzero(body < 0x80)  # last byte of each varint
    if len(ends) < count:
        raise ValueError(f"truncated postings list: {count} varints, {len(ends)} present")
    used = int(ends[count - 1]) + 1 if count else 0
    if used != len(body):
        raise ValueError(f"trailing bytes after postings list ({len(body) - used})")
    if len(body) == count:  # every varint is a single byte
        return body.astype(np.int64)
    starts = np.concatenate(([0], ends[:-1] + 1))
    widths = ends - starts + 1
    if widths.max() > _MAX_VARINT_BYTES:
        raise ValueError("uvarint too long")
    shifts = 7 * (np.arange(len(body)) - np.repeat(starts, widths))
    groups = (body & 0x7F).astype(np.int64) << shifts
    return np.bitwise_or.reduceat(groups, starts)


def decode_postings(buf: bytes) -> PostingArray:
    """Inverse of :func:`encode_postings`, vectorized; returns sorted postings.

    Raises ``ValueError`` for a truncated or over-long varint, a count
    that does not match the payload, trailing bytes, a value outside the
    encoder's range, or a repeated (blob, offset) key.
    """
    n, pos = read_uvarint(buf, 0)
    body = np.frombuffer(buf, dtype=np.uint8, offset=pos)
    if 3 * n > len(body):  # every varint takes at least one byte
        raise ValueError(f"postings count {n} exceeds a payload of {len(body)} bytes")
    values = _decode_uvarints(body, 3 * n)
    if not n:
        return PostingArray.empty()
    d_blob, d_off, lengths = values[0::3], values[1::3], values[2::3]
    if d_blob.max() > MAX_BLOB_ID or d_off.max() > MAX_OFFSET:
        raise ValueError("posting delta out of the codec's range")
    blobs = np.cumsum(d_blob)
    if blobs[-1] > MAX_BLOB_ID:
        raise ValueError(f"blob id {int(blobs[-1])} out of the codec's range")
    # The offset restarts from 0 at every new blob: a segmented cumsum.
    new_blob = d_blob != 0
    new_blob[0] = True
    if not d_off[~new_blob].all():
        raise ValueError("postings list repeats a (blob, offset) key")
    # Position of the first posting of each posting's blob.
    first = np.maximum.accumulate(np.where(new_blob, np.arange(n), 0))
    csum = np.cumsum(d_off)
    offsets = csum - (csum - d_off)[first]
    # Exact modulo 2^64 even if csum wraps; offsets rise by < 2^40 per
    # step, so the first one past the range is seen exactly.
    if offsets.max() > MAX_OFFSET:
        raise ValueError("posting offset out of the codec's range")
    return PostingArray((blobs << _OFFSET_BITS) | offsets, np.ascontiguousarray(lengths))


def intersect(lists: list[PostingArray]) -> PostingArray:
    """Intersection of postings lists — the IoU query's final step. A
    posting is kept where its key and its length match in every list."""
    if not lists:
        return PostingArray.empty()
    acc = lists[0]
    for other in lists[1:]:
        keys, ia, ib = np.intersect1d(
            acc.keys, other.keys, assume_unique=True, return_indices=True
        )
        lengths = acc.lengths[ia]
        same = lengths == other.lengths[ib]
        acc = PostingArray(keys[same], lengths[same])
    return acc


def union(lists: list[PostingArray]) -> PostingArray:
    """Union of postings lists — used by boolean OR queries (§IV-F).

    Raises ``ValueError`` if two lists give one (blob, offset) different
    lengths: the union could not name that document once.
    """
    if not lists:
        return PostingArray.empty()
    keys = np.concatenate([p.keys for p in lists])
    lengths = np.concatenate([p.lengths for p in lists])
    order = np.argsort(keys, kind="stable")  # merges the sorted runs
    keys, lengths = keys[order], lengths[order]
    dup = keys[1:] == keys[:-1]
    if (lengths[1:][dup] != lengths[:-1][dup]).any():
        raise ValueError("postings lists disagree on a document's length")
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = ~dup
    return PostingArray(keys[keep], lengths[keep])
