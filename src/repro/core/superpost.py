"""Superpost compaction: header block + superpost blocks (§IV-C).

The Builder concatenates all serialized superposts into a small number of
*superpost block* blobs so that (a) cloud storage holds a few large
objects instead of one blob per bin, and (b) any superpost is obtainable
in a single range read ("single-cycle retrieval"). For every bin the
Builder records a :class:`BinPointer` — (block id, byte offset, byte
length) — and persists all pointers, the hash seeds, the common-word
dictionary, the blob-name string table, and profiling metadata in one
*header block*. The Searcher downloads exactly this header at
initialization and keeps it in memory (the MHT).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.blobstore import BlobStore
from repro.core.postings import (
    StringTable,
    read_uvarint,
    write_uvarint,
)

_MAGIC = b"AIRP"
_VERSION = 1


@dataclass(frozen=True)
class BinPointer:
    """Location of one superpost inside the compacted blocks.

    ``length == 0`` marks an empty bin (no request needed).
    """

    block_id: int
    offset: int
    length: int

    @property
    def empty(self) -> bool:
        return self.length == 0


EMPTY_BIN = BinPointer(0, 0, 0)


def block_blob_name(prefix: str, block_id: int) -> str:
    """Blob name of superpost block ``block_id`` for index ``prefix``."""
    return f"{prefix}/superposts-{block_id:05d}.bin"


def header_blob_name(prefix: str) -> str:
    """Blob name of the header block for index ``prefix``."""
    return f"{prefix}/header.bin"


class SuperpostWriter:
    """Packs serialized superposts consecutively into block blobs.

    Blocks are cut at ``block_size`` bytes (a superpost never spans two
    blocks, so one range read always suffices).
    """

    def __init__(self, store: BlobStore, prefix: str, block_size: int = 4 << 20):
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.store = store
        self.prefix = prefix
        self.block_size = block_size
        self._buf = bytearray()
        self._block_id = 0
        self._finished = False

    def append(self, payload: bytes) -> BinPointer:
        """Append one serialized superpost; returns its pointer."""
        if self._finished:
            raise RuntimeError("writer already finished")
        if not payload:
            return EMPTY_BIN
        if self._buf and len(self._buf) + len(payload) > self.block_size:
            self._flush()
        ptr = BinPointer(self._block_id, len(self._buf), len(payload))
        self._buf.extend(payload)
        return ptr

    def _flush(self) -> None:
        self.store.put(block_blob_name(self.prefix, self._block_id), bytes(self._buf))
        self._block_id += 1
        self._buf = bytearray()

    def finish(self) -> int:
        """Flush the tail block; returns the number of blocks written."""
        if self._finished:
            raise RuntimeError("writer already finished")
        if self._buf:
            self._flush()
        self._finished = True
        return self._block_id


@dataclass
class IndexHeader:
    """Everything the Searcher needs in memory, persisted as one blob."""

    seeds: tuple[int, ...]
    bins_per_layer: int
    pointers: list[BinPointer]  # layer-major: layer * bins_per_layer + bin
    common: dict[str, BinPointer]
    string_table: StringTable
    n_blocks: int
    n_docs: int
    n_terms: int
    total_words: int
    f0: float
    meta: dict[str, float] = field(default_factory=dict)

    @property
    def n_layers(self) -> int:
        return len(self.seeds)

    def pointer(self, layer: int, bin_idx: int) -> BinPointer:
        return self.pointers[layer * self.bins_per_layer + bin_idx]


def write_str(out: bytearray, s: str) -> None:
    """Append ``s`` as a varint byte length and its UTF-8 bytes."""
    b = s.encode("utf-8")
    write_uvarint(out, len(b))
    out.extend(b)


def read_str(buf: bytes, pos: int) -> tuple[str, int]:
    """Inverse of :func:`write_str`: the string at ``pos`` and the position after it."""
    n, pos = read_uvarint(buf, pos)
    return buf[pos : pos + n].decode("utf-8"), pos + n


def _write_ptr(out: bytearray, p: BinPointer) -> None:
    write_uvarint(out, p.block_id)
    write_uvarint(out, p.offset)
    write_uvarint(out, p.length)


def _read_ptr(buf: bytes, pos: int) -> tuple[BinPointer, int]:
    b, pos = read_uvarint(buf, pos)
    o, pos = read_uvarint(buf, pos)
    ln, pos = read_uvarint(buf, pos)
    return BinPointer(b, o, ln), pos


def encode_header(h: IndexHeader) -> bytes:
    """Serialize the header block."""
    out = bytearray()
    out.extend(_MAGIC)
    write_uvarint(out, _VERSION)
    write_uvarint(out, len(h.seeds))
    for s in h.seeds:
        write_uvarint(out, s)
    write_uvarint(out, h.bins_per_layer)
    if len(h.pointers) != len(h.seeds) * h.bins_per_layer:
        raise ValueError("pointer array size != L * bins_per_layer")
    for p in h.pointers:
        _write_ptr(out, p)
    write_uvarint(out, len(h.common))
    for word in sorted(h.common):
        write_str(out, word)
        _write_ptr(out, h.common[word])
    names = h.string_table.names()
    write_uvarint(out, len(names))
    for n in names:
        write_str(out, n)
    write_uvarint(out, h.n_blocks)
    write_uvarint(out, h.n_docs)
    write_uvarint(out, h.n_terms)
    write_uvarint(out, h.total_words)
    write_str(out, repr(h.f0))
    write_uvarint(out, len(h.meta))
    for k in sorted(h.meta):
        write_str(out, k)
        write_str(out, repr(h.meta[k]))
    return bytes(out)


def decode_header(buf: bytes) -> IndexHeader:
    """Inverse of :func:`encode_header`."""
    if buf[:4] != _MAGIC:
        raise ValueError("not an Airphant header block")
    pos = 4
    version, pos = read_uvarint(buf, pos)
    if version != _VERSION:
        raise ValueError(f"unsupported header version {version}")
    n_layers, pos = read_uvarint(buf, pos)
    seeds = []
    for _ in range(n_layers):
        s, pos = read_uvarint(buf, pos)
        seeds.append(s)
    bins_per_layer, pos = read_uvarint(buf, pos)
    pointers = []
    for _ in range(n_layers * bins_per_layer):
        p, pos = _read_ptr(buf, pos)
        pointers.append(p)
    n_common, pos = read_uvarint(buf, pos)
    common = {}
    for _ in range(n_common):
        w, pos = read_str(buf, pos)
        p, pos = _read_ptr(buf, pos)
        common[w] = p
    n_names, pos = read_uvarint(buf, pos)
    names = []
    for _ in range(n_names):
        n, pos = read_str(buf, pos)
        names.append(n)
    n_blocks, pos = read_uvarint(buf, pos)
    n_docs, pos = read_uvarint(buf, pos)
    n_terms, pos = read_uvarint(buf, pos)
    total_words, pos = read_uvarint(buf, pos)
    f0_s, pos = read_str(buf, pos)
    n_meta, pos = read_uvarint(buf, pos)
    meta = {}
    for _ in range(n_meta):
        k, pos = read_str(buf, pos)
        v, pos = read_str(buf, pos)
        meta[k] = float(v)
    if pos != len(buf):
        raise ValueError(f"trailing bytes after header ({len(buf) - pos})")
    return IndexHeader(
        seeds=tuple(seeds),
        bins_per_layer=bins_per_layer,
        pointers=pointers,
        common=common,
        string_table=StringTable(names),
        n_blocks=n_blocks,
        n_docs=n_docs,
        n_terms=n_terms,
        total_words=total_words,
        f0=float(f0_s),
        meta=meta,
    )
