"""Seeded word→bin hash family shared by Builder (Spark) and Searcher.

IoU Sketch needs one hash function per layer drawn from a pairwise
independent family (§IV-A); only the seeds are persisted, so the Searcher
reconstructs the functions from the header block.

The implementation is keyed BLAKE2b truncated to 64 bits. A cryptographic
PRF keyed per layer is (far) stronger than pairwise independence and —
critically for this reproduction — is bit-identical whether evaluated on
the driver (Searcher) or inside the Builder's pandas UDF on Spark
executors, which maps :meth:`HashFamily.bins` over each word. Tests
assert the two agree.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass


def hash64(word: str, seed: int) -> int:
    """64-bit keyed hash of ``word`` under ``seed`` (stable across processes)."""
    key = seed.to_bytes(8, "little", signed=False)
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


def bin_of(word: str, seed: int, bins_per_layer: int) -> int:
    """The bin index of ``word`` in a layer with ``bins_per_layer`` bins."""
    return hash64(word, seed) % bins_per_layer


@dataclass(frozen=True)
class HashFamily:
    """L per-layer hash functions, reconstructable from ``seeds``.

    ``seeds`` is what the Builder persists in the header block; layer
    ``l`` maps a word to ``hash64(word, seeds[l]) % bins_per_layer``.
    """

    seeds: tuple[int, ...]
    bins_per_layer: int

    def __post_init__(self):
        if self.bins_per_layer < 1:
            raise ValueError("bins_per_layer must be >= 1")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("hash seeds must be distinct")

    @property
    def n_layers(self) -> int:
        return len(self.seeds)

    @classmethod
    def create(cls, n_layers: int, bins_per_layer: int, base_seed: int = 0) -> "HashFamily":
        """Derive ``n_layers`` distinct seeds deterministically from ``base_seed``."""
        seeds = tuple(hash64(f"layer-{l}", base_seed) for l in range(n_layers))
        return cls(seeds=seeds, bins_per_layer=bins_per_layer)

    def bins(self, word: str) -> list[int]:
        """The word's bin in every layer (length L)."""
        return [hash64(word, s) % self.bins_per_layer for s in self.seeds]
