"""Local-filesystem blob store with random (range) reads.

Stands in for GCP Cloud Storage / AWS S3 / Azure Blob Storage. Matches
the subset of the object-store contract Airphant relies on (§III-A):

* each object ("blob") is identified by a name;
* whole-object GET and byte-range GET (``Range`` header semantics) —
  fetching bytes from an arbitrary offset does not require a full read;
* objects are immutable once written (PUT replaces atomically).

No latency logic lives here — :class:`repro.cloud.client.CloudClient`
charges the simulated clock; the blob store is purely a byte container.
"""
from __future__ import annotations

import os
from pathlib import Path


class BlobStore:
    """A directory of named immutable blobs supporting range reads.

    Blob names may contain ``/`` which map to subdirectories; names are
    validated against path escapes so a store is confined to its root.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Resolved once, so a name check walks only the name's components.
        self._root = os.path.realpath(self.root)
        self._root_prefix = os.path.join(self._root, "")

    def _path(self, name: str) -> str:
        """Path of blob ``name`` below the store root; raises ``ValueError``
        when ``..``, an absolute name or a symlink would lead outside it."""
        p = os.path.normpath(os.path.join(self._root, name))
        if not p.startswith(self._root_prefix):
            raise ValueError(f"blob name escapes store root: {name!r}")
        # Lexically inside; a symlink below the root may still lead out.
        q = p
        while q != self._root:
            if os.path.islink(q):
                p = os.path.realpath(p)
                if not p.startswith(self._root_prefix):
                    raise ValueError(f"blob name escapes store root: {name!r}")
                break
            q = os.path.dirname(q)
        return p

    def put(self, name: str, data: bytes) -> None:
        """Write ``data`` as blob ``name`` (atomic replace)."""
        p = self._path(name)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        tmp = p + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, p)

    def get(self, name: str) -> bytes:
        """Read the whole blob."""
        try:
            with open(self._path(name), "rb") as f:
                return f.read()
        except FileNotFoundError:
            raise KeyError(name) from None

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``offset`` (a random read).

        Raises ``KeyError`` for a missing blob and ``ValueError`` when the
        requested range extends past the end of the blob — cloud stores
        reject unsatisfiable ranges rather than silently truncating.
        """
        if offset < 0 or length < 0:
            raise ValueError(f"negative range ({offset}, {length})")
        p = self._path(name)
        try:
            with open(p, "rb") as f:
                f.seek(offset)
                data = f.read(length)
        except FileNotFoundError:
            raise KeyError(name) from None
        if len(data) != length:
            raise ValueError(
                f"range ({offset}, {length}) exceeds blob {name!r} "
                f"of size {self.size(name)}"
            )
        return data

    def size(self, name: str) -> int:
        """Byte size of a blob."""
        try:
            return os.stat(self._path(name)).st_size
        except FileNotFoundError:
            raise KeyError(name) from None

    def exists(self, name: str) -> bool:
        return os.path.isfile(self._path(name))

    def delete(self, name: str) -> None:
        try:
            os.unlink(self._path(name))
        except FileNotFoundError:
            raise KeyError(name) from None

    def list(self, prefix: str = "") -> list[str]:
        """All blob names under ``prefix``, sorted."""
        names = []
        for p in self.root.rglob("*"):
            if p.is_file() and not p.name.endswith(".tmp"):
                rel = p.relative_to(self.root).as_posix()
                if rel.startswith(prefix):
                    names.append(rel)
        return sorted(names)

    def total_bytes(self, prefix: str = "") -> int:
        """Total stored bytes under ``prefix`` — used for index-size tables."""
        return sum(self.size(n) for n in self.list(prefix))
