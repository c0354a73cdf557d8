"""Unit tests for the local-filesystem blob store substrate."""
import os

import pytest

from repro.cloud.blobstore import BlobStore


@pytest.fixture()
def store(tmp_path):
    return BlobStore(tmp_path)


class TestPutGet:
    def test_roundtrip(self, store):
        store.put("a.bin", b"hello")
        assert store.get("a.bin") == b"hello"

    def test_overwrite_replaces(self, store):
        store.put("a.bin", b"one")
        store.put("a.bin", b"two!")
        assert store.get("a.bin") == b"two!"
        assert store.size("a.bin") == 4

    def test_nested_names(self, store):
        store.put("idx/sub/block-0.bin", b"x" * 10)
        assert store.get("idx/sub/block-0.bin") == b"x" * 10

    def test_empty_blob(self, store):
        store.put("empty", b"")
        assert store.get("empty") == b""
        assert store.size("empty") == 0

    def test_missing_blob_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.get("nope")

    def test_path_escape_rejected(self, store):
        with pytest.raises(ValueError):
            store.put("../evil", b"x")

    def test_dotdot_name_rejected(self, store):
        store.put("idx/a.bin", b"x")
        with pytest.raises(ValueError):
            store.get_range("idx/../../evil", 0, 1)

    def test_absolute_name_rejected(self, store, tmp_path_factory):
        outside = tmp_path_factory.mktemp("outside") / "secret"
        outside.write_bytes(b"x")
        with pytest.raises(ValueError):
            store.get_range(str(outside), 0, 1)

    def test_symlink_out_of_store_rejected(self, store, tmp_path_factory):
        outside = tmp_path_factory.mktemp("outside")
        (outside / "secret").write_bytes(b"x")
        os.symlink(outside, store.root / "link")
        with pytest.raises(ValueError):
            store.get_range("link/secret", 0, 1)

    def test_symlink_within_store_allowed(self, store):
        store.put("idx/a.bin", b"abc")
        os.symlink(store.root / "idx", store.root / "alias")
        assert store.get_range("alias/a.bin", 1, 2) == b"bc"

    @pytest.mark.parametrize("payload", [b"\x00\xff" * 100, bytes(range(256))])
    def test_binary_safe(self, store, payload):
        store.put("bin", payload)
        assert store.get("bin") == payload


class TestRangeReads:
    def test_middle_range(self, store):
        store.put("r", b"0123456789")
        assert store.get_range("r", 3, 4) == b"3456"

    def test_full_range(self, store):
        store.put("r", b"abcdef")
        assert store.get_range("r", 0, 6) == b"abcdef"

    def test_zero_length(self, store):
        store.put("r", b"abc")
        assert store.get_range("r", 1, 0) == b""

    def test_overrun_raises(self, store):
        store.put("r", b"abc")
        with pytest.raises(ValueError):
            store.get_range("r", 2, 5)

    def test_negative_offset_raises(self, store):
        store.put("r", b"abc")
        with pytest.raises(ValueError):
            store.get_range("r", -1, 2)

    def test_missing_blob_range(self, store):
        with pytest.raises(KeyError):
            store.get_range("nope", 0, 1)

    @pytest.mark.parametrize("offset,length", [(0, 1), (0, 100), (99, 1), (50, 50)])
    def test_boundaries(self, store, offset, length):
        data = bytes(range(100)) * 1
        store.put("b", data)
        assert store.get_range("b", offset, length) == data[offset : offset + length]


class TestListing:
    def test_list_sorted_and_prefixed(self, store):
        store.put("idx/b.bin", b"1")
        store.put("idx/a.bin", b"2")
        store.put("other/c.bin", b"3")
        assert store.list("idx/") == ["idx/a.bin", "idx/b.bin"]
        assert store.list() == ["idx/a.bin", "idx/b.bin", "other/c.bin"]

    def test_total_bytes(self, store):
        store.put("p/a", b"xx")
        store.put("p/b", b"yyy")
        store.put("q/c", b"z")
        assert store.total_bytes("p/") == 5
        assert store.total_bytes() == 6

    def test_delete(self, store):
        store.put("d", b"x")
        store.delete("d")
        assert not store.exists("d")
        with pytest.raises(KeyError):
            store.delete("d")

    def test_exists(self, store):
        assert not store.exists("e")
        store.put("e", b"1")
        assert store.exists("e")
