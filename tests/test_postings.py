"""Unit tests for postings, the varint codec, and the string table."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.postings import (
    MAX_BLOB_ID,
    MAX_LENGTH,
    MAX_OFFSET,
    Posting,
    StringTable,
    decode_postings,
    encode_postings,
    intersect,
    read_uvarint,
    union,
    write_uvarint,
)


class TestUvarint:
    @pytest.mark.parametrize("v", [0, 1, 127, 128, 300, 2**32, 2**63 - 1])
    def test_roundtrip(self, v):
        buf = bytearray()
        write_uvarint(buf, v)
        got, pos = read_uvarint(bytes(buf), 0)
        assert got == v and pos == len(buf)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            write_uvarint(bytearray(), -1)

    def test_truncated_rejected(self):
        buf = bytearray()
        write_uvarint(buf, 300)
        with pytest.raises(ValueError):
            read_uvarint(bytes(buf[:-1]), 0)

    def test_single_byte_for_small(self):
        buf = bytearray()
        write_uvarint(buf, 100)
        assert len(buf) == 1

    @given(st.lists(st.integers(0, 2**62), max_size=30))
    @settings(max_examples=100)
    def test_stream_roundtrip(self, values):
        buf = bytearray()
        for v in values:
            write_uvarint(buf, v)
        pos = 0
        got = []
        for _ in values:
            v, pos = read_uvarint(bytes(buf), pos)
            got.append(v)
        assert got == values and pos == len(buf)


def _documents(max_blob: int, max_offset: int, max_length: int):
    """Distinct documents: a (blob, offset) span has one length."""
    return st.lists(
        st.builds(
            Posting,
            blob_id=st.integers(0, max_blob),
            offset=st.integers(0, max_offset),
            length=st.integers(0, max_length),
        ),
        max_size=60,
        unique_by=lambda p: (p.blob_id, p.offset),
    )


def _lists_over(docs: list[Posting]):
    """Postings lists naming ``docs``, repeats included."""
    return st.lists(st.sampled_from(docs), max_size=60) if docs else st.just([])


_small_documents = _documents(50, 10_000, 500)
_postings = _small_documents.flatmap(_lists_over)
_wide_documents = _documents(MAX_BLOB_ID, MAX_OFFSET, MAX_LENGTH)


@st.composite
def _list_pairs(draw):
    """Two postings lists over one document set."""
    docs = draw(_small_documents)
    return draw(_lists_over(docs)), draw(_lists_over(docs))


def _arr(ps):
    return decode_postings(encode_postings(ps))


def _scalar_decode(buf: bytes) -> tuple[list[Posting], int]:
    """Reference decoder, one varint at a time: the postings and the
    widest varint seen. Raises ValueError as ``read_uvarint`` does, and
    for trailing bytes."""
    widest = 0

    def read(pos):
        nonlocal widest
        value, end = read_uvarint(buf, pos)
        widest = max(widest, end - pos)
        return value, end

    n, pos = read(0)
    postings = []
    blob = off = 0
    for _ in range(n):
        db, pos = read(pos)
        blob += db
        if db:
            off = 0
        d_off, pos = read(pos)
        off += d_off
        length, pos = read(pos)
        postings.append(Posting(blob, off, length))
    if pos != len(buf):
        raise ValueError("trailing bytes")
    return postings, widest


def _in_codec_range(postings: list[Posting], widest: int) -> bool:
    return (
        widest <= 9
        and all(
            p.blob_id <= MAX_BLOB_ID and p.offset <= MAX_OFFSET and p.length <= MAX_LENGTH
            for p in postings
        )
        and len({(p.blob_id, p.offset) for p in postings}) == len(postings)
    )


def _buf(*values: int) -> bytes:
    out = bytearray()
    for v in values:
        write_uvarint(out, v)
    return bytes(out)


class TestPostingsCodec:
    def test_empty(self):
        assert decode_postings(encode_postings([])).tolist() == []

    def test_roundtrip_sorted_dedup(self):
        ps = [Posting(1, 10, 5), Posting(0, 0, 3), Posting(1, 10, 5)]
        assert decode_postings(encode_postings(ps)).tolist() == sorted(set(ps))

    @given(_postings)
    @settings(max_examples=150)
    def test_roundtrip_property(self, ps):
        assert decode_postings(encode_postings(ps)).tolist() == sorted(set(ps))

    @given(_wide_documents.flatmap(_lists_over))
    @settings(max_examples=150)
    def test_roundtrip_full_range_matches_scalar_reference(self, ps):
        buf = encode_postings(ps)
        got = decode_postings(buf).tolist()
        assert got == sorted(set(ps))
        assert got == _scalar_decode(buf)[0]

    @given(st.binary(max_size=40))
    @settings(max_examples=300)
    def test_arbitrary_bytes_match_scalar_reference(self, buf):
        try:
            expected, widest = _scalar_decode(buf)
            valid = _in_codec_range(expected, widest)
        except ValueError:
            valid = False
        if valid:
            assert decode_postings(buf).tolist() == expected
        else:
            with pytest.raises(ValueError):
                decode_postings(buf)

    def test_posting_array_views(self):
        ps = [Posting(0, 1, 2), Posting(0, 9, 1), Posting(3, 0, 7)]
        arr = _arr(ps)
        assert len(arr) == 3 and list(arr) == ps and arr[2] == ps[2]
        assert arr[1:].tolist() == ps[1:]
        assert arr[[0, 2]].tolist() == [ps[0], ps[2]]

    def test_compression_beats_naive(self):
        # delta+varint must be far smaller than 3x8-byte fixed width
        ps = [Posting(0, i * 100, 90) for i in range(1000)]
        assert len(encode_postings(ps)) < 1000 * 24 / 4

    def test_trailing_bytes_rejected(self):
        buf = encode_postings([Posting(0, 1, 2)]) + b"\x00"
        with pytest.raises(ValueError):
            decode_postings(buf)

    @pytest.mark.parametrize(
        "buf",
        [
            b"",  # no count
            _buf(1, 0, 1, 300)[:-1],  # final multi-byte varint cut short
            _buf(1, 0, 1, 2)[:-1],  # final single-byte varint missing
            b"\x01" + b"\x80" * 10 + b"\x00" + b"\x00\x00",  # 11-byte varint
            _buf(2, 0, 1, 2),  # count one too large
            _buf(1, 0, 1, 2) + b"\x00",  # trailing byte
            _buf(1, MAX_BLOB_ID + 1, 0, 1),  # blob id past 2^23 - 1
            _buf(2, MAX_BLOB_ID, 0, 1, 1, 0, 1),  # blob id reaches 2^23 by a delta
            _buf(1, 0, MAX_OFFSET + 1, 1),  # offset past 2^40 - 1
            _buf(2, 0, MAX_OFFSET, 1, 0, 1, 1),  # offset reaches 2^40 by a delta
            _buf(2, 0, 7, 1, 0, 0, 2),  # one (blob, offset) twice
            _buf(1, 0, 0, 1 << 63),  # length needs 64 bits
        ],
    )
    def test_malformed_rejected(self, buf):
        with pytest.raises(ValueError):
            decode_postings(buf)

    @pytest.mark.parametrize(
        "ps",
        [
            [Posting(MAX_BLOB_ID + 1, 0, 1)],
            [Posting(0, MAX_OFFSET + 1, 1)],
            [Posting(-1, 0, 1)],
            [Posting(0, 0, MAX_LENGTH + 1)],
            [Posting(0, 5, 3), Posting(0, 5, 4)],  # one document, two lengths
        ],
    )
    def test_encode_rejects_out_of_range(self, ps):
        with pytest.raises(ValueError):
            encode_postings(ps)

    def test_encode_accepts_range_limits(self):
        ps = [Posting(MAX_BLOB_ID, MAX_OFFSET, MAX_LENGTH), Posting(0, 0, 0)]
        assert decode_postings(encode_postings(ps)).tolist() == sorted(ps)

    def test_posting_ordering(self):
        assert Posting(0, 5, 1) < Posting(0, 6, 0) < Posting(1, 0, 0)


class TestSetOps:
    def test_intersect_basic(self):
        a = [Posting(0, 0, 1), Posting(0, 1, 1)]
        b = [Posting(0, 1, 1), Posting(0, 2, 1)]
        assert intersect([_arr(a), _arr(b)]).tolist() == [Posting(0, 1, 1)]

    def test_intersect_empty_input(self):
        assert intersect([]).tolist() == []

    def test_intersect_single_list(self):
        a = [Posting(0, 1, 1), Posting(0, 0, 1)]
        assert intersect([_arr(a)]).tolist() == sorted(a)

    def test_intersect_disjoint(self):
        assert intersect([_arr([Posting(0, 0, 1)]), _arr([Posting(1, 0, 1)])]).tolist() == []

    def test_intersect_needs_equal_lengths(self):
        a = [Posting(0, 5, 3), Posting(0, 9, 1)]
        b = [Posting(0, 5, 4), Posting(0, 9, 1)]
        assert intersect([_arr(a), _arr(b)]).tolist() == [Posting(0, 9, 1)]

    def test_union_basic(self):
        a = [Posting(0, 0, 1)]
        b = [Posting(0, 1, 1)]
        assert union([_arr(a), _arr(b)]).tolist() == [Posting(0, 0, 1), Posting(0, 1, 1)]

    def test_union_empty(self):
        assert union([]).tolist() == []
        assert union([_arr([]), _arr([])]).tolist() == []

    def test_union_rejects_conflicting_lengths(self):
        with pytest.raises(ValueError):
            union([_arr([Posting(0, 5, 3)]), _arr([Posting(0, 5, 4)])])

    @given(_list_pairs())
    @settings(max_examples=50)
    def test_intersect_matches_sets(self, pair):
        a, b = pair
        assert intersect([_arr(a), _arr(b)]).tolist() == sorted(set(a) & set(b))

    @given(_list_pairs())
    @settings(max_examples=50)
    def test_union_matches_sets(self, pair):
        a, b = pair
        assert union([_arr(a), _arr(b)]).tolist() == sorted(set(a) | set(b))


class TestStringTable:
    def test_intern_stable(self):
        t = StringTable()
        assert t.intern("a") == t.intern("a") == 0
        assert t.intern("b") == 1

    def test_name_lookup(self):
        t = StringTable(["x", "y"])
        assert t.name(0) == "x" and t.id("y") == 1

    def test_contains_len(self):
        t = StringTable(["x"])
        assert "x" in t and "y" not in t and len(t) == 1

    def test_names_copy(self):
        t = StringTable(["x"])
        t.names().append("z")
        assert len(t) == 1
