"""The streaming record reader: whatever the buffers' sizes, it yields what
C's fscanf loop reads, each pair once the buffer that completes it arrives."""

import io
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothgate import records
from smoothgate.records import read_pairs, stream_blocks

from oracles import read_pairs_reference


class Buffers:
    """A binary stream whose read1() returns at most ``size`` bytes, or the
    given chunks one per call."""

    def __init__(self, data=b"", size=1, chunks=None):
        self.chunks = list(chunks) if chunks is not None else [
            data[i:i + size] for i in range(0, len(data), size)]
        self.calls = 0

    def read1(self, size=-1):
        assert size == -1
        self.calls += 1
        return self.chunks.pop(0) if self.chunks else b""


def stream_pairs(stream):
    """The pairs of ``stream_blocks(stream)``, each once its buffer arrives."""
    return chain.from_iterable(stream_blocks(stream))


# White space, signs, digits and stray characters, as bytes read as Latin-1.
_BYTES = st.sampled_from([b" ", b"\t", b"\n", b"\r\n", b"\x0b", b"\x0c", b"+", b"-",
                          b"x", b"\x00", b"\x1c", b"\xa0", b"\xff", b"."])
_DIGITS = st.sampled_from([b"0", b"1", b"7", b"9", b"12", b"305", b"40000"])
byte_texts = st.lists(st.one_of(_BYTES, _DIGITS, _DIGITS), max_size=40).map(b"".join)


class TestStreamPairs:
    @settings(max_examples=150, deadline=None)
    @given(data=byte_texts)
    @example(data=b"1 2 -")
    @example(data=b"1 2 3 4-")
    @example(data=b"12 -5 3 +7\n")
    @example(data=b"5 +-3")
    @example(data=b"1 2 3 - 4 5")
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64])
    def test_any_buffer_size_reads_as_c_does(self, size, data):
        expected = read_pairs_reference(data.decode("latin-1"))
        assert list(stream_pairs(Buffers(data, size))) == expected

    def test_a_long_stream_reads_as_read_pairs_does(self):
        data = b"".join(b"%d %d\n" % (i, (i * 7919) % 100_003 - 50_000) for i in range(5_000))
        expected = read_pairs(io.BytesIO(data))
        assert len(expected) == 5_000
        for size in (7, 4096, len(data)):
            assert list(stream_pairs(Buffers(data, size))) == expected

    def test_each_pair_comes_with_the_buffer_that_completes_it(self):
        stream = Buffers(chunks=[b"1 10\n2 2", b"0\n3 30", b"\n4", b" 40 5 ", b"50 "])
        pairs = stream_pairs(stream)
        for pair, calls in [((1, 10), 1), ((2, 20), 2), ((3, 30), 3), ((4, 40), 4),
                            ((5, 50), 5)]:
            assert (next(pairs), stream.calls) == (pair, calls)
        assert list(pairs) == [] and stream.calls == 6

    def test_a_sign_ending_a_buffer_waits_for_its_digit(self):
        assert list(stream_pairs(Buffers(chunks=[b"1 -", b"5 +", b"", b"7"]))) == [(1, -5)]
        assert list(stream_pairs(Buffers(chunks=[b"1 -", b"5 +", b"7"]))) == [(1, -5)]
        assert list(stream_pairs(Buffers(chunks=[b"1 2 3 +", b"4"]))) == [(1, 2), (3, 4)]
        assert list(stream_pairs(Buffers(chunks=[b"1 2 3 +", b"-4"]))) == [(1, 2)]

    def test_nothing_is_read_past_the_stop(self):
        data = b"1 2 3 4 x" + b" 5 6" * 1_000
        stream = Buffers(data, 1)
        assert list(stream_pairs(stream)) == [(1, 2), (3, 4)]
        assert stream.calls == data.index(b"x") + 1

    def test_a_latin1_digit_does_not_continue_a_literal_across_buffers(self):
        # "\xb2" is a digit to str.isdigit(), not to %d: reading stops there,
        # and the buffer after it is never asked for.
        stream = Buffers(chunks=[b"1 2 3 4", b"\xb2\xb2", b" 5 6"])
        assert list(stream_pairs(stream)) == [(1, 2), (3, 4)]
        assert stream.calls == 2

    def test_an_over_long_literal_raises_after_the_pairs_before_it(self):
        data = b"1 2 3 " + b"9" * 4400 + b" 4"
        with pytest.raises(ValueError):
            read_pairs(io.BytesIO(data))
        pairs = stream_pairs(Buffers(data, 64))
        assert next(pairs) == (1, 2)
        with pytest.raises(ValueError):
            next(pairs)
        # Within one buffer too, the pairs before the literal come first.
        data = b"1 2 3 4 " + b"9" * 4400 + b" 5 6"
        pairs = stream_pairs(Buffers(chunks=[data]))
        assert (next(pairs), next(pairs)) == ((1, 2), (3, 4))
        with pytest.raises(ValueError):
            next(pairs)

    @pytest.mark.parametrize("data", [
        b"1 2 3 " + b"9" * 100_000 + b" 4",
        b"1 2 " + b"9" * 100_000 + b" " * 100_000 + b"4",
        b"-" + b"9" * 100_000,
    ], ids=["long-value", "long-count-then-space", "long-signed"])
    def test_each_byte_is_scanned_a_bounded_number_of_times(self, monkeypatch, data):
        scanned = []
        real = records._scan
        monkeypatch.setattr(records, "_scan",
                            lambda text, more: scanned.append(len(text)) or real(text, more))
        with pytest.raises(ValueError):  # past the int-digit limit, as in read_pairs
            read_pairs(Buffers(data, BLOCK))
        with pytest.raises(ValueError):
            list(stream_pairs(Buffers(data, 16)))
        assert sum(scanned) < 3 * len(data)


@pytest.mark.parametrize("text", ["-", "+", "- 1 2", "+\n1 2", "-\n", "+1 2", "-x 1 2"])
def test_a_leading_sign_reads_as_c_does(text):
    # C's %d takes a sign only when a digit follows it; "+1 2" is one pair.
    expected = read_pairs_reference(text)
    assert expected == ([(1, 2)] if text == "+1 2" else [])
    assert read_pairs(io.BytesIO(text.encode())) == expected
    for size in (1, 2, 64):
        assert list(stream_pairs(Buffers(text.encode(), size))) == expected


# The read1() buffer size these tests use, io.DEFAULT_BUFFER_SIZE.
BLOCK = 8192
# What may sit on a block boundary, each read as C reads it.
_BOUNDARY_ITEMS = {
    "literal": b"123456789",
    "bare-sign": b"- ",
    "signed-literal": b"-98765",
    "plus-literal": b"+4321",
    "stop": b"x",
    "nd-digit": "\u0663".encode(),
    "latin1-digit": b"\xb2",
}


def _filler(length: int, pending: bool) -> bytes:
    """Whole "<count> <value>" lines padded with spaces to ``length``
    bytes, ending with a count that waits for its value if ``pending``."""
    head = b"7 " if pending else b""
    lines, pad = divmod(length - len(head), 6)
    return b"12 34\n" * lines + b" " * pad + head


class TestReadPairsAcrossBlocks:
    """read_pairs reads a stream one read1() buffer at a time; whatever
    falls on a buffer boundary, it reads what C's fscanf loop reads."""

    @pytest.mark.parametrize("pending", [False, True], ids=["as-count", "as-value"])
    @pytest.mark.parametrize("shift", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("item", list(_BOUNDARY_ITEMS.values()), ids=list(_BOUNDARY_ITEMS))
    def test_an_item_on_a_block_boundary(self, item, k, shift, pending):
        start = BLOCK * k + shift
        data = _filler(start, pending) + item + b" " + _filler(3 * BLOCK, False)
        assert data.index(item, start - 2) == start and len(data) > 3 * BLOCK
        expected = read_pairs_reference(data.decode("latin-1"))
        assert len(expected) >= (start - 2) // 6  # every pair before the item
        assert read_pairs(Buffers(data, BLOCK)) == expected

    @pytest.mark.parametrize("pending", [False, True], ids=["unpaired-count", "last-value"])
    @pytest.mark.parametrize("shift", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("k", [2, 3])
    def test_the_last_literal_on_a_block_boundary(self, k, shift, pending):
        start = BLOCK * k + shift
        data = _filler(start, pending) + b"55"
        expected = read_pairs_reference(data.decode("latin-1"))
        assert expected[-1] == ((7, 55) if pending else (12, 34))
        assert read_pairs(Buffers(data, BLOCK)) == expected
