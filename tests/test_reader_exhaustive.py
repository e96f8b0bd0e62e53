"""The record reader against C's own ``fscanf(in, "%d%d", ...)`` loop on
every short input over a few alphabets, read whole and at every cut into
up to two or three ``read1()`` buffers.  Three buffers let a literal run
through a whole buffer; the last alphabet holds C's other white space and
a high byte that Latin-1 makes a digit (superscript two)."""

from itertools import combinations, product

import pytest

from smoothgate.records import read_pairs

from test_records import Buffers

# (alphabet, longest input, most buffers).  Literals stay within int32,
# outside which C's %d is undefined.
ALPHABETS = [
    (b"0 9-+\nx", 5, 2),
    (b"1 -+\t", 5, 3),
    (b"1 \v\f\r\xb2-", 4, 3),
]


def splits(data: bytes, buffers: int):
    """data whole, then at every cut into up to ``buffers`` non-empty buffers."""
    for cuts in range(buffers):
        for inner in combinations(range(1, len(data)), cuts):
            bounds = (0, *inner, len(data))
            yield [data[a:b] for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("alphabet, longest, buffers", ALPHABETS)
def test_every_short_input_at_every_cut_reads_as_c_does(c_scanf_pairs, alphabet,
                                                         longest, buffers):
    differ = []
    for length in range(longest + 1):
        for data in map(bytes, product(alphabet, repeat=length)):
            expected = c_scanf_pairs(data)
            differ += [(chunks, expected) for chunks in splits(data, buffers)
                       if read_pairs(Buffers(chunks=chunks)) != expected]
    assert differ[:5] == []

