"""The C program's record formats: the "<count> <value>" pairs it reads and
the verbose CSV row its ``-w`` file holds, shared by ``smooth`` and ``sim``."""

import re
from itertools import chain
from typing import Iterator

# The leading trace columns, shared with the ``smooth -w`` CSV.  ``%s``
# renders every value as str() does, as ``f"{value}"`` would.
TRACE_COLUMNS = "count,observe,forecast,diff,diffsum,n,stx1,stx2"
TRACE_ROW = "%s,%s,%s,%s,%s,%s,%s,%s"

# The integers C's ``fscanf(in, "%d%d", ...)`` loop reads: each ``%d``
# skips C-locale white space, then takes an optional sign and ASCII digits.
# Reading stops at the first character no ``%d`` can take: one outside that
# set, or a sign with no digit after it.  One search finds the first of the
# former, a second search before it the first of the latter (two
# single-class searches cost less than their alternation).  In the text
# left, every sign starts an integer, so a space put before each sign makes
# ``split()`` yield exactly the ``[+-]?[0-9]+`` integers.
_C_SPACE = " \t\n\v\f\r"  # isspace() in the C locale
_SCANF_STOP = re.compile(f"[^{_C_SPACE}+0-9-]")
_SCANF_BARE_SIGN = re.compile(r"[+-](?![0-9])")


def _scan(text: str, more: bool) -> tuple[list[str], str | None]:
    """The complete integer literals the ``%d`` loop takes from text, and
    the last one, if the text ends inside it.

    ``more`` says whether more text may follow.  The second value is None
    once reading has stopped or no text follows.  Otherwise it is the
    trailing digit run or sign that the next text may continue ("" when the
    text ends in white space): a sign at the very end may yet get its digit.
    """
    stop = _SCANF_STOP.search(text)
    end = stop.start() if stop else len(text)
    # With no sign in the text there is no bare sign to look for.
    sign = _SCANF_BARE_SIGN.search(text, 0, end) if "+" in text or "-" in text else None
    if sign and (stop or not more or sign.end() < len(text)):
        stop, end = sign, sign.start()
    ints = text[:end].replace("+", " +").replace("-", " -").split()
    if stop or not more:
        return ints, None
    return ints, "" if text[-1:] in _C_SPACE else ints.pop()


def stream_blocks(stream) -> Iterator[Iterator[tuple[int, int]]]:
    """Yield, per ``read1()`` buffer of a binary stream, an iterator over
    the "<count> <value>" pairs C's fscanf loop finds that the buffer
    completes.

    Each buffer is decoded as Latin-1, which maps every byte to one
    character.  Pairs convert only as they are taken, so those before an
    over-long literal come before its ValueError.  Besides one buffer's text
    and literals, only a count waiting for its value and a literal the next
    buffer may continue are held, so the memory held does not grow with the
    number of records.  The next buffer is read once the iterator before it
    is exhausted, and none past the point where reading stops.
    """
    read1 = stream.read1
    count = None  # a complete literal still waiting for its value
    partial = ""
    while partial is not None:
        pieces = [read1().decode("latin-1")]
        if partial[-1:].isdigit():
            # A literal that runs on through whole buffers is scanned once,
            # when it ends, not again with each buffer.  Only ASCII digits
            # continue it: str.isdigit() also takes Latin-1's "\xb2\xb3\xb9".
            while pieces[-1].isascii() and pieces[-1].isdigit():
                pieces.append(read1().decode("latin-1"))
        ints, partial = _scan(partial + "".join(pieces), bool(pieces[-1]))
        if count is not None:
            ints.insert(0, count)
        count = ints.pop() if len(ints) % 2 and partial is not None else None
        it = map(int, ints)
        yield zip(it, it)


def read_pairs(stream) -> list[tuple[int, int]]:
    """Parse the "<count> <value>" integer pairs of a binary stream as C's
    ``while (fscanf(in, "%d%d", &count, &xt) == 2)`` loop does.

    Reading stops where no integer continues, so ``12abc`` gives 12 and
    ``0x10`` gives 0, and an unpaired last integer is dropped.  A literal
    longer than the interpreter's int-digit limit raises ValueError.
    The stream is read by ``stream_blocks``, so besides the pairs it
    returns, it holds one buffer's text and literals.
    """
    return list(chain.from_iterable(stream_blocks(stream)))
