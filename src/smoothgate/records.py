"""The C program's record formats: the "<count> <value>" pairs it reads and
the verbose CSV row its ``-w`` file holds, shared by ``smooth`` and ``sim``."""

import re
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
_SCANF_STOP = re.compile(r"[^ \t\n\v\f\r+0-9-]")
_SCANF_BARE_SIGN = re.compile(r"[+-](?![0-9])")
_C_SPACE = " \t\n\v\f\r"


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
    sign = _SCANF_BARE_SIGN.search(text, 0, end)
    if sign and (stop or not more or sign.end() < len(text)):
        stop, end = sign, sign.start()
    ints = text[:end].replace("+", " +").replace("-", " -").split()
    if stop or not more:
        return ints, None
    return ints, "" if text[-1:] in _C_SPACE else ints.pop()


def read_pairs(text: str) -> list[tuple[int, int]]:
    """Parse "<count> <value>" integer pairs as C's
    ``while (fscanf(in, "%d%d", &count, &xt) == 2)`` loop does.

    Reading stops where no integer continues, so ``12abc`` gives 12 and
    ``0x10`` gives 0, and an unpaired last integer is dropped.  A literal
    longer than the interpreter's int-digit limit raises ValueError.
    """
    it = map(int, _scan(text, False)[0])
    return list(zip(it, it))


def stream_pairs(stream) -> Iterator[tuple[int, int]]:
    """Yield the pairs ``read_pairs`` finds in a binary stream, each as soon
    as the buffer that completes it arrives, as C's fscanf loop returns it.

    Each buffer is one ``read1()`` of the stream, decoded as Latin-1, which
    maps every byte to one character.  Only a count waiting for its value
    and a literal the next buffer may continue are held back, so the memory
    held does not grow with the number of records.  Nothing is read past
    the point where reading stops.
    """
    read1 = stream.read1
    count = None  # a complete literal still waiting for its value
    partial = ""
    while partial is not None:
        chunks = [read1()]
        if partial[-1:].isdigit():
            # A literal that runs on through whole buffers is scanned once,
            # when it ends, not again with each buffer.
            while chunks[-1].isdigit():
                chunks.append(read1())
        ints, partial = _scan(partial + b"".join(chunks).decode("latin-1"), bool(chunks[-1]))
        if count is not None:
            ints.insert(0, count)
        count = ints.pop() if len(ints) % 2 and partial is not None else None
        it = map(int, ints)
        yield from zip(it, it)
