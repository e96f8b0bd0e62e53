"""The C program's record formats: the "<count> <value>" pairs it reads and
the verbose CSV row its ``-w`` file holds, shared by ``smooth`` and ``sim``."""

import re

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


def read_pairs(text: str) -> list[tuple[int, int]]:
    """Parse "<count> <value>" integer pairs as C's
    ``while (fscanf(in, "%d%d", &count, &xt) == 2)`` loop does.

    Reading stops where no integer continues, so ``12abc`` gives 12 and
    ``0x10`` gives 0, and an unpaired last integer is dropped.  A literal
    longer than the interpreter's int-digit limit raises ValueError.
    """
    stop = _SCANF_STOP.search(text)
    end = stop.start() if stop else len(text)
    stop = _SCANF_BARE_SIGN.search(text, 0, end)
    if stop:
        end = stop.start()
    it = map(int, text[:end].replace("+", " +").replace("-", " -").split())
    return list(zip(it, it))
