"""Check the integer kernel's C int arithmetic at narrow word widths.

``smoothgate.intsmooth`` says that all its arithmetic is 32-bit safe.
``instrument(width)`` checks that on the module's own source, found through
the imported module's ``__file__``: it sets ``INT32_MAX`` and ``INT32_MIN``
to the ends of a ``width``-bit int and range-checks every binary operation
and every ``cdiv(...)`` result in ``clamp_observation``,
``IntSmoother.update``, ``forecast`` and ``trend``.  The clock arithmetic
is left out, because C holds the time in a ``long``, and so is ``cdiv``'s
body, which is C's ``/`` (its ``-a`` is how Python truncates).
``max_lag`` then searches every ``(n, s1, s2)`` state a stream can reach
from a fresh smoother, breadth-first, with the clock stepping +1.

``tests/test_int_width.py`` runs W = 6 and 8 in the test suite.  This
script runs one wider width and prints the largest ``|s1 - s2|`` for each
``n_alpha``.  Run from the repository root:

    PYTHONPATH=src python tests/int_width.py [WIDTH [N_ALPHA_MAX]]

WIDTH defaults to 10 and N_ALPHA_MAX to 20 (about three minutes on a
2-vCPU machine).  It exits 1 when a value leaves the range.  pytest does
not collect this file.
"""

import ast
import copy
import sys
import time
from collections import deque
from pathlib import Path

import smoothgate.intsmooth

CHECKED = {"clamp_observation", "update", "forecast", "trend"}
# Names of the clock reading and the stored time: arithmetic on them is C's long.
CLOCK = {"now", "last_update"}


class WidthError(ArithmeticError):
    """A value left the range of the narrowed int."""


class _Instrument(ast.NodeTransformer):
    """Wrap each checked operation of the CHECKED functions in ``_in_range``."""

    def __init__(self):
        self.function = None
        self.found = set()

    def visit_FunctionDef(self, node):
        if node.name not in CHECKED:
            return node
        self.found.add(node.name)
        self.function = node.name
        self.generic_visit(node)
        self.function = None
        return node

    def _checked(self, node):
        label = ast.Constant(f"{self.function}: {ast.unparse(node)}")
        value = self.generic_visit(node)
        return ast.Call(ast.Name("_in_range", ast.Load()), [value, label], [])

    def visit_BinOp(self, node):
        if self.function is None or any(
                isinstance(part, ast.Name) and part.id in CLOCK
                or isinstance(part, ast.Attribute) and part.attr in CLOCK
                for part in ast.walk(node)):
            return self.generic_visit(node)
        return self._checked(node)

    def visit_Call(self, node):
        if self.function is None or not (isinstance(node.func, ast.Name)
                                         and node.func.id == "cdiv"):
            return self.generic_visit(node)
        return self._checked(node)

    def visit_AugAssign(self, node):
        # n += 1 is C's d->n++: check the sum it stores.
        if self.function is None:
            return node
        load = copy.copy(node.target)
        load.ctx = ast.Load()
        value = self.visit_BinOp(ast.BinOp(load, node.op, node.value))
        return ast.copy_location(ast.Assign([node.target], value), node)


def instrument(width: int) -> dict:
    """The namespace of ``smoothgate.intsmooth`` run with ``width``-bit ints
    and every checked operation range-checked; a value outside the range
    raises WidthError."""
    path = smoothgate.intsmooth.__file__
    transformer = _Instrument()
    tree = transformer.visit(ast.parse(Path(path).read_text(), path))
    if transformer.found != CHECKED:
        raise LookupError(f"{path} has no {sorted(CHECKED - transformer.found)}")
    lo, hi = -2 ** (width - 1), 2 ** (width - 1) - 1

    def in_range(value, label):
        if not lo <= value <= hi:
            raise WidthError(f"{label} is {value}, outside [{lo}, {hi}]")
        return value

    namespace = {"__name__": "smoothgate.intsmooth", "__package__": "smoothgate",
                 "_in_range": in_range}
    exec(compile(ast.fix_missing_locations(tree), path, "exec"), namespace)
    namespace.update(INT32_MAX=hi, INT32_MIN=lo)
    return namespace


def max_lag(module: dict, n_alpha: int) -> int:
    """Run ``module``'s IntSmoother on every input from every reachable
    ``(n, s1, s2)`` state and return the largest ``|s1 - s2|`` reached.

    ``update`` reads its input only through ``clamp_observation``, so one
    input per clamped value stands for all of them; ``clamp_observation``
    itself runs on every int of the width.
    """
    lo, hi = module["INT32_MIN"], module["INT32_MAX"]
    clamp = module["clamp_observation"]
    inputs = list({clamp(x, n_alpha): x for x in range(lo, hi + 1)}.values())
    clock = module["ManualClock"](1)
    smoother = module["IntSmoother"](n_alpha, clock=clock)
    start = (smoother.n, smoother.s1, smoother.s2)
    seen = {start}
    queue = deque([start])
    lag = 0
    while queue:
        state = queue.popleft()
        for x in inputs:
            smoother.n, smoother.s1, smoother.s2 = state
            smoother.last_update = 0
            try:
                smoother.update(x)
                smoother.forecast
                smoother.trend()
            except WidthError as error:
                raise WidthError(f"n_alpha {n_alpha}, (n, s1, s2) = {state}, x = {x}: "
                                 f"{error}") from None
            reached = (smoother.n, smoother.s1, smoother.s2)
            if reached not in seen:
                seen.add(reached)
                queue.append(reached)
                lag = max(lag, abs(reached[1] - reached[2]))
    return lag


def main(width: int = 10, n_alpha_max: int = 20) -> int:
    module = instrument(width)
    print(f"W = {width}: largest |s1 - s2| per n_alpha", flush=True)
    for n_alpha in range(1, n_alpha_max + 1):
        start = time.perf_counter()
        try:
            lag = max_lag(module, n_alpha)
        except WidthError as error:
            print(error)
            return 1
        print(f"n_alpha {n_alpha:3d}: {lag:5d}  ({time.perf_counter() - start:.1f} s)",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
