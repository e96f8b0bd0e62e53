"""Mutation check for the integer kernel, the gate, the record reader, the
simulator and the command line.

Run from the repository root:

    python tests/mutation.py [records intsmooth gate sim cli]

Each mutant changes one spot of ``src/smoothgate/<module>.py``: a swapped
comparison (``<`` and ``<=``, ``==`` and ``!=``, ``is`` and ``is not``,
...), a swapped arithmetic operator (``+`` and ``-``, ``*`` and ``//``,
...), or an int constant plus 1.  It runs against the module's tier-1 test
files with ``-x -m "not slow"`` in a copy of ``src/``, ``tests/``, and the
``demos/`` and ``perfbench/`` that some of those tests run, and a failing
or hung run kills it.  A mutant that survives must be in
``EQUIVALENT`` with the reason no test can tell it from the original; the
script exits 1 when one is not, or when an entry there names no surviving
mutant.  pytest does not collect this file.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "smoothgate"

# The tier-1 files that test each module.
TESTS = {
    "records": ["tests/test_records.py", "tests/test_sim.py::TestReadPairs",
                "tests/test_sim.py::TestReadPairsMatchesTheTokenLoop",
                "tests/test_row_format.py"],
    "intsmooth": ["tests/test_intsmooth.py", "tests/test_properties.py",
                  "tests/test_stateful.py", "tests/test_acceptance.py",
                  "tests/test_int_width.py"],
    "gate": ["tests/test_gate.py", "tests/test_stateful.py"],
    "sim": ["tests/test_sim.py", "tests/test_row_format.py", "tests/test_acceptance.py",
            "tests/test_cli.py", "tests/test_entry_points.py"],
    "cli": ["tests/test_cli.py", "tests/test_row_format.py", "tests/test_entry_points.py",
            "tests/test_smooth_stream.py", "tests/test_demos.py"],
}

# A fixed seed makes every run draw the same examples, so a mutant is
# killed or survives the same way each time.
PYTEST_ARGS = ["-x", "-q", "-m", "not slow", "-p", "no:cacheprovider",
               "--hypothesis-seed=0"]
TIMEOUT_S = 300

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
    ast.FloorDiv: ast.Mult, ast.Div: ast.Mult, ast.Mod: ast.FloorDiv,
    ast.Pow: ast.Mult,
}

# Mutants no test can kill, by the key ``mutants`` gives them, each with
# the reason it behaves as the original does.
EQUIVALENT = {
    "records.stream_blocks: partial[-1:] -> partial[-2:]":
        "the two differ only on a sign and one digit (\"-5\"), and then the "
        "digit-only buffers after it are joined one read later: the same pairs",
    "intsmooth.cdiv: a >= 0 -> a > 0":
        "a == 0 takes the negative branch, whose quotients -(0 // b) and "
        "0 // -b are 0 too",
    "intsmooth.cdiv: a >= 0 -> a >= 1": "the same test as a > 0 on ints",
    "intsmooth.cdiv: b > 0 -> b >= 0":
        "b == 0 then divides by 0 in the other branch: the same ZeroDivisionError",
    "intsmooth.cdiv: b > 0 -> b > 1": "b == 1 then gives -(a // -1) == a // 1",
    "intsmooth.cdiv: b > 0 -> b >= 0 #2":
        "b == 0 then divides by 0 in the other branch: the same ZeroDivisionError",
    "intsmooth.cdiv: b > 0 -> b > 1 #2": "b == 1 then gives -a // -1 == -(-a // 1)",
    "intsmooth.clamp_observation: x > hi -> x >= hi": "x == hi returns hi, which is x",
    "intsmooth.clamp_observation: x < lo -> x <= lo": "x == lo returns lo, which is x",
    "intsmooth.IntSmoother.__init__: self.last_update = 0 -> self.last_update = 1":
        "n is 0 until the first update, which sets it to 1 whether or not the "
        "elapsed time resets it, and then overwrites last_update",
    "intsmooth.IntSmoother.__init__: self.ft = 0 -> self.ft = 1":
        "ft is read only once n > 0, and the update that raises n sets ft first",
    "sim.<module>: _CSV_BLOCK = 256 -> _CSV_BLOCK = 257":
        "a block's size does not change the text, only how many rows one % formats",
    "cli._c_int: decimal[:20] -> decimal[:21]":
        "20 decimal digits already pass the long's end, so both saturate alike",
    "cli._c_int: value + 2**31 -> value - 2 ** 31": "the two are equal modulo 2**32",
    "cli.cmd_smooth: ManualClock(0) -> ManualClock(1)":
        "only the differences between readings count, and the first update "
        "starts from n = 0 whatever the time",
    "cli.cmd_smooth: reset_time + 1 -> reset_time + 2":
        "any pause longer than reset_time resets, and only the time slept differs",
}


# A constant is shown inside the nearest expression that is none of these,
# or else the nearest simple statement, or else its line.
_NOT_SHOWN = (ast.Constant, ast.UnaryOp, ast.Slice)


class _Finder(ast.NodeVisitor):
    """Collect (qualname, shown node, node, mutated node) for every spot."""

    def __init__(self):
        self.names = []
        self.shown = []
        self.spots = []

    def _scope(self, node):
        self.names.append(node.name)
        self.generic_visit(node)
        self.names.pop()

    visit_FunctionDef = visit_ClassDef = _scope

    def generic_visit(self, node):
        if (isinstance(node, ast.expr) and not isinstance(node, _NOT_SHOWN)
                or isinstance(node, ast.stmt) and not hasattr(node, "body")):
            self.shown.append(node)
            super().generic_visit(node)
            self.shown.pop()
        else:
            super().generic_visit(node)

    def _add(self, node, mutated, shown):
        name = ".".join(self.names) or "<module>"
        self.spots.append((name, shown, node, mutated))

    def visit_Compare(self, node):
        for i, op in enumerate(node.ops):
            ops = list(node.ops)
            ops[i] = SWAPS[type(op)]()
            self._add(node, ast.Compare(node.left, ops, node.comparators), node)
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if type(node.op) in SWAPS:
            self._add(node, ast.BinOp(node.left, SWAPS[type(node.op)](), node.right), node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if type(node.op) in SWAPS:
            self._add(node, ast.AugAssign(node.target, SWAPS[type(node.op)](), node.value), node)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if type(node.value) is int:
            self._add(node, ast.Constant(node.value + 1), self.shown[-1] if self.shown else None)


def mutants(source: str, module: str):
    """Yield (key, mutated source) for every mutant of a module's source.

    The key names the module, the enclosing function and the expression
    before and after, with ``#2``, ``#3``, ... on repeats.
    """
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def span(node):  # ast offsets count UTF-8 bytes
        return (starts[node.lineno - 1] + node.col_offset,
                starts[node.end_lineno - 1] + node.end_col_offset)

    finder = _Finder()
    finder.visit(ast.parse(source))
    seen = {}
    for name, shown, node, mutated in finder.spots:
        lo, hi = span(node)
        new = ast.unparse(mutated).encode()
        show_lo, show_hi = span(shown) if shown else starts[node.lineno - 1:node.lineno + 1]
        before = " ".join(data[show_lo:show_hi].decode().split())
        after = " ".join((data[show_lo:lo] + new + data[hi:show_hi]).decode().split())
        key = f"{module}.{name}: {before} -> {after}"
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            key += f" #{seen[key]}"
        yield key, (data[:lo] + new + data[hi:]).decode()


def killed(workdir: Path, tests) -> bool:
    """Whether the tests fail (or hang) on the tree in workdir."""
    shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", *PYTEST_ARGS, *tests],
                              cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True
    return proc.returncode != 0


def main(modules) -> int:
    failures = 0
    found = set()
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        workdir = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
        for part in ("src", "tests", "demos", "perfbench"):
            shutil.copytree(ROOT / part, workdir / part, ignore=skip)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, workdir)
        for module in modules:
            path = workdir / PACKAGE / f"{module}.py"
            source = path.read_text()
            tests = TESTS[module]
            if killed(workdir, tests):
                print(f"{module}: the tests fail on the unmutated source")
                return 1
            counts = {"killed": 0, "equivalent": 0, "surviving": 0}
            try:
                for key, mutant in mutants(source, module):
                    found.add(key)
                    path.write_text(mutant)
                    if killed(workdir, tests):
                        counts["killed"] += 1
                        if key in EQUIVALENT:
                            print(f"KILLED BUT LISTED AS EQUIVALENT: {key}")
                            failures += 1
                    elif key in EQUIVALENT:
                        counts["equivalent"] += 1
                    else:
                        counts["surviving"] += 1
                        failures += 1
                        print(f"SURVIVED: {key}")
            finally:
                path.write_text(source)
            print(f"{module}: {sum(counts.values())} mutants, "
                  + ", ".join(f"{n} {what}" for what, n in counts.items()), flush=True)
    for key in EQUIVALENT:
        if key.split(".", 1)[0] in modules and key not in found:
            print(f"NO SUCH MUTANT: {key}")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(TESTS)))
