import ctypes
import shutil
import subprocess
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"
REFERENCE_C = Path(__file__).parent / "reference" / "time_series_smooth.c"
SCANF_PAIRS_C = Path(__file__).parent / "reference" / "scanf_pairs.c"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def c_oracle(tmp_path_factory) -> Path:
    """Compile the reference C program once per session.

    Signed int overflow aborts it, so every comparison with C also checks
    that C's int32 arithmetic stayed defined."""
    exe = tmp_path_factory.mktemp("oracle") / "time_series_smooth"
    subprocess.run(
        [_compiler(), str(REFERENCE_C), "-Wall", "-fsanitize=signed-integer-overflow",
         "-fno-sanitize-recover=all", "-o", str(exe)],
        check=True,
        capture_output=True,
    )
    return exe


@pytest.fixture(scope="session")
def c_scanf_pairs(tmp_path_factory):
    """C's ``fscanf(in, "%d%d", ...)`` loop, compiled once per session and
    called in process: bytes in, the (count, value) pairs it reads out."""
    lib = tmp_path_factory.mktemp("scanf") / "scanf_pairs.so"
    subprocess.run([_compiler(), "-shared", "-fPIC", "-Wall", str(SCANF_PAIRS_C),
                    "-o", str(lib)], check=True, capture_output=True)
    scanf_pairs = ctypes.CDLL(str(lib)).scanf_pairs
    scanf_pairs.argtypes = (ctypes.c_char_p, ctypes.c_size_t,
                            ctypes.POINTER(ctypes.c_int), ctypes.c_int)

    def read(data: bytes) -> list[tuple[int, int]]:
        out = (ctypes.c_int * (len(data) + 1))()  # each int takes a byte at least
        n = scanf_pairs(data, len(data), out, len(out))
        return list(zip(out[:2 * n:2], out[1:2 * n:2]))

    return read


def _compiler() -> str:
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler available for the cross-language oracle")
    return cc
