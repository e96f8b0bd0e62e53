import shutil
import subprocess
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"
REFERENCE_C = Path(__file__).parent / "reference" / "time_series_smooth.c"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def c_oracle(tmp_path_factory) -> Path:
    """Compile the reference C program once per session.

    Signed int overflow aborts it, so every comparison with C also checks
    that C's int32 arithmetic stayed defined."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler available for the cross-language oracle")
    exe = tmp_path_factory.mktemp("oracle") / "time_series_smooth"
    subprocess.run(
        [cc, str(REFERENCE_C), "-Wall", "-fsanitize=signed-integer-overflow",
         "-fno-sanitize-recover=all", "-o", str(exe)],
        check=True,
        capture_output=True,
    )
    return exe


def run_oracle(exe, args, cwd=None) -> str:
    """Run the compiled C oracle and return its stdout."""
    proc = subprocess.run(
        [str(exe), *args], capture_output=True, text=True, check=True, cwd=cwd
    )
    return proc.stdout
