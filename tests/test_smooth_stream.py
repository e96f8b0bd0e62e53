"""``smooth`` on a stream: each record is updated as it arrives, as in the C
program's fscanf loop, so a live input resets on the real clock and the
memory held does not grow with the input."""

import errno
import os
import random
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import smoothgate
from smoothgate.cli import main

from oracles import smooth_rows

PACKAGE_PARENT = str(Path(smoothgate.__file__).parents[1])


def write_records(path: Path, n: int) -> Path:
    rng = random.Random(n)
    path.write_text("".join(f"{i} {int(rng.lognormvariate(6, 0.5))}\n"
                            for i in range(1, n + 1)))
    return path


def _feed(fifo: Path, first: bytes, rest: bytes, gap: float, failures: list) -> None:
    """Send ``first`` once a reader has the FIFO open, ``rest`` gap seconds
    later, then close it.  A reader that never opens it fails the test
    instead of hanging it."""
    deadline = time.monotonic() + 60
    while True:
        try:
            fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
            break
        except OSError as err:
            if err.errno != errno.ENXIO or time.monotonic() > deadline:
                failures.append(err)
                return
            time.sleep(0.01)
    os.set_blocking(fd, True)
    try:
        os.write(fd, first)
        time.sleep(gap)
        os.write(fd, rest)
    finally:
        os.close(fd)


@pytest.mark.slow
@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pause_on_a_live_fifo_resets_as_in_the_c_program(tmp_path, request):
    # Records 4-6 arrive 2.5 s after records 1-3, so at least 2 whole
    # seconds pass between the updates of records 3 and 4: past -t 1.
    values = [100, 200, 300, 400, 500, 600]
    records = [b"%d %d\n" % (i, x) for i, x in enumerate(values, start=1)]
    commands = {"port": [sys.executable, "-m", "smoothgate.cli", "smooth"]}
    if shutil.which("cc") or shutil.which("gcc"):
        commands["c"] = [str(request.getfixturevalue("c_oracle"))]
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    procs, feeders, failures = {}, [], []
    for side, command in commands.items():
        fifo = tmp_path / f"{side}.fifo"
        os.mkfifo(fifo)
        procs[side] = subprocess.Popen(
            [*command, "-t", "1", "-w", str(tmp_path / f"{side}.csv"), str(fifo)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        feeder = threading.Thread(target=_feed, args=(
            fifo, b"".join(records[:3]), b"".join(records[3:]), 2.5, failures))
        feeder.start()
        feeders.append(feeder)
    results = {}
    for side, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        results[side] = (proc.returncode, out, err, (tmp_path / f"{side}.csv").read_text())
    for feeder in feeders:
        feeder.join()
    assert failures == []

    rc, out, err, csv = results["port"]
    assert (rc, err) == (0, b"")
    expected = [",".join(map(str, row)) for row in smooth_rows(
        list(enumerate(values, start=1)), 10,
        event_times=[0, 0, 0, 2, 2, 2], reset_interval=1)]
    assert csv.splitlines()[3:] == expected
    assert expected[3] == "4,400,400,0,150,1,400,400"
    if "c" in results:
        assert results["port"] == results["c"]


def _smooth_peak(source: Path) -> int:
    """tracemalloc's peak over one in-process ``smooth --sim-clock -w`` run."""
    saved = sys.stdout
    with open(os.devnull, "w") as sink:
        sys.stdout = sink
        tracemalloc.start()
        try:
            assert main(["smooth", "--sim-clock", "-w", os.devnull, str(source)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sys.stdout = saved


def test_the_traced_peak_does_not_grow_with_the_input(tmp_path):
    # Tracing slows smooth ~30-fold, so this test stays at 20k records; the
    # spawned test below runs a million.
    small = _smooth_peak(write_records(tmp_path / "2k.txt", 2_000))
    large = _smooth_peak(write_records(tmp_path / "20k.txt", 20_000))
    # Reading the whole input first held ~0.3 KB per record: 6 MB here.
    assert large < small + 64 * 1024


# Runs smooth in a fresh interpreter and prints its peak resident set
# (VmHWM, in kB), which, unlike the rusage of a child, counts nothing of
# the process that spawned it.
_PEAK_SCRIPT = """
import os, sys
from smoothgate.cli import main
sys.stdout = open(os.devnull, "w")
assert main(["smooth", "--sim-clock", sys.argv[1]]) == 0
sys.stdout = sys.__stdout__
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_a_million_records_peak_within_2_mb_of_five_thousand(tmp_path):
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    peaks = []
    for n in (5_000, 1_000_000):
        source = write_records(tmp_path / f"{n}.txt", n)
        proc = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, str(source)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout))
    assert peaks[1] - peaks[0] < 2 * 1024
