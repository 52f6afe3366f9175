"""The machine-speed probe that scales the benchmark's times.

On a shared virtual machine the speed of a core drifts by 15-35 % within
seconds, and the time of a fixed piece of pure-Python work drifts with it.
Every end-to-end time is therefore scaled to a reference speed: multiplied
by REF_SPIN_S over the median time of `spin()` taken around the measured
work, in the same process or, for operations that run in child processes,
in a fresh one.  REF_SPIN_S is about that median on the 2-core machine the
baseline was recorded on.

    python3 bench/speed.py      # prints five spin() times, in seconds
"""

import statistics
import subprocess
import sys
import time

REF_SPIN_S = 1.8e-3


def spin():
    """Seconds this process takes for a fixed piece of pure-Python work."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(10_000):
        acc += i * i % 7
        table[i & 255] = (acc, i)
    return time.perf_counter() - start


def spin_in_child():
    """`spin()` times from a fresh interpreter, which the scheduler places as
    it places the operations' child processes."""
    # -S: no site imports, which start-up does not need and which take longer
    # than the spins
    proc = subprocess.run([sys.executable, "-S", __file__], capture_output=True, text=True,
                          timeout=150, check=True)
    return list(map(float, proc.stdout.split()))


def slowness(spins):
    """How much slower than the reference speed the machine ran."""
    return statistics.median(spins) / REF_SPIN_S


if __name__ == "__main__":
    print(*(spin() for _ in range(5)))
