"""Machine-speed probe: a fixed mix of interpreter start, bytecode and numpy work.

The benchmark runs it before and after every CLI command it times, and scales
the command's time by a nominal probe time over the measured one, so that the
figures follow the program and not how busy the shared host happens to be.  It
uses nothing from kg-hierarchy.

    python3 perfbench/probe.py
"""

import numpy as np


def work() -> float:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    x = np.linspace(0.0, 1.0, 100_000)
    for _ in range(10):
        x = np.sqrt(x * x + 1.0) - 0.5
    return total + float(np.sort(x)[0])


if __name__ == "__main__":
    work()
