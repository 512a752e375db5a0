"""Fixed host-speed probe, independent of ikm.

``run.py`` runs this program as a fresh process before each round and once
after the last, and times it from outside like the CLI commands.  The work
never changes, so its wall time moves only with the speed of the host.  It
follows the mix the workloads spend their time on: process start with
``import numpy``, a pure-Python loop, small NumPy calls whose results are
kept (as iterate histories and trace rows are), 500x500 matvecs, and fresh
memory pages (the workloads' histories reach 10-105 MiB).
"""

import numpy as np


def main() -> float:
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    x = np.ones(50)
    small = np.full((50, 50), 0.01)
    kept = []
    for k in range(10_000):
        x = x - 0.1 * (small @ x - 1.0)
        kept.append((k, float(x[0]), x.copy()))
    v = np.ones(500)
    gram = np.full((500, 500), 1.0 / 500)
    for _ in range(300):
        v = gram @ v
    chunks = [np.full(1 << 20, float(i)) for i in range(8)]  # 64 MiB of fresh pages
    return float(acc % 7) + float(v[0]) + len(kept) + float(sum(c[0] for c in chunks))


if __name__ == "__main__":
    print(main())
