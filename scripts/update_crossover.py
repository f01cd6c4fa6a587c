"""Time the two forms of the simplex rank-1 update where the script runs.

    python scripts/update_crossover.py [--repeats R] [--number K]

``simplex._iterate`` updates its condensed tableau ``N`` (m x n) and the
reduced costs ``d`` after each pivot in one of two forms:

* ``simplex._dense_update``: ``N -= einsum(colq, trow)`` over every column;
* ``simplex._sparse_update``: gather the columns where the pivot row
  ``trow`` is nonzero, update them and write them back.

``simplex._sparse_gate`` picks the sparse form when ``N`` has at least
``SPARSE_CELLS`` cells and ``trow`` has under ``SPARSE_ROW`` of its
entries nonzero.  This script times those functions, each after the
gate's test as ``_iterate`` runs them, on random tableaux of the sizes the
benchmark workloads meet (66 x 129 and 104 x 144 at n=4, 267 x 463 at
n=6), and of three sizes that straddle the gate as the larger n=4 tableaux
do (16,428 to 25,277 cells): 120 x 140, 132 x 150 and 150 x 168.  It uses
5%, 25% and 50% pivot-row density and one BLAS thread.  It prints one line
per case: the best time per update over R alternating repeats of K
updates, the ratio, and the gate's answer.  Where the sparse form is
slower than the dense one but picked, or faster by a wide margin but not
picked, the two constants do not fit that machine.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from hubloc.simplex import (SPARSE_CELLS, SPARSE_ROW,  # noqa: E402
                            _dense_update, _sparse_gate, _sparse_update)

SIZES = [(66, 129), (104, 144), (120, 140), (132, 150), (150, 168),
         (267, 463)]
DENSITIES = [0.05, 0.25, 0.5]


def case(m, n, density, rng):
    """Random ``(N, d, cols, colq, trow)`` of an m x n tableau whose pivot
    row has ``round(density * n)`` nonzero entries (at least one)."""
    N = rng.uniform(-1.0, 1.0, (m, n))
    d = rng.uniform(-1.0, 1.0, n + m)
    cols = rng.permutation(n + m)[:n]
    colq = rng.uniform(-1.0, 1.0, m)
    trow = np.zeros(n)
    k = max(1, round(density * n))
    trow[rng.choice(n, size=k, replace=False)] = rng.uniform(-1e-3, 1e-3, k)
    return N, d, cols, colq, trow


def best_us(N, d, cols, colq, trow, repeats, number):
    """Best microseconds per update of (dense, sparse), timed alternately."""
    best = {_dense_update: float("inf"), _sparse_update: float("inf")}
    for _ in range(repeats):
        for update in best:
            t0 = time.perf_counter()
            for _ in range(number):
                _sparse_gate(N, trow)
                update(N, d, cols, colq, trow, 1e-3)
            best[update] = min(best[update],
                               (time.perf_counter() - t0) / number)
    return best[_dense_update] * 1e6, best[_sparse_update] * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--number", type=int, default=2000)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(0)
    print(f"numpy {np.__version__}, gate: at least {SPARSE_CELLS} cells "
          f"and under {SPARSE_ROW:g} of the pivot row nonzero")
    for m, n in SIZES:
        for density in DENSITIES:
            N, d, cols, colq, trow = case(m, n, density, rng)
            picked = "sparse" if _sparse_gate(N, trow) else "dense"
            td, ts = best_us(N, d, cols, colq, trow, args.repeats, args.number)
            print(f"{m}x{n} density {density:.2f}: dense {td:.1f} us, "
                  f"sparse {ts:.1f} us, dense/sparse {td / ts:.2f}, "
                  f"gate picks {picked}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
