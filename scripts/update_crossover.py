"""Time the three forms of the simplex rank-1 update where the script runs.

    python scripts/update_crossover.py [--repeats R] [--number K]

``simplex._iterate`` keeps its condensed tableau ``N`` (m x n) column-major
and updates it and the reduced costs ``d`` after each pivot in one of three
forms, each on the C-contiguous transpose ``N.T``:

* ``simplex._dense_update``: ``N -= einsum(colq, trow)`` over every column,
  through one temporary the size of ``N``;
* ``simplex._blocked_update``: the same products and subtractions in slices
  of whole columns, at most ``BLOCK_CELLS`` cells each, through one buffer;
* ``simplex._sparse_update``: gather the columns where the pivot row
  ``trow`` is nonzero, update them and write them back.

``simplex._pick_update`` picks the sparse form when ``N`` has at least
``SPARSE_CELLS`` cells and ``trow`` has under ``SPARSE_ROW`` of its entries
nonzero, else the blocked form when ``N`` has more than ``BLOCK_CELLS``
cells, else the dense one.  This script times the three functions, each
after ``_pick_update`` as ``_iterate`` runs them, on random column-major
tableaux of the sizes the benchmark workloads meet: 66 x 129 and 104 x 144
at n=4; 120 x 140, 132 x 150 and 150 x 168, which straddle the sparse gate
as the larger n=4 tableaux do (16,428 to 25,277 cells); and at n=6 the
150 x 420 of the scenario baselines and the 420 x 450 of ``ocu``, above
the block gate.  It uses 5%, 25% and 50% pivot-row density.  None of
the three forms calls BLAS, so the script sets no thread count.  It
prints one line per case: the best time per update of each form over R
alternating repeats of K updates, and the form the kernel picks.  Where
the picked form is not the fastest by a wide margin, the constants do
not fit that machine.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from hubloc.simplex import (BLOCK_CELLS, SPARSE_CELLS,  # noqa: E402
                            SPARSE_ROW, _blocked_update, _dense_update,
                            _pick_update, _sparse_update)

SIZES = [(66, 129), (104, 144), (120, 140), (132, 150), (150, 168),
         (150, 420), (420, 450)]
DENSITIES = [0.05, 0.25, 0.5]
FORMS = {"dense": _dense_update, "blocked": _blocked_update,
         "sparse": _sparse_update}


def case(m, n, density, rng):
    """Random ``(N, d, cols, colq, trow)`` of an m x n column-major tableau
    whose pivot row has ``round(density * n)`` nonzero entries (at least
    one)."""
    N = rng.uniform(-1.0, 1.0, (n, m)).T
    d = rng.uniform(-1.0, 1.0, n + m)
    cols = rng.permutation(n + m)[:n]
    colq = rng.uniform(-1.0, 1.0, m)
    trow = np.zeros(n)
    k = max(1, round(density * n))
    trow[rng.choice(n, size=k, replace=False)] = rng.uniform(-1e-3, 1e-3, k)
    return N, d, cols, colq, trow


def best_us(N, d, cols, colq, trow, repeats, number):
    """Best microseconds per update of each form, timed alternately."""
    Nt = N.T
    best = dict.fromkeys(FORMS, float("inf"))
    for _ in range(repeats):
        for name, update in FORMS.items():
            t0 = time.perf_counter()
            for _ in range(number):
                _pick_update(Nt, trow)
                update(Nt, d, cols, colq, trow, 1e-3)
            best[name] = min(best[name], (time.perf_counter() - t0) / number)
    return {name: t * 1e6 for name, t in best.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--number", type=int, default=2000)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(0)
    print(f"numpy {np.__version__}, sparse form: at least {SPARSE_CELLS} "
          f"cells and under {SPARSE_ROW:g} of the pivot row nonzero; "
          f"blocked form: over {BLOCK_CELLS} cells")
    for m, n in SIZES:
        for density in DENSITIES:
            N, d, cols, colq, trow = case(m, n, density, rng)
            picked = _pick_update(N.T, trow).__name__
            us = best_us(N, d, cols, colq, trow, args.repeats, args.number)
            times = ", ".join(f"{name} {t:.1f} us" for name, t in us.items())
            print(f"{m}x{n} density {density:.2f}: {times}, picks {picked}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
