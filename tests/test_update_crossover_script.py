"""scripts/update_crossover.py runs, prints one line per case with a time
for each update form, builds its tableaux column-major as ``solve_lp``
does, and each line's choice is the answer of ``simplex._pick_update``."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from hubloc import simplex

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "update_crossover.py"


def test_update_crossover_prints_one_line_per_case(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("update_crossover", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.FORMS == {"dense": simplex._dense_update,
                            "blocked": simplex._blocked_update,
                            "sparse": simplex._sparse_update}
    assert script.main(["--repeats", "1", "--number", "1"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.startswith("numpy ")
    cases = [(m, n, d) for m, n in script.SIZES for d in script.DENSITIES]
    assert len(lines) == len(cases)
    rng = np.random.default_rng(0)   # main's, which only case() draws from
    picks = set()
    for (m, n, density), line in zip(cases, lines):
        assert line.startswith(f"{m}x{n} density {density:.2f}: dense ")
        assert ", blocked " in line and ", sparse " in line
        N, _, _, _, trow = script.case(m, n, density, rng)
        assert N.shape == (m, n) and N.flags.f_contiguous
        pick = simplex._pick_update(N.T, trow).__name__
        assert line.endswith(f"picks {pick}")
        picks.add(pick)
    # the cases straddle both gates
    assert picks == {"_dense_update", "_blocked_update", "_sparse_update"}
