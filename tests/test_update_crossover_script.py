"""scripts/update_crossover.py runs and prints one line per case."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "update_crossover.py"


def test_update_crossover_prints_one_line_per_case(monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")   # the script sets them when loaded
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("update_crossover", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--repeats", "1", "--number", "1"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.startswith("numpy ")
    cases = [(m, n, d) for m, n in script.SIZES for d in script.DENSITIES]
    assert len(lines) == len(cases)
    for (m, n, density), line in zip(cases, lines):
        assert line.startswith(f"{m}x{n} density {density:.2f}: dense ")
        assert line.endswith(("gate picks dense", "gate picks sparse"))
