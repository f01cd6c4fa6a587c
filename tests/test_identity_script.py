"""scripts/identity.py on a tiny corpus: two runs write identical files."""

import importlib.util
from dataclasses import replace
from pathlib import Path

from conftest import make_toy3
from hubloc import claims, milp, simplex
from hubloc.formulations import build_nc

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "identity.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("identity_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_script_is_repeatable_on_a_tiny_corpus(tmp_path):
    identity = _load_script()
    commands = [("gen", ["gen", "--seed", "3", "--nodes", "3", "-o", "i.json"]),
                ("solve-nc", ["solve", "--model", "nc", "i.json"]),
                ("bad-model", ["solve", "--model", "xx", "i.json"])]
    corpus = [("toy3", lambda _: milp.solve_milp(build_nc(make_toy3())), 0)]
    for side in ("a", "b"):
        identity.write_identity(tmp_path / side, commands, corpus)
    assert milp.solve_lp is simplex.solve_lp
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
    a = tmp_path / "a"
    codes = [(a / f"{i:02d}-{name}.rc").read_text()
             for i, (name, _) in enumerate(commands)]
    assert codes == ["0\n", "0\n", "1\n"]
    assert '"status": "optimal"' in (a / "01-solve-nc.out").read_text()
    assert "usage error" in (a / "02-bad-model.err").read_text()
    digest = dict(line.split(": ", 1)
                  for line in (a / "lp_digest.txt").read_text().splitlines())
    assert digest["corpus"] == "toy3"
    assert int(digest["lps"]) > 0 and int(digest["pivots"]) > 0
    assert len(digest["sha256"]) == 64
    solutions = dict(line.split(": ", 1) for line in
                     (a / "solution_digest.txt").read_text().splitlines())
    assert solutions["corpus"] == "toy3"
    assert solutions["solutions"] == "1"
    assert len(solutions["sha256"]) == 64


def test_lp_digest_ignores_the_lp_order_within_an_item_but_counts_each_lp():
    identity = _load_script()
    a = build_nc(make_toy3())
    b = build_nc(make_toy3(setup=(5.0, 100.0, 100.0)))

    def digest(*models):
        corpus = [("lps", lambda _: [milp.solve_lp(m) for m in models], 0)]
        return dict(line.split(": ", 1)
                    for line in identity.lp_digest(corpus).splitlines())

    ab, ba, abb = digest(a, b), digest(b, a), digest(a, b, b)
    assert ab == ba != digest(a, a)   # a and b have different results
    assert int(abb["lps"]) == int(ab["lps"]) + 1 == 3
    assert abb["sha256"] != ab["sha256"]
    assert milp.solve_lp is simplex.solve_lp


def test_lp_digest_covers_the_duals(monkeypatch):
    """Results that differ only in their duals, which the certificate
    reads, give another digest over the same LP and pivot counts."""
    identity = _load_script()
    model = build_nc(make_toy3())
    corpus = [("toy3", lambda _: milp.solve_lp(model), 0)]
    plain = identity.lp_digest(corpus)
    solve_lp = simplex.solve_lp

    def shifted(model, extra_bounds=None):
        res = solve_lp(model, extra_bounds)
        return replace(res, duals=res.duals + 1.0)

    for mod in (simplex, milp, claims):
        monkeypatch.setattr(mod, "solve_lp", shifted)
    moved = identity.lp_digest(corpus)
    monkeypatch.undo()
    assert milp.solve_lp is simplex.solve_lp is solve_lp
    assert moved.splitlines()[:-1] == plain.splitlines()[:-1]
    assert moved != plain
