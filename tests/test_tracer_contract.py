"""The names the benchmark's tracer rebinds stay where it looks for them.

``perfbench/tracing.py`` wraps each function of its ``LAYERS`` table by
looking the name up on its ``hubloc`` module and rebinding every module
attribute of ``MODULES`` that holds it.  A function moved out of the module
the table names would make every traced run fail, and a caller that holds
its own binding outside ``MODULES`` would escape the tracer.  The module is
loaded from its path, so nothing under ``perfbench/`` changes.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import make_toy3
from hubloc import milp
from hubloc.formulations import build_nc

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module_attributes(tracing):
    return {name: dict(vars(importlib.import_module(name)))
            for name in tracing.MODULES}


def test_every_traced_name_resolves_on_its_module(tracing):
    for mod, funcs, _ in tracing.LAYERS:
        owner = importlib.import_module(f"hubloc.{mod}")
        for name in funcs:
            assert callable(getattr(owner, name, None)), f"hubloc.{mod}.{name}"


def test_traced_solve_records_each_layer_and_uninstall_restores(tracing):
    before = _module_attributes(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not milp._helper_wanted()
        sol = milp.solve_milp(build_nc(make_toy3()))
    finally:
        tracer.uninstall()
    assert sol.status == "optimal"
    names = {span.name for span in tracer.spans}
    assert {"milp.solve_milp", "simplex.solve_lp",
            "simplex.verify_certificate"} <= names
    after = _module_attributes(tracing)
    for module, attrs in before.items():
        assert after[module].keys() == attrs.keys(), module
        for name, value in attrs.items():
            assert after[module][name] is value, f"{module}.{name}"


def test_traced_enumeration_records_its_lps_and_certificates(tracing):
    """``hubloc.oracle`` is not in ``MODULES``; its gate reads
    ``simplex.verify_certificate`` at each call, so the oracle's
    certificates are traced all the same."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sol = milp.solve_by_enumeration(build_nc(make_toy3()))
    finally:
        tracer.uninstall()
    assert sol.status == "optimal"
    names = [span.name for span in tracer.spans]
    assert names[0] == "milp.solve_by_enumeration"
    assert "simplex.verify_certificate" in names
    lps = [span for span in tracer.spans if span.name == "simplex.solve_lp"]
    assert len(lps) == sol.nodes_explored
    assert {span.attrs["tag"] for span in lps} == {"enum"}
