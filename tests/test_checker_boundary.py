"""The checkers stay apart from the code they check.

Each guard reads a function's source with ``ast`` and takes the global
names it loads: every name read in its body, signature or nested
functions, less the names it binds itself and the builtins.  The
certificate check lives in ``hubloc.certify``, whose imports name only
``__future__``, ``dataclasses``, ``numpy`` and ``.model``, and loads no
solver code: it reads the model, the shared model checks and the result's
``x``, objective and duals, never its basis, and makes no LAPACK call.
The model checks read the model's terms, never its compiled arrays: the
compiled form lives in ``hubloc.simplex``, the solver that reads it,
``hubloc.model`` imports no ``hubloc`` module, and no code of ``model``
or ``certify`` reads a model's compiled form or its cache slot.  The
enumeration oracle, in ``hubloc.oracle``, imports nothing from
``hubloc.milp``, so it can share no search logic with branch and bound
there.
"""

import ast
import builtins
import inspect
import textwrap
from pathlib import Path

import pytest

from hubloc import certify, milp, model, oracle, simplex

# Every global name verify_certificate loads: its tolerances, its report,
# the model's classes, relations and shared checks, and numpy.  No name of
# the solver's presolve, standard form, basis or result type is among them.
CERTIFICATE_GLOBALS = {
    "FEAS_TOL", "OPT_TOL", "BOUND_TOL", "CertificateReport",
    "row_violations", "effective_bounds", "LinearModel", "LE", "GE", "np"}
# The only modules certify.py may import, TYPE_CHECKING blocks included.
CERTIFY_IMPORTS = {"__future__", "dataclasses", "numpy", ".model"}
# The only modules oracle.py may import: the LP solver, never the search.
ORACLE_IMPORTS = CERTIFY_IMPORTS | {".simplex"}
# The only modules model.py may import: no solver code, so no compiled form.
MODEL_IMPORTS = {"__future__", "math", "dataclasses", "numpy"}
# The solver's compiled form of a model and the model's cache slot for it.
COMPILED = {"compiled", "_compiled"}


def source_of(module) -> str:
    return Path(module.__file__).read_text(encoding="utf-8")


def _tree(fn) -> ast.AST:
    return ast.parse(textwrap.dedent(inspect.getsource(fn)))


def loaded_globals(tree: ast.AST) -> set[str]:
    """Names that the one function defined in ``tree`` loads and does not
    bind, less the builtins."""
    loaded, bound = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            (loaded if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef,
                               ast.ExceptHandler)) and node.name:
            bound.add(node.name)
    return loaded - bound - set(dir(builtins))


def read_attributes(fn) -> set[str]:
    return {node.attr for node in ast.walk(_tree(fn))
            if isinstance(node, ast.Attribute)}


def imported_modules(source: str) -> set[str]:
    """The module each import statement of ``source`` names, anywhere in
    it, with a relative import's leading dots; ``from . import a`` names
    ``.a``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            names.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + node.module)
    return names


def defined_names(source: str) -> set[str]:
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def compiled_reads(source: str) -> list[int]:
    """The line of each ``compiled`` or ``_compiled`` attribute that
    ``source`` loads or deletes, or names as a string; a store such as
    ``self._compiled = None`` reads nothing."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Attribute) and node.attr in COMPILED
                and not isinstance(node.ctx, ast.Store))
            or (isinstance(node, ast.Constant) and node.value in COMPILED)]


def test_certify_imports_only_numpy_and_the_model():
    assert imported_modules(source_of(certify)) <= CERTIFY_IMPORTS


def test_simplex_binds_the_one_certificate_check():
    assert simplex.verify_certificate is certify.verify_certificate


def test_certificate_check_loads_only_its_allowed_names():
    assert (loaded_globals(_tree(certify.verify_certificate))
            <= CERTIFICATE_GLOBALS)


def test_certificate_check_reads_no_basis_and_calls_no_lapack():
    assert not read_attributes(certify.verify_certificate) & {
        "basis", "vstatus", "linalg"}


def test_model_imports_no_solver_code():
    assert imported_modules(source_of(model)) <= MODEL_IMPORTS


def test_the_compiled_form_lives_in_the_solver():
    names = {"CompiledModel", "_compile", "compiled"}
    assert not defined_names(source_of(model)) & names
    assert names <= defined_names(source_of(simplex))


@pytest.mark.parametrize("fn", [certify.verify_certificate,
                                model.row_violations, model.effective_bounds,
                                model.check_feasibility])
def test_checkers_never_read_the_compiled_model(fn):
    assert compiled_reads(textwrap.dedent(inspect.getsource(fn))) == []


def test_no_code_of_model_or_certify_reads_the_compiled_model():
    for module in (model, certify):
        assert compiled_reads(source_of(module)) == [], module.__name__


def test_the_compiled_fence_rejects_every_read():
    for line in ("cm = model.compiled()", "cm = model._compiled",
                 "cm = getattr(model, '_compiled')", "del model._compiled",
                 "ok = self._compiled is None"):
        assert compiled_reads(line), line
    assert not compiled_reads("self._compiled = None")


def test_oracle_imports_nothing_from_the_search():
    assert imported_modules(source_of(oracle)) <= ORACLE_IMPORTS


def search_names() -> set[str]:
    """``milp._search`` and every ``milp`` global it reaches, directly or
    through ``milp``'s own functions, that ``oracle`` does not hold:
    derived from the search's code, so a new B&B helper is in it."""
    names, todo = {"_search"}, [milp._search]
    while todo:
        for name in loaded_globals(_tree(todo.pop())) - set(vars(oracle)):
            value = getattr(milp, name, None)
            if name not in names and inspect.isfunction(value):
                todo.append(value)
            names.add(name)
    return names


@pytest.mark.parametrize("fn", [milp.solve_by_enumeration, oracle._enumerate,
                                oracle._replay, oracle._binary_screen])
def test_enumeration_oracle_shares_no_search_logic(fn):
    assert {"_gap", "_fractional_binaries", "INT_TOL"} <= search_names()
    assert not loaded_globals(_tree(fn)) & search_names()


def test_search_module_defines_none_of_the_oracle():
    """``milp`` takes the screen, walk, replay and gate from ``oracle``."""
    assert not defined_names(source_of(milp)) & set(vars(oracle))
    assert milp._enumerate is oracle._enumerate
    assert milp._certify is oracle._certify


def test_loaded_globals_sees_signature_body_and_nested_reads():
    tree = ast.parse(textwrap.dedent("""
        def probe(a: Kind = DEFAULT, *rest) -> Out:
            import os.path as osp
            b = a + OUTER + len(rest)
            try:
                pass
            except Missing as exc:
                raise exc

            def inner():
                return b + LATER + osp.sep
            return inner
        """))
    assert loaded_globals(tree) == {"Kind", "DEFAULT", "Out", "OUTER",
                                    "Missing", "LATER"}


def test_imported_modules_sees_every_import_form():
    source = textwrap.dedent("""
        from __future__ import annotations
        import numpy as np, os.path
        from . import simplex, model as m
        from ..pkg.mod import name
        from .. import up
        if TYPE_CHECKING:
            from .milp import Solution
        """)
    assert imported_modules(source) == {
        "__future__", "numpy", "os.path", ".simplex", ".model", "..pkg.mod",
        "..up", ".milp"}


def test_the_oracle_fence_rejects_every_import_of_the_search():
    for line in ("from . import milp", "from .milp import _search",
                 "from hubloc import milp", "import hubloc.milp",
                 "from . import simplex, milp"):
        assert not imported_modules(line) <= ORACLE_IMPORTS, line
