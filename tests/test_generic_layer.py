"""The generic layer holds no hub-model name.

``model``, ``simplex``, ``milp`` and ``oracle`` solve any mixed-binary
model; only ``formulations``, ``regret`` and ``claims`` know the
variable-name scheme of the hub models (``H[k]``, ``I[k]``, ``T[k]`` and
the ``Z``/``Y``/``X`` flows).  The guard reads each generic module with
``ast`` and lists every string constant, f-string parts included, that
names that scheme.
"""

import ast
from pathlib import Path

import pytest

from hubloc import milp, model, oracle, simplex

HUB_PREFIXES = ("H[", "I[", "T[", "Z[", "Y[", "X[")
HUB_STRINGS = {"HIT", "ZYX"}


def hub_names(source: str) -> list[tuple[int, str]]:
    """(line, value) of each string constant in ``source`` that starts
    with a hub-model variable prefix or spells a hub letter set."""
    return [(node.lineno, node.value) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (node.value.startswith(HUB_PREFIXES)
                 or node.value in HUB_STRINGS)]


@pytest.mark.parametrize("module", [model, simplex, milp, oracle],
                         ids=lambda m: m.__name__)
def test_generic_module_names_no_hub_variable(module):
    path = Path(module.__file__)
    assert hub_names(path.read_text(encoding="utf-8")) == []


def test_hub_names_sees_fstring_parts_and_letter_sets():
    source = ('a = f"H[{k}]"\n'
              'b = name[0] in "ZYX"\n'
              'c = "Rs[0]"\n'
              'd = {"T[": 1}\n')
    assert hub_names(source) == [(1, "H["), (2, "ZYX"), (4, "T[")]
