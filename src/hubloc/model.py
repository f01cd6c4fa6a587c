"""Solver-neutral standard-form linear models.

A :class:`LinearModel` is a plain container: named variables with kinds
and bounds, a minimization objective, and labeled linear constraints.
Constraint labels carry the model-family tag of the row they transcribe
(``eq2[i=0]``, ``eq16[i=1,k=2]``, ...), which keeps every row traceable
back to the formulation it came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"

LE = "<="
EQ = "="
GE = ">="


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    lb: float
    ub: float


@dataclass(frozen=True)
class Constraint:
    label: str
    terms: tuple[tuple[int, float], ...]
    relation: str
    rhs: float


@dataclass(frozen=True)
class CompiledModel:
    """Read-only arrays of a model, shared by every LP solved on it.

    Nonzeros go row by row, each row's in the order its columns first appear
    in the terms; duplicates are summed and exact zeros dropped.  ``sense``
    is the sign of the row's slack: +1 for ``<=``, 0 for ``=``, -1 for ``>=``.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    rhs: np.ndarray
    sense: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for arr in vars(self).values():
            arr.flags.writeable = False


@dataclass
class LinearModel:
    """Minimization model; change it only through ``add_*`` and ``set_objective``."""

    variables: list[Variable] = field(default_factory=list)
    objective: list[tuple[int, float]] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    name_index: dict[str, int] = field(default_factory=dict)
    _compiled: CompiledModel | None = field(default=None, init=False,
                                            repr=False, compare=False)

    # -- construction -------------------------------------------------

    def add_variable(self, name: str, kind: str = CONTINUOUS,
                     lb: float = 0.0, ub: float = math.inf) -> int:
        if name in self.name_index:
            raise ValueError(f"duplicate variable name {name!r}")
        if kind == BINARY:
            lb, ub = 0.0, 1.0
        elif not (lb < math.inf and ub > -math.inf):   # also rejects NaN
            raise ValueError(f"bad bounds for {name!r}")
        idx = len(self.variables)
        self._compiled = None
        self.variables.append(Variable(name, kind, lb, ub))
        self.name_index[name] = idx
        return idx

    def add_constraint(self, label: str, terms, relation: str, rhs: float) -> None:
        if relation not in (LE, EQ, GE):
            raise ValueError(f"bad relation {relation!r}")
        clean = self._terms(terms, label)
        if not math.isfinite(rhs):
            raise ValueError(f"non-finite rhs in {label}")
        self._compiled = None
        self.constraints.append(Constraint(label, clean, relation, float(rhs)))

    def set_objective(self, terms) -> None:
        self.objective = list(self._terms(terms, "objective"))
        self._compiled = None

    def _terms(self, terms, where: str) -> tuple[tuple[int, float], ...]:
        """``terms`` as (int, float) pairs without zeros; an index that is
        not an integral number naming a variable, or a coefficient that is
        not a finite number, raises ValueError."""
        given = [(j, c) for j, c in terms if c != 0.0]
        try:
            clean = [(int(j), float(c)) for j, c in given]
        except (TypeError, ValueError):
            clean = None
        if clean != given:   # a cast failed or changed a value: 1.9, "0"
            for j, c in given:
                try:
                    exact = (int(j), float(c)) == (j, c)
                except (TypeError, ValueError):
                    exact = False
                if not exact:
                    raise ValueError(f"bad term ({j!r}, {c!r}) in {where}")
        for j, c in clean:
            if not (0 <= j < len(self.variables)) or not math.isfinite(c):
                raise ValueError(f"bad term ({j}, {c}) in {where}")
        return tuple(clean)

    # -- queries ------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def binary_indices(self) -> list[int]:
        return [j for j, v in enumerate(self.variables) if v.kind == BINARY]

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(len(self.variables))
        for j, coeff in self.objective:
            c[j] += coeff
        return c

    def compiled(self) -> CompiledModel:
        """The compiled form, built on first use and dropped by every change."""
        if self._compiled is None:
            self._compiled = _compile(self)
        return self._compiled


def _compile(model: LinearModel) -> CompiledModel:
    cons, n = model.constraints, max(model.num_variables, 1)
    rows = np.array([i for i, con in enumerate(cons) for _ in con.terms], dtype=int)
    terms = [t for con in cons for t in con.terms]
    cols = np.array([j for j, _ in terms], dtype=int)
    keys, first, inv = np.unique(rows * n + cols, return_index=True,
                                 return_inverse=True)
    merged = np.zeros(len(keys))
    np.add.at(merged, inv, [a for _, a in terms])
    keep = np.argsort(first)
    keep = keep[merged[keep] != 0.0]
    return CompiledModel(
        rows=keys[keep] // n, cols=keys[keep] % n, vals=merged[keep],
        rhs=np.array([con.rhs for con in cons], dtype=float),
        sense=np.array([{LE: 1, EQ: 0, GE: -1}[con.relation] for con in cons],
                       dtype=int),
        lo=np.array([v.lb for v in model.variables], dtype=float),
        hi=np.array([v.ub for v in model.variables], dtype=float),
        c=model.objective_vector())


def as_value_array(model: LinearModel, values) -> np.ndarray:
    """Normalize a by-name mapping or a sequence into a full value vector."""
    n = model.num_variables
    if isinstance(values, dict):
        unknown = set(values) - set(model.name_index)
        if unknown:
            raise ValueError(f"unknown variable {sorted(unknown)[0]!r} in assignment")
        x = np.zeros(n)
        for name, v in values.items():
            x[model.name_index[name]] = v
        return x
    x = np.asarray(values, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"assignment has {x.shape} values, model has {n} variables")
    return x


@dataclass(frozen=True)
class Violation:
    label: str
    amount: float


def effective_bounds(model: LinearModel,
                     extra_bounds: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Variable bounds after per-variable overrides."""
    lo = np.array([v.lb for v in model.variables], dtype=float)
    hi = np.array([v.ub for v in model.variables], dtype=float)
    for j, (l, u) in (extra_bounds or {}).items():
        lo[j], hi[j] = max(lo[j], l), min(hi[j], u)
    return lo, hi


def row_violations(model: LinearModel, x: np.ndarray) -> list[Violation]:
    """Every row that the value vector ``x`` violates beyond 1e-7, in row
    order, each activity summed term by term from ``model.constraints``."""
    out = []
    for con in model.constraints:
        act = sum(c * x[j] for j, c in con.terms)
        err = (abs(act - con.rhs) if con.relation == EQ
               else act - con.rhs if con.relation == LE else con.rhs - act)
        if err > 1e-7:
            out.append(Violation(con.label, err))
    return out


def check_feasibility(model: LinearModel, values) -> list[Violation]:
    """List every constraint, then every variable bound, violated beyond 1e-7.

    ``values`` may be a name->value mapping, where missing names count as 0
    and a name the model does not have raises ``ValueError``, or a vector
    with one value per variable.  An empty return value means the point is
    feasible.  A NaN or infinite value is reported alone, as a violation
    of its bound by inf, since no row or bound can be checked at it.
    """
    x = as_value_array(model, values)
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        return [Violation(f"bound[{model.variables[j].name}]", math.inf)
                for j in bad]
    out = row_violations(model, x)
    lo, hi = effective_bounds(model)
    err = np.maximum(lo - x, x - hi)
    for j in np.flatnonzero(err > 1e-7):
        out.append(Violation(f"bound[{model.variables[j].name}]", err[j]))
    return out


def with_extra_constraint(model: LinearModel, label: str, terms, relation: str,
                          rhs: float) -> LinearModel:
    """Copy of ``model`` with one appended row (source model untouched)."""
    clone = LinearModel(
        variables=list(model.variables),
        objective=list(model.objective),
        constraints=list(model.constraints),
        name_index=dict(model.name_index),
    )
    clone.add_constraint(label, terms, relation, rhs)
    return clone


def dump_model(model: LinearModel) -> str:
    """Deterministic LP-style text listing, for diffing and debugging."""
    lines = []
    obj = " + ".join(f"{c:g} {model.variables[j].name}"
                     for j, c in sorted(model.objective)) or "0"
    lines.append(f"minimize: {obj}")
    lines.append("subject to:")
    for con in model.constraints:
        body = " + ".join(f"{c:g} {model.variables[j].name}" for j, c in con.terms) or "0"
        lines.append(f"  {con.label}: {body} {con.relation} {con.rhs:g}")
    lines.append("bounds:")
    for var in model.variables:
        lo = "-inf" if var.lb == -math.inf else f"{var.lb:g}"
        hi = "+inf" if var.ub == math.inf else f"{var.ub:g}"
        lines.append(f"  {lo} <= {var.name} <= {hi}")
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if binaries:
        lines.append("binary: " + " ".join(binaries))
    return "\n".join(lines) + "\n"
