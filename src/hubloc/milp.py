"""Exact mixed-binary optimization.

Two independent routes to the optimum:

* :func:`solve_milp` -- branch and bound on the binary variables with
  best-bound node selection and most-fractional branching, every incumbent
  re-checked through the LP certificate machinery.  Each branching solves
  both children.  Where a second CPU is free, the second child's LP runs
  in one forked helper process while this process solves the first; the
  two results are then processed in order, so the tree, the incumbents
  and every reported value are those of the serial search.
* :func:`solve_by_enumeration` -- walks all binary assignments and solves
  the residual LP for each; assignments that already violate a pure-binary
  row are rejected without an LP.  This is the oracle the test suite uses
  to certify the branch-and-bound search.  It shares no search logic with
  it (no bounds, no pruning, no incumbent), only the cold ``solve_lp``.
  Where the helper may run, it solves the odd-numbered assignments of each
  chunk while this process solves the even ones; the results are then
  replayed in lexicographic order, and every running best is certified
  here, so the result is that of the serial walk.
"""

from __future__ import annotations

import heapq
import itertools
import os
import pickle
import signal
import struct
import sys
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .model import BINARY, EQ, LE, LinearModel
from .simplex import LPResult, SimplexError, solve_lp, verify_certificate

INT_TOL = 1e-6


class EnumerationCapError(ValueError):
    """Raised when a model has more binaries than the enumeration cap."""


@dataclass
class Solution:
    """Optimal (or infeasible) outcome of an exact solve.

    ``values`` keeps the raw pre-rounding variable values; the hub sets
    are derived by rounding H/I/T at 0.5.  ``incumbents`` records every
    accepted incumbent as (objective, values) pairs, in discovery order.
    """

    status: str
    values: dict[str, float]
    objective: float | None
    open_hubs: tuple[int, ...]
    collaborative_hubs: tuple[int, ...]
    noncollaborative_hubs: tuple[int, ...]
    nodes_explored: int
    wall_time: float
    incumbents: list[tuple[float, dict[str, float]]] = field(default_factory=list)
    scenario_costs: list[float] | None = None
    regrets: list[float] | None = None
    baselines: list[float] | None = None


def _solution_from_values(model: LinearModel, x: np.ndarray, objective: float,
                          nodes: int, wall: float, incumbents) -> Solution:
    values = {var.name: float(x[j]) for j, var in enumerate(model.variables)}
    sets = {"H": [], "I": [], "T": []}
    for j, var in enumerate(model.variables):
        hub = var.kind == BINARY and var.name[:2] in ("H[", "I[", "T[")
        if hub and x[j] >= 0.5:
            sets[var.name[0]].append(int(var.name[2:-1]))
    hubs, collab, noncollab = (tuple(sorted(sets[h])) for h in "HIT")
    return Solution("optimal", values, float(objective), hubs, collab,
                    noncollab, nodes, wall, incumbents)


def _infeasible(nodes: int, wall: float) -> Solution:
    return Solution("infeasible", {}, None, (), (), (), nodes, wall, [])


def _gap(objective: float) -> float:
    return 1e-9 * max(1.0, abs(objective))


def _fractional_binaries(x: np.ndarray, bins) -> list[tuple[float, int]]:
    out = []
    for j in bins:
        dist = abs(x[j] - round(x[j]))
        if dist > INT_TOL:
            out.append((dist, j))
    return out


# -- the helper process ------------------------------------------------

# The LP solver this module was loaded with, in a tuple so that a wrapper
# that rebinds every module attribute holding it leaves this one alone.
# A rebound ``solve_lp`` wants to see every LP, so the helper stays off.
_ORIGINAL_SOLVE_LP = (solve_lp,)

# Test seam: None decides from CPUs and BLAS threads; True or False
# overrides those two conditions (the others always hold).
_FORCE_HELPER: bool | None = None

_HELPER = None          # this process's _Helper, started by the first search
_IN_HELPER = False      # set inside the helper, which must never fork
_TOKENS = itertools.count(1)
_FRAME = struct.Struct("!Q")   # length prefix of one pickled message


class HelperError(RuntimeError):
    """The helper process died, could not answer, or sent a reply that
    does not answer its request."""


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_single_threaded(environ) -> bool:
    threads = environ.get("OPENBLAS_NUM_THREADS", environ.get("OMP_NUM_THREADS"))
    return threads == "1"


# BLAS reads its thread count once, when numpy loads, so a later change to
# the environment does not count: read it when this module is imported.
# A value set after numpy loaded is trusted wrongly, so the README says
# to set the variable before numpy is first imported.
_BLAS_ONE_THREAD = _blas_single_threaded(os.environ)


def _in_worker_process() -> bool:
    """Is this a multiprocessing child (a pool worker, say)?  Its siblings
    already keep the other CPUs busy."""
    mp = sys.modules.get("multiprocessing")
    return mp is not None and mp.parent_process() is not None


def _helper_wanted() -> bool:
    """May this solve hand LPs to the helper?"""
    if (_IN_HELPER or not hasattr(os, "fork")
            or solve_lp is not _ORIGINAL_SOLVE_LP[0]
            or threading.current_thread() is not threading.main_thread()
            or _in_worker_process()):
        return False
    if _FORCE_HELPER is not None:
        return _FORCE_HELPER
    return _usable_cpus() > 1 and _BLAS_ONE_THREAD


def _current_helper():
    """This process's helper, forked now if there is none and no other
    thread runs; None if it cannot be started."""
    global _HELPER
    if _HELPER is not None and _HELPER.owner == os.getpid():
        return _HELPER
    if threading.active_count() != 1:
        return None
    _HELPER = _Helper()
    return _HELPER


def _stop_helper() -> None:
    """Stop this process's helper, if any; the next search forks anew."""
    if _HELPER is not None and _HELPER.owner == os.getpid():
        _HELPER.close()


def _send(fd: int, obj) -> None:
    payload = pickle.dumps(obj)
    data = memoryview(_FRAME.pack(len(payload)) + payload)
    while data:
        data = data[os.write(fd, data):]


def _read_exactly(fd: int, size: int) -> bytes:
    buf = bytearray()
    while len(buf) < size:
        chunk = os.read(fd, size - len(buf))
        if not chunk:
            raise EOFError("pipe closed")
        buf += chunk
    return bytes(buf)


def _recv(fd: int):
    (size,) = _FRAME.unpack(_read_exactly(fd, _FRAME.size))
    return pickle.loads(_read_exactly(fd, size))


def _fixings(indices, row) -> dict:
    """Extra bounds that fix variable ``indices[t]`` at ``row[t]``."""
    return {j: (v, v) for j, v in zip(indices, row.tolist())}


def _solve_share(model: LinearModel, indices, rows):
    """Solve the LP of each row of ``rows`` (values of the variables
    ``indices``) in order, up to the first that raises.

    Returns ``(kept, failure)``.  ``kept`` has one entry per row solved:
    the LPResult of an optimum strictly better than every earlier optimum
    of this share, None for any other optimum (it can never be a running
    best), or the status of a result that is not optimal.  ``failure`` is
    None or ``(position, exception)``.  A share of a chunk of 2^16 rows
    thus stays small, in memory and in a reply.
    """
    kept, best = [], None
    for pos, row in enumerate(rows):
        try:
            res = solve_lp(model, extra_bounds=_fixings(indices, row))
        except Exception as exc:
            return kept, (pos, exc)
        if res.status != "optimal":
            kept.append(res.status)
        elif best is None or res.objective < best:
            best = res.objective
            kept.append(res)
        else:
            kept.append(None)
    return kept, None


def _serve(requests: int, replies: int) -> None:
    """Helper main loop: answer each (token, model or None, indices, rows)
    request with the :func:`_solve_share` of its rows until the pipe
    closes.  The model comes with the first request of each token."""
    global _IN_HELPER
    _IN_HELPER = True
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
    token = model = None
    while True:
        try:
            req_token, req_model, indices, rows = _recv(requests)
        except Exception:  # the parent closed the pipe, died mid-frame, ...
            return
        if req_model is not None:
            token, model = req_token, req_model
        if req_token == token:
            reply = _solve_share(model, indices, rows)
        else:
            reply = [], (0, HelperError(f"helper holds no model for token {req_token}"))
        try:
            _send(replies, reply)
        except OSError:
            return


_NO_BASIS = np.zeros(0, int)


class _Helper:
    """One forked process, joined by two pipes, that solves one share of
    a batch of LPs while the parent solves the other: the second child of
    a branching, or the odd rows of an enumeration chunk."""

    def __init__(self):
        req_read, self.requests = os.pipe()
        self.replies, reply_write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (req_read, self.requests, self.replies, reply_write):
                os.close(fd)
            raise
        if self.pid == 0:   # the helper: never returns
            status = 1
            try:
                os.close(self.requests)
                os.close(self.replies)
                _serve(req_read, reply_write)
                status = 0
            finally:
                os._exit(status)
        os.close(req_read)
        os.close(reply_write)
        self.owner = os.getpid()
        self.closed = False
        self.exitcode = None
        self.token = None     # the solve whose model the helper holds
        self.pending = False  # a request was (maybe partly) sent, no reply read
        self.pairs = 0        # branchings served

    def _gone(self, exc: BaseException) -> HelperError:
        self.close()
        return HelperError(f"branch-and-bound helper process (pid {self.pid}) "
                           f"is gone, exit code {self.exitcode}: {exc!r}")

    def _receive(self):
        try:
            reply = _recv(self.replies)
        except (EOFError, OSError) as exc:
            raise self._gone(exc) from exc
        self.pending = False
        return reply

    def _check(self, reply, indices, rows) -> None:
        """Stop the helper and raise unless ``reply`` answers ``rows``: one
        entry per row up to its failure, and each kept result solved for
        the fixings sent."""
        kept, failure = reply
        if failure is None:
            answered = len(kept) == len(rows)
        else:
            answered = len(kept) == failure[0] < len(rows)
        if not answered:
            problem = f"{len(kept)} results for {len(rows)} rows"
        elif any(isinstance(res, LPResult)
                 and res.extra_bounds != _fixings(indices, row)
                 for res, row in zip(kept, rows)):
            problem = "a result for other fixings than sent"
        else:
            return
        self.close()
        raise HelperError(f"branch-and-bound helper process (pid {self.pid}) "
                          f"sent a bad reply: {problem}")

    def close(self) -> None:
        global _HELPER
        if _HELPER is self:
            _HELPER = None
        if self.closed:
            return
        self.closed = True   # first, so an interrupt here cannot close twice
        if self.pending:   # busy, or waiting for the rest of a request
            os.kill(self.pid, signal.SIGKILL)   # no-op if it exited already
        os.close(self.requests)   # an idle helper exits on end of file
        os.close(self.replies)
        self.exitcode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])

    def solve_split(self, model: LinearModel, token: int, indices, here, there):
        """Solve the LPs of rows ``here`` in this process while the helper
        solves those of rows ``there``; returns both :func:`_solve_share`
        results, this process's first."""
        # The model goes without its compiled arrays, half the bytes: the
        # helper compiles them again, to the same values.
        sent = replace(model) if token != self.token else None
        self.pending = True
        try:
            try:
                _send(self.requests, (token, sent, indices, there))
            except OSError as exc:
                raise self._gone(exc) from exc
            self.token = token
            local = _solve_share(model, indices, here)
            remote = self._receive()
        finally:
            # A reply is still owed, or part of a request is in the pipe
            # (an interrupt, or a lost helper): never reuse this helper.
            if self.pending:
                self.close()
        self._check(remote, indices, there)
        return local, remote

    def solve_pair(self, model: LinearModel, token: int, children):
        """Yield the LP results of ``children`` (two fixings dicts over the
        same variables) in order; the helper solves the second while this
        process solves the first.  An exception raised for the first child
        is raised before anything is yielded, one for the second on the
        second result."""
        indices = list(children[1])
        rows = [np.array([[lo for lo, _ in child.values()]]) for child in children]
        self.pairs += 1
        for kept, failure in self.solve_split(model, token, indices, *rows):
            if failure is not None:
                raise failure[1]
            res = kept[0]
            if isinstance(res, str):   # a status is all that came back
                res = LPResult(res, None, None, _NO_BASIS, _NO_BASIS, 0)
            yield res


def solve_milp(model: LinearModel) -> Solution:
    """Globally optimal solution via branch and bound.

    Node selection is best-bound with depth-first tie breaking; branching
    picks the most fractional binary (ties to the lowest index), so the
    search tree is a pure function of the model.

    Both children of a branching are solved before either is processed.
    The second child's LP runs in a forked helper process when all of
    these hold: ``os.fork`` exists and more than one CPU is usable;
    ``OPENBLAS_NUM_THREADS`` (or, if unset, ``OMP_NUM_THREADS``) was
    ``"1"`` when this module was imported; ``solve_lp`` of this module is
    not rebound by a wrapper; this process is not a ``multiprocessing``
    child, such as a pool worker; and the caller is the main thread of a
    process that had no other thread when the helper was forked.
    Otherwise both run here, one after the other.  Either way the same
    LPs are solved by the same code, so the result is the same bit for
    bit.  A helper that dies raises :class:`HelperError`; the next solve
    forks a fresh one.
    """
    t0 = time.perf_counter()
    bins = model.binary_indices()
    # Forked before the root LP: a fork at the first branching raised the
    # parent's peak RSS on n=6 regret solves by up to 1.4 MB, this one by
    # about 0.2 MB.
    helper = _current_helper() if _helper_wanted() else None
    token = next(_TOKENS)
    nodes = 0
    incumbent: LPResult | None = None
    incumbents: list[tuple[float, dict[str, float]]] = []
    heap: list = []
    seq = 0

    def record(res: LPResult):
        nonlocal incumbent
        cert = verify_certificate(model, res)
        if not cert.passed:
            raise SimplexError("incumbent failed certificate replay: "
                               + "; ".join(cert.failures[:3]))
        if incumbent is None or res.objective < incumbent.objective:
            incumbent = res
            values = {var.name: float(res.x[j])
                      for j, var in enumerate(model.variables)}
            incumbents.append((float(res.objective), values))

    def process(res: LPResult, fixings: dict, depth: int):
        nonlocal seq
        if res.status == "unbounded":
            raise SimplexError("relaxation is unbounded")
        if res.status != "optimal":
            return
        if incumbent is not None and res.objective >= incumbent.objective - _gap(
                incumbent.objective):
            return
        if not _fractional_binaries(res.x, bins):
            record(res)
            return
        heapq.heappush(heap, (res.objective, -depth, -seq, fixings, res))
        seq += 1

    root = solve_lp(model)
    nodes += 1
    process(root, {}, 0)

    while heap:
        bound, negdepth, _, fixings, res = heapq.heappop(heap)
        if incumbent is not None and bound >= incumbent.objective - _gap(
                incumbent.objective):
            break
        frac = _fractional_binaries(res.x, bins)
        _, j = max(frac, key=lambda t: (t[0], -t[1]))
        children = [{**fixings, j: (val, val)} for val in (0.0, 1.0)]
        if helper is not None:
            solved = helper.solve_pair(model, token, children)
        else:
            solved = (solve_lp(model, extra_bounds=c) for c in children)
        for child, child_res in zip(children, solved):
            nodes += 1
            process(child_res, child, -negdepth + 1)

    wall = time.perf_counter() - t0
    if incumbent is None:
        return _infeasible(nodes, wall)
    sol = _solution_from_values(model, incumbent.x, incumbent.objective,
                                nodes, wall, incumbents)
    return sol


def _binary_screen(model: LinearModel, bins):
    """Rows whose variables are all binary, as dense arrays over ``bins``."""
    pos = {j: t for t, j in enumerate(bins)}
    rows, rels, rhs = [], [], []
    for con in model.constraints:
        if all(j in pos for j, _ in con.terms):
            row = np.zeros(len(bins))
            for j, c in con.terms:
                row[pos[j]] += c
            rows.append(row)
            rels.append(con.relation)
            rhs.append(con.rhs)
    if not rows:
        return None
    return np.array(rows), rels, np.array(rhs)


def _replay(model: LinearModel, shares, count: int, best: LPResult | None):
    """Visit positions ``0..count-1`` of a chunk as the serial walk does,
    position ``p`` being entry ``p // k`` of share ``p % k`` of the ``k``
    shares: certify each new running best, and raise a share's failure at
    its position.  Returns the running best."""
    k = len(shares)
    for pos in range(count):
        kept, failure = shares[pos % k]
        if pos // k == len(kept):   # the share stopped at its failure
            raise failure[1]
        res = kept[pos // k]
        if isinstance(res, LPResult) and (best is None
                                          or res.objective < best.objective):
            cert = verify_certificate(model, res)
            if not cert.passed:
                raise SimplexError("enumeration incumbent failed certificate: "
                                   + "; ".join(cert.failures[:3]))
            best = res
    return best


def solve_by_enumeration(model: LinearModel, binary_cap: int = 24) -> Solution:
    """Exhaustive oracle: one residual LP per binary assignment.

    Assignments are visited in lexicographic order of the binary vector.
    Assignments that violate a row made up purely of binary variables are
    discarded without an LP, which cannot change the optimum.

    Under the conditions of :func:`solve_milp`, the helper process solves
    the odd-numbered assignments of each chunk while this process solves
    the even ones, with the same cold ``solve_lp``.  The results are then
    replayed in order here, where every running best is certified and the
    error of the lowest failing assignment is raised, so the result, the
    LP count and any error are those of the serial walk.
    """
    t0 = time.perf_counter()
    bins = model.binary_indices()
    nb = len(bins)
    if nb > binary_cap:
        raise EnumerationCapError(
            f"{nb} binary variables exceed the enumeration cap {binary_cap}")
    helper = _current_helper() if _helper_wanted() else None
    token = next(_TOKENS)
    screen = _binary_screen(model, bins)
    shifts = np.array([nb - 1 - t for t in range(nb)], dtype=np.int64)

    best: LPResult | None = None
    lps = 0
    chunk = 1 << min(nb, 16)
    total = 1 << nb
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(float)
        keep = np.ones(len(codes), dtype=bool)
        if screen is not None:
            rows, rels, rhs = screen
            acts = bits @ rows.T
            for r, rel in enumerate(rels):
                if rel == EQ:
                    keep &= np.abs(acts[:, r] - rhs[r]) <= 1e-9
                elif rel == LE:
                    keep &= acts[:, r] <= rhs[r] + 1e-9
                else:
                    keep &= acts[:, r] >= rhs[r] - 1e-9
        assignments = bits[keep]
        if helper is None:
            shares = [_solve_share(model, bins, assignments)]
        else:
            shares = helper.solve_split(model, token, bins, assignments[0::2],
                                        assignments[1::2])
        best = _replay(model, shares, len(assignments), best)
        lps += len(assignments)

    wall = time.perf_counter() - t0
    if best is None:
        return _infeasible(lps, wall)
    return _solution_from_values(model, best.x, best.objective, lps, wall, [])


def solution_to_json(sol: Solution) -> dict:
    """Deterministic report body (wall time deliberately excluded)."""
    out = {
        "status": sol.status,
        "objective": sol.objective,
        "open_hubs": list(sol.open_hubs),
        "collaborative_hubs": list(sol.collaborative_hubs),
        "noncollaborative_hubs": list(sol.noncollaborative_hubs),
        "flows": {name: v for name, v in sorted(sol.values.items())
                  if name[0] in "ZYX" and v > 1e-9},
        "nodes_explored": sol.nodes_explored,
    }
    if sol.scenario_costs is not None:
        out["scenario_costs"] = sol.scenario_costs
    if sol.regrets is not None:
        out["regrets"] = sol.regrets
    if sol.baselines is not None:
        out["baselines"] = sol.baselines
    return out
