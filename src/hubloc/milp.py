"""Exact mixed-binary optimization by branch and bound.

* :func:`solve_milp` -- branch and bound on the binary variables with
  best-bound node selection and most-fractional branching, every incumbent
  re-checked through the LP certificate machinery.  The search is a
  generator (:func:`_search`) that asks for the LPs it needs as one job,
  the root or the two children of a branching, and processes their
  results in its own serial order.  :func:`solve_milps` runs the searches
  of several models side by side: where a second CPU is free, one forked
  helper process solves some of their LPs while this process solves the
  others, and each search still sees its results in order, so every tree,
  incumbent and reported value is that of the serial search.
  :func:`solve_milp` is the same scheduler over one search.
* :func:`solve_by_enumeration` -- the entry of the independent route, the
  walk of :mod:`hubloc.oracle`, which imports nothing from this module.

Both run on one scheduler, :func:`_run_searches`, whose unit of work is a
job ``(indices, rows)``: the LPs that fix the variables ``indices`` at the
values of each row of ``rows``.  The scheduler alone splits a job into
shares of consecutive rows, each solved by :func:`_solve_share` here or in
the helper, and answers it with ``(results, error)``: the LPResult of each
row in order, up to the error, if any, that stopped it.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import os
import pickle
import select
import signal
import struct
import sys
import threading
from dataclasses import replace

import numpy as np

from . import simplex
from .model import LinearModel
from .oracle import (ENUMERATION_CAP, EnumerationCapError, Solution, _certify,
                     _enumerate, _infeasible, _values)
from .simplex import LPResult, SimplexError, solve_lp

INT_TOL = 1e-6
# Shares a job splits into, at most.  Where the helper runs, both
# processes take them from one FIFO, so the one that is free first takes
# the next.  Over the 48 enumerations of 12 n=4 oracle items (one BLAS
# thread, 2-vCPU Xeon at 2.1 GHz) the parent waited 0.33-0.50 s for
# replies with 2 shares and 0.60-0.74 s with 4; 8, 16 and 32 read alike,
# 0.10-0.28 s, and 16 sits inside that band.
SHARES = 16


def _gap(objective: float) -> float:
    return 1e-9 * max(1.0, abs(objective))


def _fractional_binaries(x: np.ndarray, bins) -> list[tuple[float, int]]:
    out = []
    for j in bins:
        dist = abs(x[j] - round(x[j]))
        if dist > INT_TOL:
            out.append((dist, j))
    return out


def unwrap(outcome):
    """``outcome`` itself, or raised if it is the exception a solve kept."""
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


def attempt(fn, *args):
    """``fn(*args)``, or the exception it raised, kept to be raised by
    :func:`unwrap` when its result is read.  A :class:`HelperError` is
    raised at once: it ends every search, not just this one."""
    try:
        return fn(*args)
    except HelperError:
        raise
    except Exception as exc:
        return exc


# -- the helper process ------------------------------------------------

# The LP solver this module was loaded with, in a tuple so that a wrapper
# that rebinds every module attribute holding it leaves this one alone.
# A rebound ``solve_lp`` wants to see every LP, so the helper stays off.
_ORIGINAL_SOLVE_LP = (solve_lp,)

# Test seam: None decides from CPUs and the BLAS pin; True or False
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


def _in_worker_process() -> bool:
    """Is this a multiprocessing child (a pool worker, say)?  Its siblings
    already keep the other CPUs busy."""
    mp = sys.modules.get("multiprocessing")
    return mp is not None and mp.parent_process() is not None


def _helper_wanted() -> bool:
    """May this solve hand LPs to the helper?  The conditions are those
    that :func:`solve_milp` lists."""
    if (_IN_HELPER or not hasattr(os, "fork")
            or solve_lp is not _ORIGINAL_SOLVE_LP[0]
            or threading.current_thread() is not threading.main_thread()
            or _in_worker_process()):
        return False
    if _FORCE_HELPER is not None:
        return _FORCE_HELPER
    return _usable_cpus() > 1 and simplex.OPENBLAS is not None


def _current_helper():
    """This process's helper if :func:`_helper_wanted`, forked now if there
    is none and no other thread runs; None otherwise."""
    global _HELPER
    if not _helper_wanted():
        return None
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


def _frame(obj) -> bytes:
    payload = pickle.dumps(obj)
    return _FRAME.pack(len(payload)) + payload


def _send(fd: int, obj) -> None:
    data = memoryview(_frame(obj))
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

    Returns ``(results, error)``: the LPResult of each row solved, in
    order, and None or the exception raised by the next row, whose
    position is ``len(results)``.
    """
    results = []
    for row in rows:
        try:
            res = solve_lp(model, extra_bounds=_fixings(indices, row) or None)
        except Exception as exc:
            return results, exc
        results.append(res)
    return results, None


def _serve(requests: int, replies: int) -> None:
    """Helper main loop, until the pipe closes.  A request
    ``(token, model or None, indices, rows)`` is answered by ``(token,
    results, error)``, the :func:`_solve_share` of its rows on the model
    of that token, which comes with the token's first request; a request
    ``(token, None, None, None)`` drops that model and gets no reply."""
    global _IN_HELPER
    _IN_HELPER = True
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
    models = {}
    while True:
        try:
            token, model, indices, rows = _recv(requests)
        except Exception:  # the parent closed the pipe, died mid-frame, ...
            return
        if indices is None:
            models.pop(token, None)
            continue
        if model is not None:
            models[token] = model
        if token in models:
            results, error = _solve_share(models[token], indices, rows)
        else:
            results, error = [], HelperError(
                f"helper holds no model for token {token}")
        try:
            _send(replies, (token, results, error))
        except OSError:
            return


class _Helper:
    """One forked process, joined by two pipes, that solves shares while
    the parent solves others: the second child of a branching, or some of
    the shares of an enumeration chunk.  It keeps one model per live
    search, keyed by the search's token."""

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
        # Requests never block: while one waits for room in the pipe, the
        # helper may itself wait for room to write a reply.
        os.set_blocking(self.requests, False)
        self.owner = os.getpid()
        self.closed = False
        self.exitcode = None
        self.holding = set()   # tokens whose model the helper holds
        self.early = collections.deque()   # replies read while sending
        self.pending = 0   # replies owed, plus a request being written

    def _gone(self, exc: BaseException) -> HelperError:
        self.close()
        return HelperError(f"helper process (pid {self.pid}) is gone, "
                           f"exit code {self.exitcode}: {exc!r}")

    def _receive(self):
        try:
            reply = _recv(self.replies)
        except (EOFError, OSError) as exc:
            raise self._gone(exc) from exc
        self.pending -= 1
        return reply

    def _post(self, request) -> None:
        """Write one request.  One cut short leaves the pipe out of step,
        so it stops the helper."""
        data = memoryview(_frame(request))
        self.pending += 1   # before the first byte
        try:
            while data:
                try:
                    data = data[os.write(self.requests, data):]
                except BlockingIOError:
                    readable, _, _ = select.select([self.replies],
                                                   [self.requests], [])
                    if readable:
                        self.early.append(self._receive())
        except OSError as exc:
            raise self._gone(exc) from exc
        except BaseException:
            self.close()
            raise

    def request(self, token: int, model: LinearModel, indices, rows) -> None:
        """Ask for the LPs of ``rows``; the model goes with the token's
        first request, without its compiled arrays (half the bytes: the
        helper compiles them again, to the same values)."""
        sent = None if token in self.holding else replace(model)
        self._post((token, sent, indices, rows))
        self.holding.add(token)

    def reply_ready(self) -> bool:
        return bool(self.early) or bool(
            select.select([self.replies], [], [], 0)[0])

    def reply(self, token: int, indices, rows):
        """The ``(results, error)`` answer to the oldest request, which
        was for ``rows`` of ``token``; a reply that does not answer it
        stops the helper and raises :class:`HelperError`."""
        got, results, error = self.early.popleft() if self.early else self._receive()
        if got != token:
            problem = f"a reply for token {got}, not {token}"
        elif isinstance(error, HelperError):
            problem = str(error)
        elif not (len(results) == len(rows) if error is None
                  else len(results) < len(rows)):
            problem = f"{len(results)} results for {len(rows)} rows"
        elif any((res.extra_bounds or {}) != _fixings(indices, row)
                 for res, row in zip(results, rows)):
            problem = "a result for other fixings than sent"
        else:
            return results, error
        self.close()
        raise HelperError(f"helper process (pid {self.pid}) sent a bad "
                          f"reply: {problem}")

    def drop(self, token: int) -> None:
        """Tell the helper to forget the model of a search that ended."""
        if token in self.holding and not self.closed:
            self.holding.discard(token)
            self._post((token, None, None, None))
            self.pending -= 1

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


# -- branch and bound ----------------------------------------------------


def _search(model: LinearModel):
    """Branch and bound on ``model``, as a generator.

    It yields the LPs it needs next as one job: the root as one row, or
    the two children of a branching as two rows, child 0 first.  It is
    sent back one ``(results, error)`` answer, processes the results in
    order, then raises the error, if any.  It returns the Solution.

    Node selection is best-bound with depth-first tie breaking; branching
    picks the most fractional binary (ties to the lowest index), chosen
    once when the node is queued, so the search tree is a pure function
    of the model.
    """
    bins = model.binary_indices()
    nodes = 0
    incumbent: LPResult | None = None
    incumbents: list[tuple[float, dict[str, float]]] = []
    heap: list = []
    seq = 0

    def record(res: LPResult):
        nonlocal incumbent
        _certify(model, res, "incumbent failed certificate replay")
        if incumbent is None or res.objective < incumbent.objective:
            incumbent = res
            incumbents.append((float(res.objective), _values(model, res.x)))

    def process(res: LPResult, job, depth: int):
        nonlocal seq
        if res.status == "unbounded":
            raise SimplexError("relaxation is unbounded")
        if res.status != "optimal":
            return
        if incumbent is not None and res.objective >= incumbent.objective - _gap(
                incumbent.objective):
            return
        frac = _fractional_binaries(res.x, bins)
        if not frac:
            record(res)
            return
        _, j = max(frac, key=lambda t: (t[0], -t[1]))
        # -seq is unique, so the key never compares the branching variable
        heapq.heappush(heap, (res.objective, -depth, -seq, j, job))
        seq += 1

    indices, rows, depth = [], np.zeros((1, 0)), 0   # the root
    while True:
        results, error = yield indices, rows
        for res, row in zip(results, rows):   # each a one-row job on the heap
            nodes += 1
            process(res, (indices, row[None]), depth)
        if error is not None:
            raise error
        if not heap:
            break
        bound, negdepth, _, j, (indices, row) = heapq.heappop(heap)
        if incumbent is not None and bound >= incumbent.objective - _gap(
                incumbent.objective):
            break
        indices, depth = indices + [j], -negdepth + 1
        rows = np.array([np.append(row, val) for val in (0.0, 1.0)])

    if incumbent is None:
        return _infeasible(nodes)
    return Solution("optimal", _values(model, incumbent.x),
                    float(incumbent.objective), nodes, incumbents)


class _Run:
    """One search on :func:`_run_searches` and the shares it waits for."""

    __slots__ = ("model", "token", "search", "shares", "answers", "owed",
                 "outcome")

    def __init__(self, model: LinearModel, search):
        self.model = model
        self.token = next(_TOKENS)
        self.search = search


@simplex.one_blas_thread()
def _run_searches(runs, helper) -> list:
    """Run each search of ``runs`` (:class:`_Run`) to its end and return
    each one's result, or the exception it raised.

    A search is a generator that yields one job ``(indices, rows)`` at a
    time and is sent one answer ``(results, error)``.  The job is split
    into ``k = max(1, min(SHARES, len(rows)))`` shares of consecutive
    rows, and the shares of every live search wait in one FIFO.  While
    two or more wait, the newest goes to the helper, with at most two in
    flight, so the helper has its next share queued when it finishes one.
    This process solves the oldest itself, and between its shares it
    collects the replies that have come in.  When all of a job's shares
    are back, the search gets their results in share order, cut at the
    first share that stopped at an error, and that error; no search logic
    runs here or in the helper.  An exception other than one a search
    raised (an interrupt, a lost helper) ends every search and stops a
    helper that still owes replies.
    """
    ready = collections.deque()   # (run, position) of shares not started
    sent = collections.deque()    # (run, position) of shares sent, in order

    def resume(run, value):
        try:
            indices, rows = run.search.send(value)
        except StopIteration as stop:
            run.outcome = stop.value
        except Exception as exc:
            run.outcome = exc
        else:
            k = max(1, min(SHARES, len(rows)))
            run.shares = [(indices, part) for part in np.array_split(rows, k)]
            run.answers = [None] * k
            run.owed = k
            ready.extend((run, i) for i in range(k))
            return
        if helper is not None:
            helper.drop(run.token)

    def deliver(run, i, answer):
        run.answers[i] = answer
        run.owed -= 1
        if run.owed == 0:
            results = []
            for share, error in run.answers:
                results += share
                if error is not None:
                    break
            resume(run, (results, error))

    def collect():
        run, i = sent.popleft()
        deliver(run, i, helper.reply(run.token, *run.shares[i]))

    try:
        for run in runs:
            resume(run, None)
        while ready or sent:
            while helper is not None and len(ready) >= 2 and len(sent) < 2:
                run, i = ready.pop()
                helper.request(run.token, run.model, *run.shares[i])
                sent.append((run, i))
            if ready:
                run, i = ready.popleft()
                deliver(run, i, _solve_share(run.model, *run.shares[i]))
                while sent and helper.reply_ready():
                    collect()
            else:
                collect()
    except BaseException:
        if helper is not None and helper.pending:
            helper.close()
        raise
    return [run.outcome for run in runs]


def solve_milp(model: LinearModel) -> Solution:
    """Globally optimal solution via branch and bound (:func:`_search`).

    Both children of a branching are solved before either is processed.
    The root LP runs here; the second child's LP of each branching runs
    in a forked helper process when all of these hold: ``os.fork`` exists
    and more than one CPU is usable; ``simplex`` found the OpenBLAS it
    pins to one thread in each search; ``solve_lp`` of this module is not
    rebound by a wrapper; this process is not a ``multiprocessing`` child,
    such as a pool worker; and the caller is the main thread of a process
    that had no other thread when the helper was forked.  Otherwise both
    run here, one after the other.  Either way the same LPs are solved by
    the same code, so the result is the same bit for bit.  A helper that
    dies raises :class:`HelperError`; the next solve forks a fresh one.
    """
    # Forked before the root LP: a fork at the first branching raised the
    # parent's peak RSS on n=6 regret solves by up to 1.4 MB, this one by
    # about 0.2 MB.
    helper = _current_helper()
    (outcome,) = _run_searches([_Run(model, _search(model))], helper)
    return unwrap(outcome)


def solve_milps(models) -> list:
    """Solve several independent models, each to its end; returns, in
    order, each one's :class:`Solution` or the exception its search raised
    (read it with :func:`unwrap`).

    Under the conditions of :func:`solve_milp`, the searches run side by
    side over this process and the helper (:func:`_run_searches`).  Each
    search gets the same LPs, results and tree as alone, so each Solution
    is bit for bit the one :func:`solve_milp` gives.  Otherwise the
    module attribute ``solve_milp`` solves the models one after the
    other, so a tracer that rebinds it sees each search.
    """
    helper = _current_helper()
    if helper is None:
        return [attempt(solve_milp, model) for model in models]
    return _run_searches([_Run(m, _search(m)) for m in models], helper)


def solve_by_enumeration(model: LinearModel) -> Solution:
    """Exhaustive oracle: one residual LP per binary assignment.

    Assignments are visited in lexicographic order of the binary vector.
    Assignments that violate a row made up purely of binary variables are
    discarded without an LP, which cannot change the optimum.

    Each chunk of the walk (:func:`~hubloc.oracle._enumerate`) is one job
    for :func:`_run_searches`, which splits it into up to ``SHARES``
    shares of consecutive assignments; this process takes them from the
    front of its queue and, under the conditions of :func:`solve_milp`,
    the helper from its back.  The results are replayed in order, every
    running best is certified and the error of the lowest failing
    assignment is raised, so the result, the LP count and any error are
    those of the serial walk.
    """
    bins = model.binary_indices()
    if len(bins) > ENUMERATION_CAP:
        raise EnumerationCapError(f"{len(bins)} binary variables exceed "
                                  f"the enumeration cap {ENUMERATION_CAP}")
    (outcome,) = _run_searches([_Run(model, _enumerate(model, bins))],
                               _current_helper())
    return unwrap(outcome)
