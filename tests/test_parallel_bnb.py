"""Branch and bound and enumeration with the helper process forced on and off.

The helper may change only where an LP runs: an LP of one of the searches
solved side by side, the second child's LP of a branching, or some of the
interleaved shares of an enumeration chunk.  Every field of every
``Solution`` must equal the serial search's, its failures must reach the
caller as typed errors, in the serial order, and anything that wants to
see each LP (a rebound ``milp.solve_lp``, another thread) must keep the
in-process path and its order.
"""

import itertools
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_toy3
from hubloc import certify, claims, cli, milp, oracle, regret, simplex
from hubloc.claims import CLAIM_CHECKS, SolveMemo
from hubloc.formulations import (build_cc, build_ccu, build_nc, build_ocu,
                                 build_scenario_deterministic)
from hubloc.instance import GeneratorConfig, generate_instance, save_instance
from hubloc.model import BINARY, CONTINUOUS, EQ, GE, LE, LinearModel
from hubloc.regret import InfeasibleScenarioError, compute_baselines
from hubloc.simplex import SimplexError

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the helper process needs os.fork")

SRC = Path(__file__).resolve().parents[1] / "src"


REQUESTS = []   # the rows of each job sent to a helper in this test


@pytest.fixture(autouse=True)
def fresh_helper(monkeypatch):
    """Each test forks its own helper, after its own monkeypatches, and
    only where it forces the helper on, whatever the environment.  Every
    job sent to a helper is recorded in ``REQUESTS``."""
    monkeypatch.setattr(milp, "_FORCE_HELPER", False)
    real = milp._Helper.request

    def spy(self, token, model, indices, rows):
        REQUESTS.append(rows)
        return real(self, token, model, indices, rows)

    monkeypatch.setattr(milp._Helper, "request", spy)
    REQUESTS.clear()
    milp._stop_helper()
    yield
    milp._stop_helper()


def run_with(helper, fn, *args):
    """``fn(*args)`` with the helper forced on or off."""
    saved = milp._FORCE_HELPER
    milp._FORCE_HELPER = helper
    try:
        return fn(*args)
    finally:
        milp._FORCE_HELPER = saved


def solve(model, helper):
    return run_with(helper, milp.solve_milp, model)


def enumerate_(model, helper):
    return run_with(helper, milp.solve_by_enumeration, model)


def alive(helper):
    """Is the helper running?  Reaps it if not, so call it last."""
    return (not helper.closed
            and os.waitpid(helper.pid, os.WNOHANG) == (0, 0))


def wait_until_dead(pid):
    """Block until the child exits, leaving it for its owner to reap."""
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


def assert_same(a, b):
    assert a.status == b.status
    assert list(a.values) == list(b.values)
    assert a.values == b.values
    bits = [np.array(list(s.values.values())).tobytes() for s in (a, b)]
    assert bits[0] == bits[1]
    assert a.objective == b.objective
    assert a.nodes_explored == b.nodes_explored
    assert a.incumbents == b.incumbents
    assert regret.hub_sets(a.values) == regret.hub_sets(b.values)


def solve_both_ways(model):
    """Serial, then through the helper; checks that the helper solved one
    child of every branching."""
    serial = solve(model, False)
    assert milp._HELPER is None
    before = len(REQUESTS)
    forked = solve(model, True)
    assert len(REQUESTS) - before == (forked.nodes_explored - 1) // 2
    assert_same(serial, forked)
    return serial


def hub_model(name, inst):
    if name == "nc":
        return build_nc(inst)
    if name == "cc":
        return build_cc(inst)
    build = build_ccu if name == "ccu" else build_ocu
    return build(inst, compute_baselines(inst))


def n4(seed):
    return generate_instance(GeneratorConfig(seed=seed, n=4, chain_count=2))


def split_parity():
    """2x + 2y = 1 over binaries: the root LP is feasible, the MILP is not,
    and the search takes two branchings."""
    m = LinearModel()
    x = m.add_variable("H[0]", BINARY)
    y = m.add_variable("H[1]", BINARY)
    m.add_constraint("eq1[parity]", [(x, 2.0), (y, 2.0)], EQ, 1.0)
    m.set_objective([(x, 1.0), (y, 1.0)])
    return m


def descending(bits=3):
    """``bits`` binaries whose sum is at most ``bits - 1``, so enumeration
    keeps codes 0 to ``2**bits - 2``, and each beats the one before it: the
    objective is minus the assignment's code plus half its number of ones
    (``w``)."""
    m = LinearModel()
    h = [m.add_variable(f"H[{i}]", BINARY) for i in range(bits)]
    w = m.add_variable("w", CONTINUOUS, 0.0, 10.0)
    m.add_constraint("cap", [(j, 1.0) for j in h], LE, bits - 1.0)
    m.add_constraint("cover", [(w, 1.0)] + [(j, -1.0) for j in h], GE, 0.0)
    m.set_objective([(j, -2.0 ** (bits - 1 - i)) for i, j in enumerate(h)]
                    + [(w, 0.5)])
    return m


def fixings_at(model, position):
    """The enumeration fixings of the ``position``-th kept assignment of
    :func:`descending`, which is code ``position``."""
    bins = model.binary_indices()
    return {j: (float(b), float(b))
            for j, b in zip(bins, format(position, f"0{len(bins)}b"))}


def kept_codes(model):
    """The kept assignments of :func:`descending`, in order, as rows."""
    bits = len(model.binary_indices())
    return np.array([[float(b) for b in format(code, f"0{bits}b")]
                     for code in range(2 ** bits - 1)])


def enumerate_both_ways(model):
    """Serial, then through the helper; checks a helper was forked."""
    serial = enumerate_(model, False)
    assert milp._HELPER is None
    forked = enumerate_(model, True)
    assert milp._HELPER is not None
    assert_same(serial, forked)
    return serial


def record_shares(monkeypatch):
    """Record the rows of each enumeration job from now on: ``here``
    gets those this process solves, ``sent`` those it sends the helper."""
    here, sent = [], []
    real_share, real_request = milp._solve_share, milp._Helper.request

    def solve_here(model, indices, rows):
        here.append(rows)
        return real_share(model, indices, rows)

    def request(self, token, model, indices, rows):
        sent.append(rows)
        return real_request(self, token, model, indices, rows)

    monkeypatch.setattr(milp, "_solve_share", solve_here)
    monkeypatch.setattr(milp._Helper, "request", request)
    return here, sent


def assert_split(here, sent, kept):
    """The jobs solved here and sent are the ``k`` interleaved shares
    ``kept[i::k]`` of the kept rows, so they are disjoint and cover every
    row, and each process solved at least one.  Which process solved
    which share depends on timing."""
    k = min(oracle.SHARES, len(kept))
    shares = sorted(rows.tolist() for rows in here + sent)
    assert shares == sorted(kept[i::k].tolist() for i in range(k))
    assert here and sent


def dealt(jobs):
    """The rows of one chunk from its ``k`` interleaved jobs, job ``i``
    holding ``rows[i::k]``; checks that they follow the lexicographic
    walk."""
    k = len(jobs)
    rows = np.empty((sum(map(len, jobs)), jobs[0].shape[1]))
    for i, job in enumerate(jobs):
        rows[i::k] = job
    codes = rows @ 2.0 ** np.arange(rows.shape[1])[::-1]
    assert (np.diff(codes) > 0).all()
    return rows


def count_lps_here(monkeypatch):
    """Record the fixings of each LP this process solves from now on (the
    helper, forked before, keeps the real presolve)."""
    real, here = simplex._standardize, []

    def counted(model, extra_bounds=None):
        here.append(extra_bounds)
        return real(model, extra_bounds)

    monkeypatch.setattr(simplex, "_standardize", counted)
    return here


# -- parity ----------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("name", ["nc", "cc", "ccu", "ocu"])
def test_helper_matches_serial_at_n4(name, seed):
    solve_both_ways(hub_model(name, n4(seed)))


def test_helper_matches_serial_ocu_n6():
    inst = generate_instance(GeneratorConfig(seed=0, n=6, chain_count=2,
                                             scenario_count=2))
    sol = solve_both_ways(build_ocu(inst, compute_baselines(inst)))
    assert sol.nodes_explored > 1


def test_helper_matches_serial_on_infeasible_milp():
    sol = solve_both_ways(split_parity())
    assert sol.status == "infeasible"
    assert sol.nodes_explored == 5


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("name", ["nc", "cc", "ccu", "ocu"])
def test_split_enumeration_matches_serial_at_n4(name, seed):
    enumerate_both_ways(hub_model(name, n4(seed)))


def test_split_enumeration_without_binaries():
    m = LinearModel()
    x = m.add_variable("x", CONTINUOUS, 0.0, 5.0)
    m.add_constraint("floor", [(x, 1.0)], GE, 1.5)
    m.set_objective([(x, 2.0)])
    sol = enumerate_both_ways(m)
    assert (sol.objective, sol.nodes_explored) == (3.0, 1)


def test_split_enumeration_with_odd_count(monkeypatch):
    """Seven kept assignments, fewer than SHARES: one share each."""
    model = descending()
    enumerate_(split_parity(), True)   # fork before counting
    lps = count_lps_here(monkeypatch)
    here, sent = record_shares(monkeypatch)
    sol = enumerate_(model, True)
    assert sol.nodes_explored == 7   # every code but 111
    assert_split(here, sent, kept_codes(model))
    assert lps == [{j: (v, v) for j, v in zip(model.binary_indices(), row)}
                   for rows in here for row in rows.tolist()]
    assert_same(sol, enumerate_(model, False))
    assert sol.objective == -5.0   # code 110


def test_split_enumeration_with_no_lp_left():
    """The screen rejects every assignment, so both shares are empty."""
    sol = enumerate_both_ways(split_parity())
    assert sol.status == "infeasible"
    assert sol.nodes_explored == 0


# -- failure modes ---------------------------------------------------


def test_simplex_error_in_helper_reaches_caller(monkeypatch):
    real = simplex._standardize

    def fails_on_one_branch(model, extra_bounds=None):
        if extra_bounds and (1.0, 1.0) in extra_bounds.values():
            raise SimplexError(f"numerical breakdown in pid {os.getpid()}")
        return real(model, extra_bounds)

    monkeypatch.setattr(simplex, "_standardize", fails_on_one_branch)
    model = split_parity()
    with pytest.raises(SimplexError, match=f"in pid {os.getpid()}$"):
        solve(model, False)
    with pytest.raises(SimplexError) as info:
        solve(model, True)
    helper = milp._HELPER
    assert type(info.value) is SimplexError
    assert str(info.value) == f"numerical breakdown in pid {helper.pid}"
    assert milp._HELPER is helper and alive(helper)


@pytest.mark.parametrize("helper", [False, True])
def test_incumbent_failing_its_certificate_raises(monkeypatch, helper):
    # the root LP is fractional, so the first incumbent comes after a
    # branching whose second child the helper, when on, has solved
    model = build_nc(generate_instance(GeneratorConfig(seed=0, n=4,
                                                       chain_count=2,
                                                       scenario_count=2)))
    failures = ["row eq2[i=0]: violated by 1.000e-03", "objective mismatch"]
    monkeypatch.setattr(simplex, "verify_certificate",
                        lambda m, res: certify.CertificateReport(False, failures))
    with pytest.raises(SimplexError) as info:
        solve(model, helper)
    assert str(info.value) == ("incumbent failed certificate replay: "
                               "row eq2[i=0]: violated by 1.000e-03; "
                               "objective mismatch")
    assert bool(REQUESTS) == helper


def test_error_in_first_child_keeps_the_pipe_in_step(monkeypatch):
    real = simplex._standardize
    parent, raised = os.getpid(), []

    def fails_once_here(model, extra_bounds=None):
        if extra_bounds and os.getpid() == parent and not raised:
            raised.append(extra_bounds)
            raise SimplexError("first child failed")
        return real(model, extra_bounds)

    monkeypatch.setattr(simplex, "_standardize", fails_once_here)
    with pytest.raises(SimplexError, match="first child failed"):
        solve(split_parity(), True)
    assert raised == [{0: (0.0, 0.0)}]
    helper = milp._HELPER
    model = hub_model("ocu", n4(0))
    before = len(REQUESTS)
    assert_same(solve(model, True), solve(model, False))
    assert milp._HELPER is helper and len(REQUESTS) - before > 1


def test_interrupt_while_waiting_stops_the_helper(monkeypatch):
    solve(split_parity(), True)
    helper = milp._HELPER
    real, calls = milp._recv, []

    def interrupted_once(fd):
        if not calls:
            calls.append(fd)
            raise KeyboardInterrupt
        return real(fd)

    monkeypatch.setattr(milp, "_recv", interrupted_once)
    with pytest.raises(KeyboardInterrupt):
        solve(split_parity(), True)
    # a reply was in flight, so the helper is stopped, not reused
    assert calls == [helper.replies]
    assert milp._HELPER is None
    assert helper.exitcode == -signal.SIGKILL
    model = hub_model("ocu", n4(0))
    assert_same(solve(model, True), solve(model, False))
    assert milp._HELPER is not helper


@pytest.mark.parametrize("share", [0.0, 0.5])
def test_interrupt_while_sending_stops_the_helper(monkeypatch, share):
    """Ctrl-C after one byte, or half, of a request carrying the model."""
    model = hub_model("ocu", n4(0))
    expected = solve(model, False)
    solve(split_parity(), True)
    helper = milp._HELPER
    real_write, calls = os.write, []

    def write_then_interrupt(fd, data):
        if fd != helper.requests:
            return real_write(fd, data)
        calls.append(len(data))
        real_write(fd, bytes(data[:max(1, int(share * len(data)))]))
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "write", write_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        solve(model, True)
    monkeypatch.setattr(os, "write", real_write)
    assert len(calls) == 1 and calls[0] > 20_000   # the frame with the model
    assert milp._HELPER is None
    assert helper.exitcode == -signal.SIGKILL
    before = len(REQUESTS)
    assert_same(solve(model, True), expected)
    assert milp._HELPER is not helper and len(REQUESTS) - before > 1


@pytest.mark.parametrize("frame", [milp._FRAME.pack(1000) + b"cut short",
                                   milp._FRAME.pack(4) + b"junk"])
def test_broken_request_ends_the_helper_quietly(capfd, frame):
    helper = milp._Helper()
    os.write(helper.requests, frame)
    helper.close()
    assert helper.exitcode == 0
    assert capfd.readouterr() == ("", "")


def test_killed_helper_raises_then_next_solve_forks_anew(monkeypatch):
    model = split_parity()
    expected = solve(model, False)
    real = milp._fractional_binaries
    killed = []

    def kill_after_first_pair(x, bins):
        helper = milp._HELPER
        if helper is not None and len(REQUESTS) == 1 and not killed:
            os.kill(helper.pid, signal.SIGKILL)
            wait_until_dead(helper.pid)
            killed.append(helper.pid)
        return real(x, bins)

    monkeypatch.setattr(milp, "_fractional_binaries", kill_after_first_pair)
    with pytest.raises(milp.HelperError) as info:
        solve(model, True)
    assert f"helper process (pid {killed[0]}) is gone, exit code " \
        f"{-signal.SIGKILL}" in str(info.value)
    assert milp._HELPER is None

    assert_same(solve(model, True), expected)
    assert milp._HELPER.pid != killed[0]
    assert alive(milp._HELPER)


def test_threads_get_serial_results(monkeypatch):
    models = [hub_model(name, n4(seed))
              for name, seed in (("ocu", 0), ("ccu", 2), ("nc", 2))]
    expected = [solve(m, False) for m in models]
    monkeypatch.setattr(milp, "_FORCE_HELPER", True)
    milp.solve_milp(split_parity())   # fork while single-threaded
    results = {}

    def work(k):
        results[k] = milp.solve_milp(models[k])

    threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    before = len(REQUESTS)
    results[2] = milp.solve_milp(models[2])
    served = len(REQUESTS) - before
    for t in threads:
        t.join(120)
        assert not t.is_alive()
    for k, want in enumerate(expected):
        assert_same(results[k], want)
    # only the main thread's search went through the helper
    assert served == (results[2].nodes_explored - 1) // 2
    assert len(REQUESTS) - before == served


def test_no_helper_forked_with_other_threads_running():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        sol = solve(split_parity(), True)
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    assert milp._HELPER is None
    assert_same(sol, solve(split_parity(), False))


def test_rebound_solve_lp_sees_every_lp(monkeypatch):
    """Rebinds every attribute holding the solver, as a tracer does."""
    seen = []
    original = simplex.solve_lp

    def traced(model, extra_bounds=None):
        seen.append(extra_bounds)
        return original(model, extra_bounds)

    model = hub_model("ocu", n4(0))
    for attr, value in list(vars(milp).items()):
        if value is original:
            monkeypatch.setattr(milp, attr, traced)
    sol = solve(model, True)
    assert sol.nodes_explored > 1
    assert len(seen) == sol.nodes_explored
    assert milp._HELPER is None


def fail_at(monkeypatch, model, *positions):
    """Make the LPs of these kept assignments raise, in either process."""
    real = simplex._standardize
    bad = [fixings_at(model, p) for p in positions]

    def fails_there(m, extra_bounds=None):
        if extra_bounds in bad:
            raise SimplexError(f"breakdown at {sorted(extra_bounds.items())}")
        return real(m, extra_bounds)

    monkeypatch.setattr(simplex, "_standardize", fails_there)


@pytest.mark.parametrize("position", [3, 4, 6])
def test_enumeration_error_matches_serial(monkeypatch, position):
    """Each position is a share of its own; 6 is the helper's first."""
    model = descending()
    fail_at(monkeypatch, model, position)
    with pytest.raises(SimplexError) as serial:
        enumerate_(model, False)
    with pytest.raises(SimplexError) as forked:
        enumerate_(model, True)
    assert type(forked.value) is SimplexError
    assert str(forked.value) == str(serial.value)
    assert str(forked.value).startswith("breakdown at ")
    helper = milp._HELPER
    other = hub_model("nc", n4(0))   # four binaries: no LP of it fails
    assert_same(enumerate_(other, True), enumerate_(other, False))
    assert milp._HELPER is helper and alive(helper)


@pytest.mark.parametrize("positions", [(3, 4), (2, 5), (4, 6)])
def test_two_failures_raise_the_lowest_one(monkeypatch, positions):
    """Two failing assignments, each in a share of its own: the serial
    walk raises the lower one's error, so both paths must."""
    model = descending()
    fail_at(monkeypatch, model, *positions)
    lowest = fixings_at(model, positions[0])
    expected = f"breakdown at {sorted(lowest.items())}"
    for helper in (False, True):
        with pytest.raises(SimplexError) as info:
            enumerate_(model, helper)
        assert str(info.value) == expected


@pytest.mark.parametrize("positions", [(0, 14), (13, 14)])
def test_fewer_assignments_than_shares(monkeypatch, positions):
    """15 kept assignments, fewer than SHARES, make 15 one-row shares.
    This process takes share 0 first and the helper share 14, so (0, 14)
    fails once in each process, and (13, 14) twice in the helper, the
    higher position first: either way the lowest position is raised."""
    model = descending(4)
    assert 15 < oracle.SHARES
    serial = enumerate_(model, False)
    here, sent = record_shares(monkeypatch)
    assert_same(enumerate_(model, True), serial)
    assert_split(here, sent, kept_codes(model))
    milp._stop_helper()   # the next helper forks with the failures below
    fail_at(monkeypatch, model, *positions)
    lowest = fixings_at(model, positions[0])
    for helper in (False, True):
        with pytest.raises(SimplexError) as info:
            enumerate_(model, helper)
        assert str(info.value) == f"breakdown at {sorted(lowest.items())}"
    assert milp._HELPER is not None


def record_stops(monkeypatch):
    """Record each enumeration job that stops at a failure as ``(share,
    entry)``, the share being the code of its first row (its index in a
    chunk of :func:`descending`): ``here`` gets those this process solves,
    ``there`` the helper's replies."""
    here, there = [], []
    real_share, real_reply = milp._solve_share, milp._Helper.reply

    def code(rows):
        return int("".join(str(int(b)) for b in rows[0]), 2)

    def solve_here(model, indices, rows):
        kept, failure = real_share(model, indices, rows)
        if failure is not None:
            here.append((code(rows), failure[0]))
        return kept, failure

    def reply(self, token, indices, rows):
        kept, failure = real_reply(self, token, indices, rows)
        if failure is not None:
            there.append((code(rows), failure[0]))
        return kept, failure

    monkeypatch.setattr(milp, "_solve_share", solve_here)
    monkeypatch.setattr(milp._Helper, "reply", reply)
    return here, there


@pytest.mark.parametrize("positions, here, there", [
    ((0, 16), [(0, 0)], []),
    ((30,), [], [(14, 1)]),
    ((15, 30), [], [(14, 1), (15, 0)]),
], ids=["one-share-here", "helper-second-row", "both-helper-shares"])
def test_failures_in_two_row_shares(monkeypatch, positions, here, there):
    """31 kept assignments make 15 shares of two rows and one of one:
    share i holds positions i and i + 16.  The scheduler sends the helper
    shares 15 and 14 before this process takes share 0, so (0, 16) fails
    twice in one share here, which stops at its first row; (30,) stops
    the helper's share 14 at its second row, a reply whose failure is
    not at entry 0; and (15, 30) fails in both of the helper's first
    shares.  Either way the lowest position is raised."""
    model = descending(5)
    assert oracle.SHARES < 31 < 2 * oracle.SHARES
    fail_at(monkeypatch, model, *positions)
    lowest = fixings_at(model, positions[0])
    expected = f"breakdown at {sorted(lowest.items())}"
    with pytest.raises(SimplexError) as info:
        enumerate_(model, False)
    assert str(info.value) == expected
    stops_here, stops_there = record_stops(monkeypatch)
    with pytest.raises(SimplexError) as info:
        enumerate_(model, True)
    assert type(info.value) is SimplexError
    assert str(info.value) == expected
    assert stops_here == here
    assert sorted(stops_there) == there
    assert alive(milp._HELPER)


def test_certificate_failure_before_an_error_wins(monkeypatch):
    """A running best at position 1 fails its certificate; the LP at
    position 4 raises.  The serial walk raises the first."""
    model = descending()
    fail_at(monkeypatch, model, 4)
    real, bad = simplex.verify_certificate, fixings_at(model, 1)

    def rejects_one(m, res):
        report = real(m, res)
        if res.extra_bounds == bad:
            report.passed, report.failures = False, ["rejected here"]
        return report

    monkeypatch.setattr(simplex, "verify_certificate", rejects_one)
    for helper in (False, True):
        with pytest.raises(SimplexError, match="certificate: rejected here$"):
            enumerate_(model, helper)


def test_interrupt_during_enumeration_stops_the_helper(monkeypatch):
    model = hub_model("ocu", n4(0))
    expected = enumerate_(model, False)
    enumerate_(split_parity(), True)
    helper = milp._HELPER
    real, calls = simplex._standardize, []

    def interrupted_here(m, extra_bounds=None):
        calls.append(extra_bounds)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(m, extra_bounds)

    monkeypatch.setattr(simplex, "_standardize", interrupted_here)
    with pytest.raises(KeyboardInterrupt):
        enumerate_(model, True)
    assert milp._HELPER is None
    assert helper.exitcode == -signal.SIGKILL
    monkeypatch.setattr(simplex, "_standardize", real)
    assert_same(enumerate_(model, True), expected)
    assert milp._HELPER is not helper and alive(milp._HELPER)


def _other_fixings(kept, failure):
    res = kept[0]
    flipped = {j: (1.0 - lo, 1.0 - hi) for j, (lo, hi) in res.extra_bounds.items()}
    return [replace(res, extra_bounds=flipped)] + kept[1:], failure


def _one_short(kept, failure):
    return kept[:-1], failure


@pytest.mark.parametrize("tamper, problem", [
    (_other_fixings, "a result for other fixings than sent"),
    (_one_short, "2 results for 3 rows")])
def test_tampered_reply_raises(monkeypatch, tamper, problem):
    """63 kept assignments: the first share sent, the newest of the 16,
    holds positions 15, 31 and 47."""
    model = descending(6)
    expected = enumerate_(model, False)
    enumerate_(split_parity(), True)
    helper = milp._HELPER
    real = milp._recv

    def tampered(fd):
        token, kept, failure = real(fd)
        return (token, *tamper(kept, failure))

    monkeypatch.setattr(milp, "_recv", tampered)
    with pytest.raises(milp.HelperError, match=f"sent a bad reply: {problem}$"):
        enumerate_(model, True)
    assert milp._HELPER is None and helper.closed
    monkeypatch.setattr(milp, "_recv", real)
    assert_same(enumerate_(model, True), expected)


def test_enumeration_in_a_thread_stays_in_process(monkeypatch):
    model = hub_model("ocu", n4(0))
    expected = enumerate_(model, False)
    monkeypatch.setattr(milp, "_FORCE_HELPER", True)
    milp.solve_milp(split_parity())   # fork while single-threaded
    lps = count_lps_here(monkeypatch)
    here, sent = record_shares(monkeypatch)
    results = {}
    worker = threading.Thread(
        target=lambda: results.update(sol=milp.solve_by_enumeration(model)))
    worker.start()
    worker.join(120)
    assert not worker.is_alive()
    assert_same(results["sol"], expected)
    assert len(lps) == expected.nodes_explored
    # one chunk, dealt into as many jobs as with the helper, all solved here
    assert not sent and len(here) == min(oracle.SHARES, len(lps))
    kept = dealt(here)
    del here[:], lps[:]
    assert_same(milp.solve_by_enumeration(model), expected)
    assert_split(here, sent, kept)
    assert len(lps) == sum(map(len, here))


def test_rebound_solve_lp_sees_every_enumeration_lp(monkeypatch):
    seen = []
    original = simplex.solve_lp

    def traced(model, extra_bounds=None):
        seen.append(extra_bounds)
        return original(model, extra_bounds)

    model = hub_model("ocu", n4(0))
    for attr, value in list(vars(milp).items()):
        if value is original:
            monkeypatch.setattr(milp, attr, traced)
    sol = enumerate_(model, True)
    assert len(seen) == sol.nodes_explored > 1
    assert milp._HELPER is None


# -- searches side by side ---------------------------------------------


def joint(models, helper):
    """The Solutions of ``solve_milps``, raising the first error kept."""
    return [milp.unwrap(outcome) for outcome in
            run_with(helper, lambda: list(milp.solve_milps(models)))]


def three_searches():
    return [hub_model(name, n4(seed))
            for name, seed in (("ocu", 0), ("ccu", 2), ("nc", 2))]


def sweep_args(nodes, seed):
    args = cli.build_parser().parse_args(
        ["sweep", "--nodes", str(nodes), "--seed", str(seed)])
    return args, cli._options_from(args)


@pytest.mark.parametrize("scenarios", [2, 3])
def test_joint_baselines_match_serial(scenarios):
    inst = generate_instance(GeneratorConfig(seed=1, n=4, chain_count=2,
                                             scenario_count=scenarios))
    serial = run_with(False, compute_baselines, inst)
    assert milp._HELPER is None
    forked = run_with(True, compute_baselines, inst)
    assert milp._HELPER is not None
    assert forked == serial
    models = [build_scenario_deterministic(inst, s) for s in range(scenarios)]
    for a, b in zip(joint(models, False), joint(models, True), strict=True):
        assert_same(a, b)


def test_joint_memo_matches_serial():
    inst = generate_instance(GeneratorConfig(seed=0, n=4, chain_count=2,
                                             scenario_count=2))
    serial, forked = SolveMemo(inst), SolveMemo(inst)
    run_with(False, serial.prepare, sorted(CLAIM_CHECKS))
    assert milp._HELPER is None
    run_with(True, forked.prepare, sorted(CLAIM_CHECKS))
    assert REQUESTS
    keys = ["cc-zero", "ccu", "ivar-slim", "nc", "ocu-linearized", "ocu-omit",
            "tk-forced"]
    assert sorted(serial._outcomes) == sorted(forked._outcomes) == keys
    assert serial.baselines() == forked.baselines()
    for key in keys:
        assert_same(serial.solved(key)[1], forked.solved(key)[1])


def test_joint_sweep_csv_matches_serial():
    args, opts = sweep_args(4, 3)
    serial = run_with(False, cli._sweep_rows, sorted(CLAIM_CHECKS), 2, args,
                      opts)
    assert milp._HELPER is None
    forked = run_with(True, cli._sweep_rows, sorted(CLAIM_CHECKS), 2, args,
                      opts)
    assert REQUESTS
    assert forked == serial


def test_rebound_solve_lp_keeps_the_serial_lp_order(monkeypatch):
    """As the LP digest of scripts/identity.py rebinds it: every LP then
    runs in this process, in the serial order of the sweep.  The memo
    solves the scenario baselines while it builds the models, then each
    model of the checks in CSV order, once; the checks then solve the
    eq20 probes and the two ivar swaps."""
    original = simplex.solve_lp
    lps, searched, memos = [], [], []

    def traced(model, extra_bounds=None):
        lps.append(model)
        return original(model, extra_bounds)

    def search(model, real=milp._search):
        searched.append(model)
        return real(model)

    class KeptMemo(SolveMemo):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            memos.append(self)

    for mod in (milp, claims):
        monkeypatch.setattr(mod, "solve_lp", traced)
    monkeypatch.setattr(milp, "_search", search)
    monkeypatch.setattr(cli, "SolveMemo", KeptMemo)
    monkeypatch.setattr(milp, "_FORCE_HELPER", True)   # the rebinding wins
    args, opts = sweep_args(4, 0)
    cli._sweep_rows(sorted(CLAIM_CHECKS), 1, args, opts)
    assert milp._HELPER is None
    (memo,) = memos
    scenarios = [m for m in searched if m not in memo._models.values()]
    labels = {id(m): key for key, m in memo._models.items()}
    labels.update({id(m): f"s{s}" for s, m in enumerate(scenarios)})
    seen = [labels.get(id(m), "probe") for m in lps]

    nodes = {key: memo.solved(key)[1].nodes_explored for key in memo._models}
    for s, model in enumerate(scenarios):
        nodes[f"s{s}"] = milp.solve_milp(model).nodes_explored
    del lps[:]
    probes = claims.check_eq20_redundancy(
        memo.inst, opts, memo=memo).evidence["lps_solved"]
    assert len(lps) == probes > 0   # the memo solved nothing again
    expected = []
    for key in ("s0", "s1", "nc", "cc-zero", "ocu-omit", "ocu-linearized",
                "ivar-slim", "ccu", "tk-forced"):
        expected += [key] * nodes[key]
    expected += ["probe"] * probes
    expected += ["ivar-slim", "ocu-linearized"]   # the swapped patterns
    assert len(scenarios) == 2
    assert seen == expected


BOOM = "boom"


def boom_model():
    """:func:`split_parity` plus a variable that makes each LP raise
    under :func:`explode_on_boom`, in either process."""
    m = split_parity()
    m.add_variable(BOOM, CONTINUOUS, 0.0, 1.0)
    return m


def explode_on_boom(monkeypatch):
    real = simplex._standardize

    def standardize(model, extra_bounds=None):
        if model.variables[-1].name == BOOM:
            raise SimplexError(f"breakdown in pid {os.getpid()}")
        return real(model, extra_bounds)

    monkeypatch.setattr(simplex, "_standardize", standardize)


@pytest.mark.parametrize("helper", [False, True])
def test_first_failing_scenario_decides(monkeypatch, helper):
    """Scenario 0 infeasible, scenario 1 raising: the serial loop stops
    at scenario 0, so the joint solve must report scenario 0 too."""
    explode_on_boom(monkeypatch)
    inst = generate_instance(GeneratorConfig(seed=0, n=4, chain_count=2,
                                             scenario_count=2))
    models = [split_parity(), boom_model()]
    monkeypatch.setattr(regret, "build_scenario_deterministic",
                        lambda inst, s, opts: models[s])
    with pytest.raises(InfeasibleScenarioError,
                       match="^scenario 0 admits no feasible design$"):
        run_with(helper, compute_baselines, inst)
    models.reverse()
    with pytest.raises(SimplexError, match="^breakdown in pid"):
        run_with(helper, compute_baselines, inst)
    assert (milp._HELPER is not None) == helper
    if helper:
        assert alive(milp._HELPER)


@pytest.mark.parametrize("helper", [False, True])
def test_verify_ccnc_infeasible_base_wins_over_a_failing_cc_zero(
        monkeypatch, tmp_path, capsys, helper):
    explode_on_boom(monkeypatch)
    monkeypatch.setattr(claims, "build_cc", lambda inst, opts: boom_model())
    monkeypatch.setattr(milp, "_FORCE_HELPER", helper)
    inst = make_toy3(capacity=(3.0, 3.0, 3.0))
    path = tmp_path / "tight.json"
    path.write_text(save_instance(inst))
    assert cli.run(["verify", "--claim", "ccnc", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "status": "infeasible", "detail": "base model admits no feasible design"}
    memo = SolveMemo(inst)
    with pytest.raises(InfeasibleScenarioError):
        claims.check_cc_nc_consistency(inst, memo=memo)
    # solved with nc, though the check stops at nc, and its error kept
    assert isinstance(memo._outcomes["cc-zero"], SimplexError)


def act_with_two_replies_owed(monkeypatch, action):
    """Call ``action(helper)`` in this process's first presolve that runs
    while the helper owes two replies; returns the helpers acted on."""
    real, parent, acted = simplex._standardize, os.getpid(), []

    def standardize(model, extra_bounds=None):
        helper = milp._HELPER
        if (os.getpid() == parent and not acted and helper is not None
                and helper.pending == 2):
            acted.append(helper)
            action(helper)
        return real(model, extra_bounds)

    monkeypatch.setattr(simplex, "_standardize", standardize)
    return acted


def test_interrupt_with_two_replies_owed_stops_the_helper(monkeypatch):
    models = three_searches()
    expected = joint(models, False)

    def interrupt(helper):
        raise KeyboardInterrupt

    acted = act_with_two_replies_owed(monkeypatch, interrupt)
    with pytest.raises(KeyboardInterrupt):
        joint(models, True)
    (helper,) = acted
    assert milp._HELPER is None
    assert helper.exitcode == -signal.SIGKILL
    for a, b in zip(expected, joint(models, True), strict=True):
        assert_same(a, b)
    assert milp._HELPER is not helper and alive(milp._HELPER)


def test_killed_helper_with_two_replies_owed_raises(monkeypatch):
    models = three_searches()
    expected = joint(models, False)

    def kill(helper):
        os.kill(helper.pid, signal.SIGKILL)
        wait_until_dead(helper.pid)

    acted = act_with_two_replies_owed(monkeypatch, kill)
    with pytest.raises(milp.HelperError) as info:
        joint(models, True)
    (helper,) = acted
    assert f"helper process (pid {helper.pid}) is gone, exit code " \
        f"{-signal.SIGKILL}" in str(info.value)
    assert milp._HELPER is None
    for a, b in zip(expected, joint(models, True), strict=True):
        assert_same(a, b)
    assert milp._HELPER.pid != helper.pid and alive(milp._HELPER)


def _other_token(token, kept, failure):
    return token + 1, kept, failure


def _child_with_other_fixings(token, kept, failure):
    res = kept[0] if kept else None
    if isinstance(res, simplex.LPResult) and res.extra_bounds:
        flipped = {j: (1.0 - lo, 1.0 - hi)
                   for j, (lo, hi) in res.extra_bounds.items()}
        kept = [replace(res, extra_bounds=flipped)]
    return token, kept, failure


@pytest.mark.parametrize("tamper, problem", [
    (_other_token, r"a reply for token \d+, not \d+"),
    (_child_with_other_fixings, "a result for other fixings than sent")])
def test_tampered_joint_reply_raises(monkeypatch, tamper, problem):
    models = three_searches()
    expected = joint(models, False)
    solve(split_parity(), True)   # fork before _recv is patched
    helper = milp._HELPER
    real = milp._recv
    monkeypatch.setattr(milp, "_recv", lambda fd: tamper(*real(fd)))
    with pytest.raises(milp.HelperError, match=f"sent a bad reply: {problem}$"):
        joint(models, True)
    assert milp._HELPER is None and helper.closed
    monkeypatch.setattr(milp, "_recv", real)
    for a, b in zip(expected, joint(models, True), strict=True):
        assert_same(a, b)


@pytest.mark.skipif(not hasattr(__import__("fcntl"), "F_SETPIPE_SZ"),
                    reason="needs pipes whose size can be set")
def test_small_pipes_do_not_deadlock(monkeypatch):
    """With one-page pipes, a model sent while two replies are owed
    waits for room while the helper waits to write a reply; the parent
    must read that reply meanwhile.  The helper gets the newest root
    first: the ``ocu`` one, whose reply is larger than a page."""
    import fcntl

    models = three_searches()[::-1]
    expected = joint(models, False)
    solve(split_parity(), True)
    helper = milp._HELPER
    for fd in (helper.requests, helper.replies):
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, 4096)
    early = []
    real = milp._Helper._receive

    def receive(self):
        reply = real(self)
        if sys._getframe(1).f_code.co_name == "_post":
            early.append(reply[0])
        return reply

    monkeypatch.setattr(milp._Helper, "_receive", receive)

    def stuck(signum, frame):
        raise TimeoutError("joint solve deadlocked")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(60)
    try:
        got = joint(models, True)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert milp._HELPER is helper and early
    for a, b in zip(expected, got, strict=True):
        assert_same(a, b)


def test_finished_searches_leave_no_model_in_the_helper(monkeypatch):
    models = three_searches()
    monkeypatch.setattr(milp, "_TOKENS", itertools.count(1000))
    joint(models, True)                 # tokens 1000 to 1002
    solve(split_parity(), True)         # 1003
    enumerate_(descending(), True)      # 1004
    helper = milp._HELPER
    assert REQUESTS and helper.holding == set()
    rows = np.zeros((1, 0))
    for token in range(1000, 1005):
        helper._post((token, None, [], rows))
        got, kept, failure = helper._receive()
        assert (got, kept, failure[0]) == (token, [], 0)
        assert str(failure[1]) == f"helper holds no model for token {token}"
    assert alive(helper)


# -- hygiene ---------------------------------------------------------


def test_helper_conditions(monkeypatch):
    monkeypatch.setattr(milp, "_FORCE_HELPER", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(simplex, "OPENBLAS", None)   # no pin: no helper
    assert not milp._helper_wanted()
    monkeypatch.setattr(simplex, "OPENBLAS", (lambda: 1, lambda count: None))
    assert milp._helper_wanted()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert not milp._helper_wanted()
    monkeypatch.setattr(milp, "_FORCE_HELPER", True)
    assert milp._helper_wanted()
    monkeypatch.setattr(milp, "_IN_HELPER", True)   # never fork from it
    assert not milp._helper_wanted()


def test_helper_ignores_sigint():
    model = hub_model("ocu", n4(0))
    expected = solve(model, True)
    helper = milp._HELPER
    os.kill(helper.pid, signal.SIGINT)
    assert_same(solve(model, True), expected)
    assert milp._HELPER is helper and alive(helper)


def test_idle_helper_exits_when_its_pipe_closes():
    solve(split_parity(), True)
    helper = milp._HELPER
    milp._stop_helper()
    assert helper.exitcode == 0


def _run_python(code, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, "-c", textwrap.dedent(code)],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, **kwargs)


def test_hubloc_does_not_load_multiprocessing():
    proc = _run_python("""
        import sys
        import hubloc.cli
        from hubloc import milp
        from hubloc.formulations import build_ocu
        from hubloc.instance import GeneratorConfig, generate_instance
        from hubloc.regret import compute_baselines
        inst = generate_instance(GeneratorConfig(seed=0, n=4, chain_count=2))
        model = build_ocu(inst, compute_baselines(inst))
        sent, real = [], milp._Helper.request
        milp._Helper.request = lambda *job: sent.append(job) or real(*job)
        milp._FORCE_HELPER = True
        milp.solve_milp(model)
        print(len(sent) > 0, "multiprocessing" in sys.modules)
    """)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.split() == ["True", "False"]


@pytest.mark.skipif(milp._usable_cpus() < 2, reason="needs two usable CPUs")
@pytest.mark.skipif(simplex.OPENBLAS is None,
                    reason="the helper runs only where simplex pins OpenBLAS")
def test_enumeration_uses_the_helper_unforced_with_two_blas_threads(
        monkeypatch):
    """OPENBLAS_NUM_THREADS=2 before numpy loads: the pin, not the
    environment, lets the helper run."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    proc = _run_python("""
        import json
        from hubloc import milp
        from hubloc.formulations import build_ocu
        from hubloc.instance import GeneratorConfig, generate_instance
        from hubloc.regret import compute_baselines
        inst = generate_instance(GeneratorConfig(seed=0, n=4, chain_count=2))
        model = build_ocu(inst, compute_baselines(inst))
        here, sent = [], []
        real_share, real_request = milp._solve_share, milp._Helper.request

        def solve_here(model, indices, rows):
            here.append(rows.tolist())
            return real_share(model, indices, rows)

        def request(self, token, model, indices, rows):
            sent.append(rows.tolist())
            return real_request(self, token, model, indices, rows)

        milp._solve_share = solve_here
        milp._Helper.request = request
        auto = milp.solve_by_enumeration(model)
        split = [here[:], sent[:]]
        del here[:], sent[:]
        milp._FORCE_HELPER = False
        serial = milp.solve_by_enumeration(model)
        print(json.dumps([split, here, sent, auto.nodes_explored,
                          serial.nodes_explored,
                          auto.objective == serial.objective,
                          auto.values == serial.values]))
    """)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    (split, serial_here, serial_sent, nodes, serial_nodes, same_obj,
     same_values) = json.loads(out)
    assert same_obj and same_values
    assert nodes == serial_nodes > 1
    # the one chunk, dealt alike, with every job solved here
    assert not serial_sent and len(serial_here) == min(oracle.SHARES, nodes)
    here, sent = ([np.array(rows) for rows in jobs] for jobs in split)
    assert_split(here, sent, dealt([np.array(rows) for rows in serial_here]))


def _solve_in_worker(name, seed):
    milp._FORCE_HELPER = True
    sol = milp.solve_milp(hub_model(name, n4(seed)))
    return sol, milp._HELPER is None


def test_pool_workers_start_no_helper():
    """Each worker of a pool already has a CPU of its own."""
    import multiprocessing

    jobs = [("ocu", 0), ("ccu", 2)]
    with multiprocessing.get_context("fork").Pool(2) as pool:
        results = pool.starmap(_solve_in_worker, jobs)
    for (name, seed), (sol, no_helper) in zip(jobs, results):
        assert no_helper
        assert_same(sol, solve(hub_model(name, n4(seed)), False))


def _pid_alive(pid) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_ctrl_c_prints_no_helper_traceback():
    # The child takes SIGINT as an interactive Python does, even where this
    # suite runs with SIGINT ignored (as a non-interactive shell starts a
    # background job), a disposition that exec would pass on to it.
    proc = _run_python("""
        import signal
        signal.signal(signal.SIGINT, signal.default_int_handler)
        from hubloc import milp
        from hubloc.formulations import build_ocu
        from hubloc.instance import GeneratorConfig, generate_instance
        from hubloc.regret import compute_baselines
        inst = generate_instance(GeneratorConfig(seed=0, n=4, chain_count=2))
        model = build_ocu(inst, compute_baselines(inst))
        milp._FORCE_HELPER = True
        milp.solve_milp(model)
        print(milp._HELPER.pid, flush=True)
        while True:
            milp.solve_milp(model)
    """, start_new_session=True)
    try:
        helper_pid = int(proc.stdout.readline())
        time.sleep(0.3)
        os.killpg(proc.pid, signal.SIGINT)   # what a terminal's Ctrl-C does
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            child = "alive" if proc.poll() is None else "gone"
            helper = "alive" if _pid_alive(helper_pid) else "gone"
            pytest.fail(f"60 s after SIGINT the child is {child} and its "
                        f"helper is {helper}")
    finally:
        if proc.poll() is None:
            proc.kill()   # its helper then exits on end of file
            proc.wait()
    assert "KeyboardInterrupt" in err
    assert err.count("Traceback") == 1
    deadline = time.monotonic() + 10
    while _pid_alive(helper_pid):
        if time.monotonic() > deadline:
            pytest.fail("helper outlived its parent")
        time.sleep(0.05)


@pytest.mark.parametrize("helper", [False, True])
def test_unbounded_relaxation_raises(helper):
    m = LinearModel()
    b = m.add_variable("b", BINARY)
    x = m.add_variable("x", CONTINUOUS, lb=-np.inf)
    m.add_constraint("cap", [(b, 1.0), (x, 1.0)], LE, 5.0)
    m.set_objective([(b, 1.0), (x, 1.0)])
    with pytest.raises(SimplexError, match="relaxation is unbounded"):
        solve(m, helper)
