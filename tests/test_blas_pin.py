"""Reports do not depend on the BLAS thread count of the environment.

``simplex.one_blas_thread`` sets the OpenBLAS numpy loaded to one thread
for the whole of each ``solve_lp`` and each ``milp._run_searches``, and
restores the caller's count when the last pinned block leaves, whatever
its thread.
"""

import io
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from hubloc import milp, simplex
from hubloc.formulations import build_nc
from hubloc.instance import GeneratorConfig, generate_instance
from hubloc.simplex import SimplexError, solve_lp

SRC = Path(__file__).resolve().parents[1] / "src"

needs_openblas = pytest.mark.skipif(simplex.OPENBLAS is None,
                                    reason="no OpenBLAS found to pin")


def _hubloc(cwd, threads, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-m", "hubloc.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_solve_report_is_the_same_under_one_and_two_blas_threads(tmp_path):
    """With two threads, the parent printed another last digit of the
    ``ocu`` objective (12.86814414000006 for 12.868144140000023)."""
    reports = []
    for threads in ("1", "2"):
        run = tmp_path / threads
        run.mkdir()
        _hubloc(run, threads, "gen", "--seed", "7", "--chains", "2",
                "--scenarios", "2", "--nodes", "4", "-o", "inst.json")
        reports.append(_hubloc(run, threads, "solve", "--model", "ocu",
                               "inst.json"))
    assert reports[0] == reports[1]
    assert (tmp_path / "1" / "inst.json").read_bytes() == \
        (tmp_path / "2" / "inst.json").read_bytes()


@pytest.fixture
def blas_count():
    """The OpenBLAS thread-count getter, with the count set to 2 for the
    test and the caller's count restored after it."""
    get, put = simplex.OPENBLAS
    saved = get()
    put(2)
    yield get
    put(saved)


def _nc_model():
    return build_nc(generate_instance(GeneratorConfig(seed=0, n=4,
                                                      chain_count=2)))


@needs_openblas
def test_a_solve_runs_on_one_thread_and_restores_the_count(blas_count,
                                                          monkeypatch):
    seen = []
    refine = simplex._refine_basics

    def spy(*args):
        seen.append(blas_count())
        return refine(*args)

    monkeypatch.setattr(simplex, "_refine_basics", spy)
    assert solve_lp(_nc_model()).status == "optimal"
    assert seen and set(seen) == {1}
    assert blas_count() == 2


@needs_openblas
def test_a_solve_that_raises_restores_the_count(blas_count, monkeypatch):
    seen = []

    def broken(model, extra_bounds):
        seen.append(blas_count())
        raise SimplexError("numerical breakdown: raised by the test")

    monkeypatch.setattr(simplex, "_standardize", broken)
    with pytest.raises(SimplexError, match="raised by the test"):
        solve_lp(_nc_model())
    assert seen == [1]
    assert blas_count() == 2


@needs_openblas
def test_a_search_certifies_on_one_thread(blas_count, monkeypatch):
    """Certificates run between LPs, in the search, not in ``solve_lp``."""
    seen = []
    verify = simplex.verify_certificate

    def spy(model, result):
        seen.append(blas_count())
        return verify(model, result)

    monkeypatch.setattr(simplex, "verify_certificate", spy)
    assert milp.solve_milp(_nc_model()).status == "optimal"
    assert seen and set(seen) == {1}
    assert blas_count() == 2


def _openblas_paths():
    with open("/proc/self/maps", encoding="utf-8") as f:
        return sorted({line.split(None, 5)[5].rstrip("\n") for line in f
                       if "openblas" in line.lower() and ".so" in line})


def _fake_maps(monkeypatch, paths):
    """Make ``simplex`` read one maps line per path."""
    text = "".join(f"7f{k:010x}000-7f{k:010x}fff r-xp 00000000 fe:00 62288"
                   f"                      {path}\n"
                   for k, path in enumerate(paths))
    monkeypatch.setattr(simplex, "open", lambda *args, **kwargs:
                        io.StringIO(text), raising=False)


@needs_openblas
def test_a_library_path_with_a_space_is_found(tmp_path, monkeypatch):
    """Splitting the maps line at every space took ``ace/lib...so`` for
    a library under ``sp ace/``, and the pin was silently off."""
    spaced = tmp_path / "sp ace"
    spaced.mkdir()
    links = []
    for path in _openblas_paths():
        links.append(spaced / Path(path).name)
        links[-1].symlink_to(path)
    _fake_maps(monkeypatch, links)
    get, _ = simplex._find_openblas()
    assert get() == simplex.OPENBLAS[0]()


@needs_openblas
def test_a_library_that_fails_to_load_does_not_end_the_search(tmp_path,
                                                              monkeypatch):
    """The paths are tried in sorted order; the first is no ELF file."""
    broken = tmp_path / "a" / "libopenblas.so"
    broken.parent.mkdir()
    broken.write_bytes(b"not a shared object")
    links = []
    for path in _openblas_paths():
        links.append(tmp_path / "b" / Path(path).name)
        links[-1].parent.mkdir(exist_ok=True)
        links[-1].symlink_to(path)
    _fake_maps(monkeypatch, [broken, *links])
    get, _ = simplex._find_openblas()
    assert get() == simplex.OPENBLAS[0]()


def test_no_maps_file_means_no_pin(monkeypatch):
    def missing(*args, **kwargs):
        raise FileNotFoundError("no maps here")

    monkeypatch.setattr(simplex, "open", missing, raising=False)
    assert simplex._find_openblas() is None


def _assert_same_lp(got, want):
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert got.objective == want.objective
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.basis, want.basis)


@needs_openblas
def test_two_threads_solving_one_model_get_the_pinned_result(blas_count,
                                                             monkeypatch):
    """The first thread leaves ``solve_lp`` while the second is inside it:
    the count stays 1 for the second and comes back when it leaves."""
    model = _nc_model()
    want = solve_lp(model)
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen, got = [], {}
    refine = simplex._refine_basics

    def spy(*args):
        name = threading.current_thread().name
        if name == "first" and not first_in.is_set():
            first_in.set()
            second_in.wait(60)
        elif name == "second" and not second_in.is_set():
            second_in.set()
            first_out.wait(60)
            seen.append(blas_count())
        return refine(*args)

    def first():
        got["first"] = solve_lp(model)
        first_out.set()

    def second():
        first_in.wait(60)
        got["second"] = solve_lp(model)

    monkeypatch.setattr(simplex, "_refine_basics", spy)
    threads = [threading.Thread(target=first, name="first"),
               threading.Thread(target=second, name="second")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert first_out.is_set() and seen == [1]
    _assert_same_lp(got["first"], want)
    _assert_same_lp(got["second"], want)
    assert blas_count() == 2


@needs_openblas
def test_threads_that_switch_often_restore_the_count(blas_count,
                                                     monkeypatch):
    """Four threads solve at once with a short switch interval; ctypes
    releases the interpreter lock in each call to OpenBLAS."""
    model = _nc_model()
    want = solve_lp(model)
    start = threading.Barrier(4, timeout=60)
    seen, got = [], [None] * 4
    refine = simplex._refine_basics

    def spy(*args):
        seen.append(blas_count())
        return refine(*args)

    def run(k):
        start.wait()
        got[k] = solve_lp(model)

    monkeypatch.setattr(simplex, "_refine_basics", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) >= 4 and set(seen) == {1}
    for result in got:
        _assert_same_lp(result, want)
    assert blas_count() == 2
