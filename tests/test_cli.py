import json
import os
import stat
import subprocess
import sys
from dataclasses import replace

import pytest

import hubloc
from conftest import make_toy3
from hubloc import claims, cli, regret
from hubloc.cli import run
from hubloc.formulations import ModelOptions
from hubloc.instance import (GeneratorConfig, generate_instance,
                             instance_fingerprint, save_instance)
from hubloc.milp import HelperError
from hubloc.simplex import SimplexError


@pytest.fixture
def toy3_file(tmp_path):
    path = tmp_path / "toy3.json"
    path.write_text(save_instance(make_toy3(
        scenarios=((0.0, 0.0, 0.0), (0.0, 100.0, 0.0)))))
    return str(path)


def test_gen_then_solve_pipeline(tmp_path, capsys):
    inst = tmp_path / "a.json"
    assert run(["gen", "--seed", "1", "--nodes", "4", "--chains", "2",
                "--scenarios", "2", "-o", str(inst)]) == 0
    out = tmp_path / "sol.json"
    assert run(["solve", "--model", "nc", str(inst), "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["status"] == "optimal"
    assert report["model"] == "nc"
    assert report["options"]["big_m_mode"] == "per-constraint-tight"


def test_reports_byte_identical(tmp_path):
    inst = tmp_path / "a.json"
    run(["gen", "--seed", "3", "--nodes", "3", "-o", str(inst)])
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["solve", "--model", "ccu", str(inst), "-o", str(out1)]) == 0
    assert run(["solve", "--model", "ccu", str(inst), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_output_file_mode_follows_the_umask(umask, mode, tmp_path):
    out = tmp_path / "g.json"
    old = os.umask(umask)
    try:
        assert run(["gen", "--seed", "1", "--nodes", "3", "-o", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]   # no temp file


def test_gen_onto_a_directory_is_one_error_line(tmp_path, capsys):
    # the temporary file is written, then cannot replace the directory
    out = tmp_path / "taken"
    out.mkdir()
    assert run(["gen", "--seed", "1", "--nodes", "3", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]   # no temp file
    assert not any(out.iterdir())


def test_solve_ocu_single_chain_is_usage_level_error(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(save_instance(make_toy3(chains=((0, 1, 2),))))
    assert run(["solve", "--model", "ocu", str(path)]) == 1
    assert "two supply chains" in capsys.readouterr().err


def test_solve_infeasible_exits_2(tmp_path, capsys):
    inst = make_toy3(capacity=(3.0, 3.0, 3.0))
    path = tmp_path / "tight.json"
    path.write_text(save_instance(inst))
    assert run(["solve", "--model", "nc", str(path)]) == 2
    body = {"status": "infeasible", "objective": None, "open_hubs": [],
            "collaborative_hubs": [], "noncollaborative_hubs": [],
            "flows": {}, "nodes_explored": 1, "model": "nc",
            "options": ModelOptions().to_dict(),
            "instance": instance_fingerprint(inst)}
    assert capsys.readouterr().out == json.dumps(body, indent=2) + "\n"


def test_verify_ccnc_infeasible_base_exits_2(tmp_path, capsys):
    path = tmp_path / "tight.json"
    path.write_text(save_instance(make_toy3(capacity=(3.0, 3.0, 3.0))))
    assert run(["verify", "--claim", "ccnc", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "infeasible"
    assert "base model admits no feasible design" in out["detail"]


@pytest.mark.parametrize("argv", [
    ["regret", "--model", "ccu"], ["solve", "--model", "ccu"],
    ["solve", "--model", "ocu"], ["verify", "--claim", "thm1"]])
def test_infeasible_scenario_report_goes_to_output_file(argv, tmp_path,
                                                        capsys):
    path = tmp_path / "tight.json"
    path.write_text(save_instance(make_toy3(capacity=(3.0, 3.0, 3.0))))
    assert run(argv + [str(path)]) == 2
    printed = capsys.readouterr().out
    assert printed.endswith("}\n")
    assert json.loads(printed)["status"] == "infeasible"
    out = tmp_path / "report.json"
    assert run(argv + [str(path), "-o", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


def test_negative_seed_is_a_config_error(capsys):
    assert run(["gen", "--seed", "-1", "--nodes", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be nonnegative\n"


@pytest.mark.parametrize("real_file", [True, False])
def test_verify_file_with_trials_is_a_usage_error(real_file, toy3_file, capsys):
    path = toy3_file if real_file else "/no/such/file.json"
    argv = ["verify", "--claim", "ccnc", path, "--trials", "1", "--nodes", "3"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("usage error: verify takes an instance file or --trials, not both"
            in captured.err)


def test_regret_report(toy3_file, capsys):
    assert run(["regret", "--model", "ccu", toy3_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_regret"] == pytest.approx(5.0, abs=1e-6)
    assert report["baselines"] == pytest.approx([25.0, 120.0])
    assert report["design"]["open_hubs"] == [1]


def test_verify_single_instance(toy3_file, capsys):
    assert run(["verify", "--claim", "thm1", toy3_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "CONFIRMED"
    assert report["claim_id"] == "thm1"


def test_verify_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["verify", "--claim", "ccnc", "--trials", "3", "--seed", "7",
                "--nodes", "3", "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("seed,n,claim,verdict")
    rows = [l for l in lines if not l.startswith(("seed,", "#"))]
    assert len(rows) == 3
    assert all(",cc_nc_consistency,CONFIRMED," in r for r in rows)
    assert any(l.startswith("# tally CONFIRMED=3") for l in lines)


def test_verify_sweep_with_refutations_exits_2(tmp_path):
    out = tmp_path / "tk.csv"
    code = run(["verify", "--claim", "eq20", "--trials", "2", "--seed", "1",
                "--nodes", "3", "--density", "1.0", "-o", str(out)])
    body = out.read_text()
    verdicts = {line.split(",")[3] for line in body.splitlines()
                if line and not line.startswith(("seed,", "#"))}
    assert verdicts <= {"CONFIRMED", "COUNTEREXAMPLE", "INCONCLUSIVE"}
    assert code == (0 if verdicts == {"CONFIRMED"} else 2)


def test_sweep_all_claims(tmp_path):
    out = tmp_path / "all.csv"
    run(["sweep", "--trials", "1", "--seed", "2", "--nodes", "3",
         "-o", str(out)])
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith(("seed,", "#"))]
    assert len(rows) == 5  # one row per claim
    claims = {r.split(",")[2] for r in rows}
    assert claims == {"thm1", "eq20_redundant", "tk_never_one", "i_redundant",
                      "cc_nc_consistency"}


def test_usage_errors_exit_1(capsys):
    assert run(["solve"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert run(["verify", "--claim", "thm1"]) == 1
    assert run(["frobnicate"]) == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--trials", "-2", "--nodes", "3"],
    ["verify", "--claim", "thm1", "--trials", "0", "--nodes", "3"]])
def test_trials_below_one_is_a_usage_error(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: --trials must be at least 1" in captured.err


@pytest.mark.parametrize("argv", [["solve", "--model", "nc", "-v"],
                                  ["regret", "--model", "ccu", "--verbose"]])
def test_no_verbose_flag(argv, toy3_file, capsys):
    assert run(argv + [toy3_file]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("command,model",
                         [("solve", "nc"), ("solve", "cc"), ("regret", "ccu")])
def test_successful_solve_writes_nothing_to_stderr(command, model, toy3_file,
                                                   capsys):
    assert run([command, "--model", model, toy3_file]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["model"] == model
    assert captured.err == ""


@pytest.mark.parametrize("error", [
    SimplexError("numerical breakdown: singular basis (3 columns)"),
    HelperError("helper process (pid 1) is gone")])
def test_a_solver_error_is_one_error_line(error, toy3_file, monkeypatch,
                                          capsys):
    # it once reached the user as a traceback
    def broken(model):
        raise error

    monkeypatch.setattr(cli, "solve_milp", broken)
    assert run(["solve", "--model", "nc", toy3_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def _costs_plus_one(monkeypatch):
    evaluate = regret.evaluate_design
    monkeypatch.setattr(regret, "evaluate_design", lambda *args, **kwargs: [
        cost + 1.0 for cost in evaluate(*args, **kwargs)])


def _forced_optimum_lowered(monkeypatch):
    solved = claims.SolveMemo.solved

    def lowered(memo, name):
        model, sol = solved(memo, name)
        if name == "tk-forced":
            optimum = solved(memo, "ocu")[1].objective
            sol = replace(sol, objective=optimum - 1.0)
        return model, sol
    monkeypatch.setattr(claims.SolveMemo, "solved", lowered)


@pytest.mark.parametrize("argv,patch,message", [
    (["regret", "--model", "ccu"], _costs_plus_one,
     "regret replay mismatch for scenario 0"),
    (["verify", "--claim", "tk"], _forced_optimum_lowered,
     "forcing T raised nothing and lowered the optimum")],
    ids=["regret-replay", "tk-forced-below-optimum"])
def test_a_failed_self_replay_is_one_error_line(argv, patch, message,
                                                tmp_path, monkeypatch,
                                                capsys):
    # each once reached the user as a traceback of a bare RuntimeError;
    # on this instance the forced tk model is feasible
    path = tmp_path / "g3.json"
    path.write_text(save_instance(generate_instance(GeneratorConfig(
        seed=1, n=3, chain_count=2, scenario_count=2))))
    patch(monkeypatch)
    assert run([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_missing_file_exits_1(capsys):
    assert run(["solve", "--model", "nc", "/no/such/file.json"]) == 1


def _console(*argv):
    """``python -m hubloc.cli ARGV`` in a child process that imports the
    same hubloc package as this test."""
    src = os.path.dirname(os.path.dirname(hubloc.__file__))
    return subprocess.run([sys.executable, "-m", "hubloc.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))


def test_console_entry_point(tmp_path):
    proc = _console("gen", "--seed", "1", "--nodes", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 3


@pytest.mark.parametrize("key", ["chi", "demand"])
def test_integer_beyond_float_range_is_an_error_line(key, tmp_path):
    doc = json.loads(save_instance(make_toy3()))
    if key == "chi":
        doc["chi"] = 10**400
    else:
        doc["demand"][0][2] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc = _console("solve", "--model", "nc", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: '{key}' holds an integer too large for a float\n"
