"""Command-line adapter tests: schemas, exit codes, reproducibility."""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from weakhj.cli import _build_parser, run

MANIFEST_KEYS = {"command", "inputs", "seed", "version", "wall_time_s"}


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


def test_space_example_schema(capsys):
    code, doc = invoke_json(capsys, "space", "--example", "two_point")
    assert code == 0
    assert set(doc) == {"manifest", "result"}
    assert set(doc["manifest"]) == MANIFEST_KEYS
    assert doc["manifest"]["command"] == "space"
    assert doc["manifest"]["seed"] == 0
    assert set(doc["result"]) == {"n", "diameter", "valid", "dist", "labels"}
    assert doc["result"]["n"] == 2
    assert doc["result"]["dist"] == [[0.0, 1.0], [1.0, 0.0]]


def test_space_validate_triangle_violation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}))
    code, doc = invoke_json(capsys, "space", "--validate", str(bad))
    assert code == 1
    err = doc["error"]
    assert err["type"] == "metric-violation"
    assert err["detail"]["axiom"] == "triangle"
    assert err["detail"]["witness"] == [0, 1, 2]


@pytest.mark.parametrize("space", [
    {"dist": [[0, 1], [1, 0]], "labels": ["a"]},
    {"n": 3, "edges": [[0, 1], [1, 2]], "labels": [1, [2], None, "x"]},
    {"dist": [[0, 1], [1, 0]], "labels": "ab"},
], ids=["too-few", "mixed-types", "string"])
def test_space_validate_rejects_bad_labels(space, tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    code, doc = invoke_json(capsys, "space", "--validate", str(path))
    assert code == 1
    assert doc["error"]["type"] == "input"
    assert str(path) in doc["error"]["message"]
    assert "labels" in doc["error"]["message"]


def test_space_requires_an_input(capsys):
    code, doc = invoke_json(capsys, "space")
    assert code == 1 and doc["error"]["type"] == "input"


def test_qtilde_two_point_values(capsys):
    code, doc = invoke_json(capsys, "qtilde", "--space", "two_point",
                            "--f", "1,0", "--t", "0.5", "--oracle")
    assert code == 0
    res = doc["result"]
    np.testing.assert_allclose(res["values"], [0.75, 0.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(res["derivative"], [-0.5, 0.0], rtol=0, atol=1e-12)
    assert res["argmin"][0] == [0.5, 0.5]
    assert res["oracle_max_error"] <= 1e-8


def test_qtilde_reads_files(tmp_path, capsys):
    space = tmp_path / "s.json"
    space.write_text(json.dumps({"dist": [[0.0, 1.0], [1.0, 0.0]]}))
    fvec = tmp_path / "f.json"
    fvec.write_text(json.dumps([1.0, 0.0]))
    code, doc = invoke_json(capsys, "qtilde", "--space", str(space),
                            "--f", str(fvec), "--t", "0.5")
    assert code == 0
    assert set(doc["manifest"]["inputs"]) == {"space", "f"}
    np.testing.assert_allclose(doc["result"]["values"], [0.75, 0.0], atol=1e-12)


def test_hj_verify_schema_and_exit(capsys):
    code, doc = invoke_json(capsys, "hj-verify", "--space", "two_point",
                            "--f", "1,0", "--cost", "quadratic",
                            "--t-grid", "0.1:2:0.1", "--boundary")
    assert code == 0
    res = doc["result"]
    assert set(res) == {"cost", "slices", "boundary", "holds"}
    assert len(res["slices"]) == 20
    assert set(res["slices"][0]) == {"kind", "cost", "holds", "t", "residuals",
                                     "max_residual", "conjugate_infinite"}
    assert set(res["boundary"]) == {"kind", "cost", "holds", "limits",
                                    "targets", "errors", "max_error",
                                    "excluded"}
    assert res["holds"] is True


def test_hj_verify_boundary_of_steep_function(capsys):
    code, doc = invoke_json(capsys, "hj-verify", "--space", "path:3",
                            "--f", "0,1000,0", "--cost", "power:p=1.5",
                            "--t-grid", "1", "--boundary")
    assert code == 0
    assert doc["result"]["boundary"]["holds"] is True


def test_hj_verify_comma_grid(capsys):
    code, doc = invoke_json(capsys, "hj-verify", "--space", "two_point",
                            "--f", "1,0", "--t-grid", "0.5,1.0")
    assert code == 0
    assert [s["t"] for s in doc["result"]["slices"]] == [0.5, 1.0]


def test_obstruction_witness_exit_two(tmp_path, capsys):
    code, doc = invoke_json(capsys, "obstruction", "--space", "path:3")
    assert code == 2
    res = doc["result"]
    assert res["status"] == "witness"
    assert set(res["witness"]) == {"f", "x", "s", "t", "lhs", "rhs", "gap"}
    assert res["witness"]["gap"] > 1e-6
    # path:3 scaled by 1e-4: the default t-grid scales with d_min^2
    small = tmp_path / "small.json"
    small.write_text(json.dumps(
        {"dist": [[0, 1e-4, 2e-4], [1e-4, 0, 1e-4], [2e-4, 1e-4, 0]]}))
    code, doc = invoke_json(capsys, "obstruction", "--space", str(small),
                            "--trials", "3")
    assert code == 2
    assert abs(doc["result"]["witness"]["gap"] - 1.0) <= 1e-12


def test_obstruction_exhausted_exits_zero(tmp_path, capsys):
    # a one-point space has no gap at all
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"dist": [[0]]}))
    code, doc = invoke_json(capsys, "obstruction", "--space", str(path),
                            "--trials", "3")
    assert code == 0
    res = doc["result"]
    assert res["status"] == "exhausted" and res["witness"] is None
    assert isinstance(res["detail"]["max_gap_seen"], float)
    assert res["detail"]["max_gap_seen"] <= 1e-6


def test_obstruction_negative_trials_is_error_object(capsys):
    code, doc = invoke_json(capsys, "obstruction", "--space", "path:3",
                            "--trials", "-5")
    assert code == 1
    assert doc["error"]["type"] == "value"
    assert "trials must be an integer >= 0" in doc["error"]["message"]


def test_ttilde_forced_coupling_fixture(capsys):
    code, doc = invoke_json(capsys, "ttilde", "--space", "two_point",
                            "--nu", "1,0", "--mu", "0.5,0.5", "--oracle")
    assert code == 0
    res = doc["result"]
    np.testing.assert_allclose(res["value"], 0.25, rtol=0, atol=1e-6)
    assert res["gap"] <= 1e-8
    assert res["converged"] is True
    assert res["oracle_error"] <= 1e-6
    np.testing.assert_allclose(np.sum(res["coupling"], axis=1), [0.5, 0.5],
                               atol=1e-10)


def test_qtilde_oracle_off_by_1e_10_exits_two(capsys, monkeypatch):
    import weakhj.cli as cli
    from weakhj.calculus import weak_infconv_bruteforce

    monkeypatch.setattr(cli, "weak_infconv_bruteforce",
                        lambda *args: weak_infconv_bruteforce(*args) + 1e-10)
    code, doc = invoke_json(capsys, "qtilde", "--space", "path:5",
                            "--f", "1,0,2,0.5,1", "--t", "0.5", "--oracle")
    assert code == 2
    assert doc["result"]["oracle_max_error"] <= 2e-10


def test_ttilde_oracle_off_by_1e_8_exits_two(capsys, monkeypatch):
    import weakhj.cli as cli
    from weakhj.transport import transport_oracle_small

    monkeypatch.setattr(cli, "transport_oracle_small",
                        lambda *args: transport_oracle_small(*args) + 1e-8)
    code, doc = invoke_json(capsys, "ttilde", "--space", "two_point",
                            "--nu", "1,0", "--mu", "0.5,0.5", "--oracle")
    assert code == 2
    assert doc["result"]["oracle_error"] <= 2e-8


def test_te_verify_undersized_constant_violates(capsys):
    code, doc = invoke_json(capsys, "te-verify", "--space", "two_point",
                            "--C", "0.25", "--direction", "I",
                            "--samples", "1000", "--seed", "7")
    assert code == 2
    res = doc["result"]
    assert res["verdict"] == "violated"
    assert res["witness"] is not None
    assert res["best_ratio"] > 0.25
    assert doc["manifest"]["seed"] == 7


def test_te_verify_certified_exit_zero(capsys):
    code, doc = invoke_json(capsys, "te-verify", "--space", "two_point",
                            "--C", "0.5", "--samples", "200")
    assert code == 0
    assert doc["result"]["verdict"] == "certified-no-violation"


def test_sweep_without_evaluated_sample_is_inconclusive(capsys):
    # mu = (1, 0): every sampled nu charges the mu-null point, so H is
    # infinite and no sample is evaluated, whatever C is
    code, doc = invoke_json(capsys, "te-verify", "--space", "two_point",
                            "--mu", "1,0", "--C", "0.001", "--samples", "50")
    assert code == 0
    assert doc["result"]["verdict"] == "inconclusive"
    assert doc["result"]["iterations"] == 0
    # an inconclusive leg breaks coherence, but only a violation exits 2
    code, doc = invoke_json(capsys, "chain-verify", "--space", "two_point",
                            "--mu", "1,0", "--C", "1", "--samples", "20",
                            "--restarts", "2")
    assert code == 0 and doc["result"]["coherent"] is False
    assert doc["result"]["transport"]["I"]["verdict"] == "inconclusive"


def test_constants_chain_bookkeeping(capsys):
    code, doc = invoke_json(capsys, "constants", "--space", "two_point",
                            "--restarts", "8")
    assert code == 0
    res = doc["result"]
    np.testing.assert_allclose(res["poincare"]["best_ratio"], 0.5, atol=1e-6)
    np.testing.assert_allclose(res["chain_constant"],
                               2.0 * res["entropy_ratio"], rtol=1e-12)
    assert res["diameter_bound"] == 0.5


def test_chain_verify_coherent_then_starved(capsys):
    code, doc = invoke_json(capsys, "chain-verify", "--space", "two_point",
                            "--samples", "100", "--restarts", "6")
    assert code == 0 and doc["result"]["coherent"] is True
    code, doc = invoke_json(capsys, "chain-verify", "--space", "two_point",
                            "--C", "0.005", "--samples", "100",
                            "--restarts", "6")
    assert code == 2 and doc["result"]["coherent"] is False


def test_chain_verify_tests_the_entropy_leg_at_its_estimate(capsys):
    # C_m > 1 on hypercube:3: the estimated constant, not 1, is the bound
    code, doc = invoke_json(capsys, "chain-verify", "--space", "hypercube:3",
                            "--samples", "5", "--restarts", "2")
    res = doc["result"]
    assert code == 0 and res["coherent"] is True
    assert res["entropy_constant"] > 1.0
    assert res["mlsi"]["constant"] == res["entropy_constant"]
    assert res["mlsi"]["verdict"] == "certified-no-violation"


def test_chain_verify_with_mu_null_points(capsys):
    code, doc = invoke_json(capsys, "chain-verify", "--space", "path:3",
                            "--mu", "1,0,0", "--C", "1", "--samples", "5",
                            "--restarts", "2")
    assert code == 0
    res = doc["result"]
    # every sampled nu charges a mu-null point: transport has no sample
    assert res["coherent"] is False
    assert res["transport"]["I"]["verdict"] == "inconclusive"
    # under a Dirac mu, Q_t f <= f makes every norm ratio at most 1
    growth = [res["dual"], *res["hypercontractivity"]]
    assert all(leg["verdict"] == "certified-no-violation" for leg in growth)
    # (rho, t) = (0, 1) is the dual leg, so norm growth has two more legs
    assert [(leg["details"]["rho"], leg["details"]["t"]) for leg in growth] == [
        (0.0, 1.0), (0.5, 1.0), (1.0, 0.5)]


def test_dirac_mu_has_no_estimated_entropy_constant(capsys):
    # every Ent_mu(e^f) vanishes: the chain has no constant to run at
    code, doc = invoke_json(capsys, "chain-verify", "--space", "path:3",
                            "--mu", "1,0,0", "--samples", "5", "--restarts", "2")
    assert code == 1
    assert doc["error"]["type"] == "value"
    assert "--C" in doc["error"]["message"]
    code, doc = invoke_json(capsys, "constants", "--space", "path:3",
                            "--mu", "1,0,0", "--restarts", "2")
    assert code == 0
    assert doc["result"]["entropy_ratio"] == 0.0
    assert doc["result"]["chain_constant"] == 0.0


def test_chain_verify_norm_growth_violation_carries_witness(capsys):
    from weakhj import build_example, uniform_measure
    from weakhj.funcineq import hypercontractivity_check

    code, doc = invoke_json(capsys, "chain-verify", "--space", "two_point",
                            "--C", "0.1", "--samples", "20", "--restarts", "2")
    assert code == 2
    res = doc["result"]
    legs = [leg for leg in (res["dual"], *res["hypercontractivity"])
            if leg["verdict"] == "violated"]
    assert legs
    space = build_example("two_point")
    for leg in legs:
        details = leg["details"]
        out = hypercontractivity_check(uniform_measure(2), res["chain_constant"],
                                       leg["witness"], details["rho"], details["t"], space)
        assert not out["holds"]
        assert out["margin"] == -details["best_log_ratio"]


def test_examples_two_point_report(capsys):
    code, doc = invoke_json(capsys, "examples", "two-point")
    assert code == 0
    res = doc["result"]
    assert set(res) == {"space", "f", "cost", "table", "max_value_error",
                        "max_derivative_error", "residual_strictly_negative",
                        "boundary", "poincare", "poincare_expected", "holds",
                        "seed"}
    assert res["holds"] is True
    assert res["max_value_error"] <= 1e-12
    assert res["max_derivative_error"] <= 1e-12
    assert res["residual_strictly_negative"] is True
    np.testing.assert_allclose(res["poincare"]["best_ratio"], 0.5, atol=1e-6)
    row = res["table"][0]
    assert set(row) == {"t", "values", "expected", "derivative", "residual",
                        "residual_expected"}
    np.testing.assert_allclose(row["values"], row["expected"], atol=1e-12)


def test_examples_hypercube_records_without_asserting(capsys):
    code, doc = invoke_json(capsys, "examples", "hypercube", "--n", "2")
    assert code == 0  # recorded, never asserted
    res = doc["result"]
    assert res["quoted_targets"] == {"entropy": 0.5, "transport": 0.25,
                                     "fallback_level": 1.0}
    assert res["targets_met"]["entropy_quarter"] is False
    assert res["targets_met"]["transport_eighth"] is False
    assert res["targets_met"]["half_level"] is True
    assert "n/4-vs-n/2" in res["note"]
    assert res["entropy_ratio"] > 0.8


@pytest.mark.parametrize("which, restarts", [("hypercube", 2), ("two-point", 3)])
def test_examples_pass_restarts_to_report(which, restarts, capsys):
    _, doc = invoke_json(capsys, "examples", which, "--restarts", str(restarts))
    assert doc["result"]["poincare"]["restarts"] == restarts


def test_csv_flattening(capsys):
    code, out = invoke(capsys, "qtilde", "--space", "two_point",
                       "--f", "1,0", "--t", "0.5", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert lines[1] == "t,0.5"
    assert lines[2] == "cost,quadratic"
    assert lines[3] == "values,0.75;0.0"
    assert "argmin[0],0.5;0.5" in lines


def test_payload_reproducible_across_runs(capsys):
    _, a = invoke_json(capsys, "te-verify", "--space", "cycle:5",
                       "--C", "2.0", "--samples", "100", "--seed", "3")
    _, b = invoke_json(capsys, "te-verify", "--space", "cycle:5",
                       "--C", "2.0", "--samples", "100", "--seed", "3")
    assert a["result"] == b["result"]
    assert a["manifest"]["inputs"] == b["manifest"]["inputs"]


def test_unknown_space_and_malformed_file(tmp_path, capsys):
    code, doc = invoke_json(capsys, "qtilde", "--space", "nosuch",
                            "--f", "1,0", "--t", "0.5")
    assert code == 1 and doc["error"]["type"] == "input"
    assert "known_examples" in doc["error"]["detail"]
    mangled = tmp_path / "m.json"
    mangled.write_text("{not json")
    code, doc = invoke_json(capsys, "space", "--validate", str(mangled))
    assert code == 1 and "malformed JSON" in doc["error"]["message"]


def test_bad_grid_and_bad_cost(capsys):
    code, doc = invoke_json(capsys, "hj-verify", "--space", "two_point",
                            "--f", "1,0", "--t-grid", "2:1:0.5")
    assert code == 1 and doc["error"]["type"] == "input"
    code, doc = invoke_json(capsys, "qtilde", "--space", "two_point",
                            "--f", "1,0", "--t", "0.5", "--cost", "cubic")
    assert code == 1


def test_capacity_error_is_input_error(capsys):
    code, doc = invoke_json(capsys, "space", "--example", "hypercube:15")
    assert code == 1
    assert "capped" in doc["error"]["message"]


def test_capacity_error_states_bytes(capsys):
    code, doc = invoke_json(capsys, "space", "--example", "hypercube:13")
    assert code == 1
    assert doc["error"]["type"] == "input"
    assert f"{16 * 4 ** 13} bytes" in doc["error"]["message"]


def test_solver_failure_is_error_object(capsys, monkeypatch):
    import weakhj.transport as transport

    def fail(*args, **kwargs):
        raise transport.SolverError("transport subproblem: no augmenting path")

    monkeypatch.setattr(transport, "_ot_plan", fail)
    code, doc = invoke_json(capsys, "ttilde", "--space", "two_point",
                            "--nu", "1,0", "--mu", "0.5,0.5")
    assert code == 1
    assert doc["error"]["type"] == "solver"
    assert "no augmenting path" in doc["error"]["message"]


def test_oracle_failure_is_error_object(capsys, monkeypatch):
    import weakhj.transport as transport
    from scipy.optimize import OptimizeResult
    from weakhj.cost import quadratic
    from weakhj.space import build_example

    def stopped(fun, x0, **kwargs):
        return OptimizeResult(x=np.asarray(x0), status=9, success=False,
                              message="Iteration limit reached")

    monkeypatch.setattr(transport, "minimize", stopped)
    with pytest.raises(transport.SolverError, match="status 9"):
        transport.transport_oracle_small([1.0, 0.0], [0.5, 0.5], quadratic(),
                                         build_example("two_point"))
    code, doc = invoke_json(capsys, "ttilde", "--space", "two_point",
                            "--nu", "1,0", "--mu", "0.5,0.5", "--oracle")
    assert code == 1
    assert doc["error"]["type"] == "solver"
    assert "status 9" in doc["error"]["message"]


def test_library_value_error_is_error_object(capsys):
    code, doc = invoke_json(capsys, "qtilde", "--space", "two_point",
                            "--f", "1,0", "--t", "0")
    assert code == 1
    assert doc == {"error": {"type": "value",
                             "message": "t must be positive, got 0.0",
                             "detail": {}}}


def test_thin_adapter_imports_no_numerics():
    import weakhj.cli as cli
    lines = [l for l in Path(cli.__file__).read_text().splitlines(keepends=True)
             if l.startswith(("import ", "from "))]
    joined = "".join(lines)
    assert "numpy" not in joined and "scipy" not in joined


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "weakhj.cli", "space", "--example", "two_point"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["n"] == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


@pytest.mark.parametrize("argv", [["--help"], ["examples", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert "usage: weakhj" in capsys.readouterr().out


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [line.split("#")[0].split()[1:] for line in lines if line.strip()]


def test_readme_lists_every_command_and_example():
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    which = next(a for a in sub.choices["examples"]._actions if a.dest == "which")
    listed = _readme_commands()
    assert set(sub.choices) <= {argv[0] for argv in listed}
    assert set(which.choices) <= {argv[1] for argv in listed
                                  if argv[0] == "examples"}


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", _readme_commands() + [
    ["hj-verify", "--space", "two_point", "--f", "3,0", "--cost", "qlin:a=1,h=0.5",
     "--boundary"],
], ids=" ".join)
def test_output_is_strict_json(argv, tmp_path, capsys):
    space_file = tmp_path / "my_space.json"
    space_file.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2, 2.5]]}))
    argv = [str(space_file) if a == "my_space.json" else a for a in argv]
    code, out = invoke(capsys, *argv)
    assert code in (0, 2)
    doc = _strict_json(out)
    assert doc["manifest"]["command"] == argv[0]


@pytest.mark.parametrize("f, message", [
    ("1,nan", "finite"), ("1", "shape"), ("1,0,2", "shape")])
def test_qtilde_rejects_bad_function(f, message, capsys):
    code, out = invoke(capsys, "qtilde", "--space", "two_point", "--f", f,
                       "--t", "0.5")
    assert code == 1
    err = _strict_json(out)["error"]
    assert err["type"] == "value" and message in err["message"]


def test_vector_file_with_non_number_names_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('["a", 1]')
    code, doc = invoke_json(capsys, "qtilde", "--space", "two_point",
                            "--f", str(path), "--t", "0.5")
    assert code == 1
    assert doc["error"]["type"] == "input"
    assert str(path) in doc["error"]["message"]


def test_parser_reuse_keeps_no_state(capsys):
    from weakhj.cli import _build_parser
    assert _build_parser() is _build_parser()
    _, first = invoke_json(capsys, "qtilde", "--space", "two_point",
                           "--f", "1,0", "--t", "0.5", "--oracle")
    _, second = invoke_json(capsys, "qtilde", "--space", "two_point",
                            "--f", "1,0", "--t", "0.5")
    assert "oracle_values" in first["result"]
    assert "oracle_values" not in second["result"]


@pytest.mark.parametrize("argv, kind", [
    ("qtilde --space two_point --f 1,0 --t nan", "value"),
    ("qtilde --space two_point --f 1,0 --t inf", "value"),
    ("hj-verify --space two_point --f 1,0 --t-grid 0.1:inf:0.1", "input"),
    ("hj-verify --space two_point --f 1,0 --t-grid 0.1,nan", "value"),
    ("obstruction --space two_point --t-grid nan,0.5", "value"),
    ("te-verify --space two_point --C nan --samples 10", "value"),
    ("chain-verify --space two_point --C inf --samples 5 --restarts 1", "value"),
    ("ttilde --space two_point --nu nan,1 --mu 0.5,0.5", "value"),
    ("qtilde --space two_point --f 1,0 --t 0.5 --cost power:p=inf", "input"),
    ("qtilde --space two_point --f 1,0 --t 0.5 --cost qlin:a=inf,h=1", "input"),
], ids=lambda v: v)
def test_non_finite_input_is_error_object(argv, kind, capsys):
    code, out = invoke(capsys, *argv.split())
    assert code == 1
    err = _strict_json(out)["error"]
    assert err["type"] == kind
    assert "finite" in err["message"]


@pytest.mark.parametrize("argv, kind", [
    ("te-verify --space two_point --C 1 --samples 0", "value"),
    ("te-verify --space two_point --C 1 --samples -3", "value"),
    ("chain-verify --space two_point --samples 5 --restarts 0", "value"),
    ("chain-verify --space two_point --samples -5 --restarts 2", "value"),
    ("chain-verify --space two_point --samples 0 --restarts 2", "value"),
    ("constants --space two_point --restarts -1", "value"),
    ("hj-verify --space two_point --f 1,0 --t-grid 0.1:0.2:1e-7", "input"),
    ("hj-verify --space two_point --f 1,0 --t-grid 0:1e308:1e-308", "input"),
], ids=lambda v: v)
def test_bad_count_or_grid_is_error_object(argv, kind, capsys):
    start = time.monotonic()
    code, out = invoke(capsys, *argv.split())
    assert time.monotonic() - start < 5.0
    assert code == 1
    err = _strict_json(out)["error"]
    assert err["type"] == kind
    assert ">= 1" in err["message"] or "cap" in err["message"]


@pytest.mark.parametrize("argv", [
    "te-verify --space two_point --C 1 --samples abc",
    "qtilde --space two_point --f 1,0",
    "bogus",
    "constants --space two_point --restarts 1.5",
    "examples nine",
    "examples symmetric-group",
    "",
], ids=lambda v: v or "no-command")
def test_usage_error_is_error_object(argv, capsys):
    code = run(argv.split())
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    err = _strict_json(captured.out)["error"]
    assert err["type"] == "input"
    assert err["message"].startswith("weakhj")


@pytest.mark.parametrize("which", ["hypercube"])
def test_examples_size_zero_is_error_object(which, capsys):
    code, out = invoke(capsys, "examples", which, "--n", "0", "--restarts", "1")
    assert code == 1
    err = _strict_json(out)["error"]
    assert err["type"] == "value"
    assert ">= " in err["message"]
