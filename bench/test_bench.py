"""Smoke tests of the benchmark at toy sizes.

    python -m pytest -q bench

They check that every metric named in BENCHMARK.json is emitted with its
unit on every workload, that per-layer counts repeat exactly, and that a
perturbed reference value or an unconverged solve trips the gate.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300)
    return done, done.stdout.strip().splitlines()


def smoke(workload, trace):
    done, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, lines = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    printed = {line.split()[1]: line.split()[-1]
               for line in lines if line.startswith("metric ")}
    assert printed == run.E2E_UNITS


@pytest.mark.parametrize("workload", ["transport", "cli_cold"])
def test_per_layer_counts_repeat_exactly(workload):
    first, _ = smoke(workload, 1)
    second, _ = smoke(workload, 1)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert [first["metrics"][c]["value"] for c in counts] == \
           [second["metrics"][c]["value"] for c in counts]


def tally_of(w):
    return run.measure(w, seconds=0.0)[2]


def _lower(refs, pick, delta):
    key = next(k for k in sorted(refs) if pick(k))
    refs[key] = refs[key] - delta


PERTURB = {   # each shift is far outside the check's tolerance
    "transport": lambda refs: _lower(refs, lambda k: k.endswith("/oracle"), 1e-3),
    "qtilde": lambda refs: _lower(refs, lambda k: k.startswith("two_point#"), 1e-6),
    "constants": lambda refs: _lower(refs, lambda k: k == "two_point", 1e-3),
    "cli_cold": lambda refs: _lower(refs, lambda k: k.startswith("ttilde"), 1.0),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_trips_the_gate(workload, tmp_path):
    w = workloads.build(workload, 3, smoke=True, tmpdir=str(tmp_path))
    w.compute_references()
    assert tally_of(w).failed == 0
    PERTURB[workload](w.refs)
    tally = tally_of(w)
    assert tally.failed > 0
    assert tally.max_ref_err > 0


def test_unconverged_solve_counts_as_failure(monkeypatch, tmp_path):
    solve = workloads.transport.weak_transport_cost

    def starved(*args, **kwargs):
        return solve(*args, **{**kwargs, "max_iter": 1})

    w = workloads.build("transport", 3, smoke=True, tmpdir=str(tmp_path))
    w.compute_references()
    monkeypatch.setattr(workloads.transport, "weak_transport_cost", starved)
    tally = tally_of(w)
    assert any(f["why"] == "unconverged solve" for f in tally.failures)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    done, lines = bench("--workload", "qtilde", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in lines)
