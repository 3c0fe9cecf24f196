"""The benchmark's own checks, at tiny sizes (about a minute in all).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = HERE / "out" / "test"


def bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        res = result(bench(workload, trace))
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}


def test_counts_repeat_and_layers_account_for_run_time():
    first = result(bench("decouple-chain", 1, seed=4))["metrics"]
    second = result(bench("decouple-chain", 1, seed=5))["metrics"]
    for name in ("spectral.iters", "modgroup.translation_rows", "measures.convolve_calls",
                 "decouple.contexts", "decouple.etas_built"):
        assert first[name]["value"] == second[name]["value"]
    m = {k: v["value"] for k, v in second.items()}
    layers = sum(m[f"{layer}.self_s"] for layer in
                 ("symdyn", "modgroup", "measures", "decouple", "spectral"))
    total = layers + m["trace.hook_s"] + m["trace.unattributed_s"]
    assert total == pytest.approx(m["trace.run_s"], rel=1e-9)


def _child(*args):
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_corrupted_reference_is_a_failure():
    refs = json.loads((HERE / "refs.json").read_text())
    refs["sweep-ladder"]["13"]["norm"] *= 1.001
    SCRATCH.mkdir(parents=True, exist_ok=True)
    bad = SCRATCH / "refs-corrupted.json"
    bad.write_text(json.dumps(refs))
    rec = _child("--workload", "sweep-ladder", "--tiny", "--refs", str(bad))
    assert rec["failed"] == 1 and rec["failed"] / rec["attempted"] > 0
    assert any(m.startswith("q=13:") for m in rec["misses"])


def test_loose_power_iteration_misses_the_reference():
    sys.path.insert(0, str(ROOT / "src"))
    from child import setup

    mg, spec, _ = setup()
    refs = json.loads((HERE / "refs.json").read_text())
    p = {**W.params_for("sweep-ladder", tiny=True), "tol": 1e-4}
    ops = W.run("sweep-ladder", mg, spec, p, seed=0)
    attempted, failed, misses, _ = W.check("sweep-ladder", ops, refs)
    assert failed >= 1, misses


def test_no_program_no_result():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("sweep-ladder", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    shutil.rmtree(bare)
