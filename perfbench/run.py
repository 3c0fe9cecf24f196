"""modgap benchmark: one workload, fresh processes, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout; the program is modgap from src/.
--trace 0 prints the end-to-end metrics: setup_s (median of several fresh
set-ups), run_s and peak_rss_mb (medians over passes, each pass a fresh
process) and ok_frac. Passes repeat while another one fits in --seconds;
there is always at least one. --trace 1 runs one untraced and one traced
pass and prints the per-layer metrics. Outputs are checked against the
pinned references in refs.json; spans and per-run records go to
perfbench/out/. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from tracing import COUNT_METRICS, PER_LAYER  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # the whole run, set-up samples included
THREADS = "1"


class BenchError(Exception):
    """A measured process could not run; the benchmark prints no result."""


def source_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "modgap").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k in ("PATH", "HOME", "LANG", "TMPDIR")}
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS=THREADS, OPENBLAS_NUM_THREADS=THREADS, MKL_NUM_THREADS=THREADS)
    return env


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


class Runner:
    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.env = child_env(root)
        self.deadline = deadline

    def child(self, *args) -> tuple[dict | None, float]:
        """Run child.py to completion; returns (its JSON record, wall seconds)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a pass")
        cmd = [sys.executable, str(HERE / "child.py"), *args]
        t0 = time.perf_counter()
        try:
            res = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                 text=True, timeout=timeout)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{' '.join(args)}: still running at the deadline") from e
        wall = time.perf_counter() - t0
        if res.returncode != 0:
            raise BenchError(f"{' '.join(args)}: exit {res.returncode}\n{res.stderr[-2000:]}")
        lines = res.stdout.strip().splitlines()
        return (json.loads(lines[-1]) if lines else None), wall


def check_counts(out_dir: Path, refs: dict, workload: str, tiny: bool, layers: dict,
                 digest: str) -> list[str]:
    """The exact counts must repeat across runs of one source tree: against the
    pinned counts when the source is the one they were pinned from, else
    against the first traced run of this source in this checkout."""
    counts = {k: layers[k] for k in COUNT_METRICS}
    pinned = refs.get("counts", {})
    if not tiny and pinned.get("source_sha256") == digest:
        known, where = pinned[workload], "refs.json"
    else:
        rec = out_dir / f"counts-{workload}{'-tiny' if tiny else ''}-{digest[:16]}.json"
        if not rec.exists():
            rec.write_text(json.dumps(counts, sort_keys=True) + "\n")
            return []
        known, where = json.loads(rec.read_text()), rec.name
    return [f"count {k}={counts[k]} differs from {known[k]} in {where}"
            for k in COUNT_METRICS if counts[k] != known[k]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="modgap benchmark")
    ap.add_argument("--workload", required=True, choices=W.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "modgap" / "__init__.py").is_file():
        print(f"no modgap source under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    refs = json.loads((HERE / "refs.json").read_text())
    runner = Runner(root, time.monotonic() + DEADLINE_S)
    tag = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    pass_args = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        pass_args.append("--tiny")

    try:
        setup_walls = [runner.child("--setup-only")[1] for _ in range(SETUP_SAMPLES)]
        passes = []
        t_start = time.perf_counter()
        while True:
            rec, _ = runner.child(*pass_args)
            passes.append(rec)
            elapsed = time.perf_counter() - t_start
            if args.trace or elapsed + rec["run_s"] > args.seconds:
                break
        traced = None
        if args.trace:
            traced, _ = runner.child(*pass_args, "--trace",
                                     "--spans", str(out_dir / f"spans-{tag}.npz"))
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    misses = sorted({m for p in passes for m in p["misses"]})
    attempted = passes[0]["attempted"]
    failed = max(p["failed"] for p in passes)
    run_s = statistics.median([p["run_s"] for p in passes])
    if traced is None:
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "run_s": run_s,
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
    else:
        layers = {**traced["layers"], "trace.untraced_run_s": run_s,
                  "trace.overhead_frac": traced["run_s"] / run_s - 1.0}
        metrics = {name: layers[name] for name, _, _ in PER_LAYER}
        failed = max(failed, traced["failed"])
        misses += [f"traced pass: {m}" for m in traced["misses"]]
        misses += check_counts(out_dir, refs, args.workload, args.tiny, metrics,
                               source_hash(root))
        units = {name: unit for name, unit, _ in PER_LAYER}
    correct = not misses

    env = {k: runner.env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "PYTHONHASHSEED")}
    fingerprint = {**passes[0]["fingerprint"], "nproc": len(os.sched_getaffinity(0)),
                   "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
                   "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"), "env": env,
                   "workload": args.workload, "seed": args.seed,
                   "params": W.params_for(args.workload, args.tiny),
                   "machine": platform.machine()}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (out_dir / f"run-{tag}.json").write_text(json.dumps(
        {**result, "misses": misses, "fingerprint": fingerprint, "setup_walls": setup_walls,
         "passes": [{k: p[k] for k in ("run_s", "peak_rss_mb", "failed", "ops")}
                    for p in passes]},
        indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"fingerprint={json.dumps(fingerprint, sort_keys=True)}")
    for line in W.summary(args.workload, passes[0]["ops"]):
        print(f"# {line}")
    for m in misses:
        print(f"# MISS {m}")
    for k, v in metrics.items():
        print(f"# {k:28s} {v:.6g} {units[k]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
