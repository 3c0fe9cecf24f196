"""Regenerate the pinned references in refs.json by routes independent of
the power-iteration engine the workloads time.

    PYTHONPATH=src python3 perfbench/regen_refs.py [--part sweep|eta|decouple|counts ...]

* sweep-ladder: the E_q norm per modulus as the square root of the top
  eigenvalue of the dense, projected autocorrelation operator (one full
  Hermitian eigen-solve), cross-checked against `spectral.dense_operator_norm`
  (full SVD) where that oracle's guard allows.
* eta-gaps: per (L, q), the number of deduplicated per-block measures and
  the minimum mean-zero gap c1, from dense eigen-solves of the candidates
  the power iteration ranks lowest.
* decouple-chain: the bound-to-mu1 mass ratio from the mass identity
  scale * sum_contexts prod_j |eta_j| / Z_R(a) (no convolution), the context
  count per_slot^R', and the flatness constant K per L.
* counts: the exact-count metrics of one traced run per workload, keyed by
  a hash of src/modgap, so later traced runs of the same source must repeat
  them.

The sweep part needs ~1.6 GB for the q=19 eigen-solve.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from modgap import decouple, measures, spectral, symdyn  # noqa: E402
from modgap.modgroup import NewSpaceProjector, factorize, get_group  # noqa: E402

REFS = HERE / "refs.json"
DENSE_CANDIDATES = 8


def _top_eig(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(h)[-1])


def dense_new_space_norm(mu) -> float:
    """sqrt of the top eigenvalue of P K P, K the Cayley matrix of
    reverse(mu)*mu and P the projector onto E_q."""
    t = mu.table
    n = t.order
    kappa = mu.reverse().convolve(mu)
    K = spectral.dense_conv_matrix(kappa, guard=n)
    if len(factorize(t.q)) == 1 and factorize(t.q)[0][1] == 1:
        # prime q: E_q is the mean-zero space, and K commutes with the
        # all-ones matrix J (K J = J K = sum(kappa) J), so P K P = K - sum/n J
        K -= kappa.coeffs.sum() / n
    else:
        P = NewSpaceProjector(t).apply_columns(np.eye(n))
        K = P @ K @ P
    return math.sqrt(max(_top_eig(K), 0.0))


def dense_mean_zero_norm(measure) -> float:
    """Top singular value of M P on mean-zero functions; M P = M - s J / n."""
    n = measure.table.order
    M = spectral.dense_conv_matrix(measure, guard=n)
    A = M - measure.coeffs.sum().real / n
    return math.sqrt(max(_top_eig(A.T @ A), 0.0))


def part_sweep(spec):
    p = W.PARAMS["sweep-ladder"]
    out = {}
    for q in p["q"]:
        t0 = time.perf_counter()
        r_len = spectral.sweep_r_length(q, p["L"], p["c_log"], p["r_prime_min"])
        mu = measures.build_mu(measures.MeasureParams(
            spec=spec, q=q, s=complex(p["a"], p["b"]), r_len=r_len))
        norm = dense_new_space_norm(mu)
        rec = {"norm": norm, "group_order": mu.table.order, "r_len": r_len,
               "method": "eigvalsh of dense P K P"}
        if mu.table.order <= spectral.DENSE_GUARD:
            svd = spectral.dense_operator_norm(mu, "new_space")
            rec["svd_norm"] = svd
            if abs(svd - norm) > 1e-10 * norm:
                raise SystemExit(f"q={q}: eigen route {norm!r} and SVD route {svd!r} disagree")
        out[str(q)] = rec
        print(f"sweep q={q} |G|={mu.table.order} norm={norm!r} "
              f"({time.perf_counter() - t0:.1f}s)", flush=True)
    return out


def part_eta(spec):
    p = W.PARAMS["eta-gaps"]
    out = {}
    for L in p["L"]:
        for q in p["q"]:
            t0 = time.perf_counter()
            etas = list(decouple.enumerate_etas(spec, q, p["a"], L, r_prime=p["r_prime"],
                                                base=p["base"]))
            c1_iter = [spectral.eta_gap(e, tol=p["tol"], seed=p["seed"]).c1 for e in etas]
            order = np.argsort(c1_iter)[:DENSE_CANDIDATES]
            dense = [1.0 - dense_mean_zero_norm(etas[i].measure) / etas[i].measure.l1
                     for i in order]
            out[f"L={L},q={q}"] = {"n": len(etas), "min_c1": min(dense),
                                   "method": f"dense eigvalsh over the {len(order)} "
                                             "lowest-ranked measures"}
            print(f"eta L={L} q={q} n={len(etas)} min_c1={min(dense)!r} "
                  f"iter_min={min(c1_iter)!r} ({time.perf_counter() - t0:.1f}s)", flush=True)
    return out


def part_decouple(spec):
    p = W.PARAMS["decouple-chain"]
    a, base = p["a"], p["base"]
    fitted = decouple.fit_decoupling_constant(spec, a, base=base)
    dom = {}
    for q in p["q"]:
        table = get_group(q)
        for L, R in p["LR"]:
            contexts = decouple.enumerate_contexts(spec, L, R)
            mass = 0.0
            for outer in contexts:
                ctx = decouple.make_context(spec, q, L, R, outer, a, base)
                mass += math.prod(decouple.build_eta(ctx, j, table).measure.l1
                                  for j in range(1, R + 1))
            ratio = fitted.per_block_cost(L) ** (R - 1) * mass / symdyn.partition_sum(
                spec, L * R, a, x=base)
            n_ctx = symdyn.count_admissible(spec, L - spec.block_width) ** R
            if len(contexts) != n_ctx:
                raise SystemExit(f"q={q} L={L}: {len(contexts)} contexts, expected {n_ctx}")
            dom[f"q={q},L={L},R'={R}"] = {"mass_ratio": ratio, "n_contexts": n_ctx}
            print(f"dom q={q} L={L} R'={R} ratio={ratio!r}", flush=True)
    flat = {f"L={L}": decouple.flatness_ratio(spec, a, L, base=base) for L in p["flat_L"]}
    return {"domination": dom, "flatness": flat,
            "method": "mass identity without convolution; K from flatness_ratio"}


def part_counts():
    """Counts of one traced run per workload, recorded by run.py itself."""
    import run as R

    out = {"source_sha256": R.source_hash(ROOT)}
    for name in W.NAMES:
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        metrics = json.loads(res.stdout.strip().splitlines()[-1])["metrics"]
        out[name] = {k: metrics[k]["value"] for k in R.COUNT_METRICS}
        print(name, out[name], flush=True)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--part", action="append",
                    choices=["sweep", "eta", "decouple", "counts"])
    args = ap.parse_args()
    builders = {"sweep": ("sweep-ladder", part_sweep), "eta": ("eta-gaps", part_eta),
                "decouple": ("decouple-chain", part_decouple), "counts": ("counts", None)}
    parts = sorted(set(args.part or builders), key=list(builders).index)
    refs = json.loads(REFS.read_text()) if REFS.exists() else {}
    refs["regenerated_by"] = "PYTHONPATH=src python3 perfbench/regen_refs.py"
    refs["tolerances"] = {"norm_rtol": W.NORM_RTOL, "exact_rtol": W.EXACT_RTOL}
    spec = symdyn.build_system(W.SYSTEM)
    refs["setup"] = {"delta": symdyn.estimate_delta(spec, W.SETUP["delta_n"],
                                                    W.SETUP["delta_tol"])}
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    for part in parts:
        key, fn = builders[part]
        # counts come from run.py, which reads the references written so far
        refs[key] = part_counts() if fn is None else fn(spec)
        REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
