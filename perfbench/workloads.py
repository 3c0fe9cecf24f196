"""The benchmark's three workloads, their parameters and their output checks.

Every workload calls modgap through module attributes (``spectral.main_sweep``,
``decouple.build_eta``, ...), so the wrappers that ``tracing.install`` puts on
those attributes are the ones that run. The parameters are fixed. The
workload seed only sets the order of the eta-gaps groups and of the
decouple-chain cases, so every seed does the same work, yields the same
outputs and repeats the same counts. The sweep runs its ladder in ascending
order, as `sweep-q` is given it: its peak resident set depends on the order
through the allocator's history (about 284 MB with q=19 first, 305 MB last).
"""

from __future__ import annotations

import random

A_CRIT = 0.5322  # the acceptance suite's weight exponent, near delta({1,2})
SYSTEM = {"mode": "zaremba", "digits": [1, 2], "base_point": "midpoint"}
SETUP = {"delta_n": 10, "delta_tol": 1e-4}  # the CLI defaults for a = "auto"

# Relative tolerance on every norm checked against a pinned reference. The
# seed's stagnation-stopped power iteration sits within ~1e-6 of the exact
# norm; at tol=1e-4 it misses by ~1e-4 at q=13, which this must catch.
NORM_RTOL = 1e-5
# Deterministic quantities (mass ratios, flatness constants) that a change of
# summation order may move in the last digits only.
EXACT_RTOL = 1e-9

PARAMS = {
    "sweep-ladder": {
        "q": [8, 13, 16, 19], "a": A_CRIT, "b": 1.0, "L": 2, "c_log": 2.2,
        "r_prime_min": 2, "tol": 1e-8, "seed": 7,
    },
    "eta-gaps": {
        "L": [2, 3], "q": [4, 5, 7, 8, 9, 11, 13, 16], "a": A_CRIT, "base": 0.0,
        "r_prime": 2, "tol": 1e-8, "seed": 7,
    },
    "decouple-chain": {
        "q": [8, 13, 16], "LR": [[3, 3], [2, 4]], "flat_L": [2, 3, 4, 5],
        "a": A_CRIT, "base": 0.0,
    },
}

# A few seconds per workload, for the smoke test; references are subsets of
# the full ones.
TINY = {
    "sweep-ladder": {"q": [8, 13]},
    "eta-gaps": {"L": [2], "q": [4, 5]},
    "decouple-chain": {"q": [8], "LR": [[2, 4]], "flat_L": [2, 3]},
}

NAMES = tuple(PARAMS)


def params_for(name: str, tiny: bool = False) -> dict:
    p = dict(PARAMS[name])
    if tiny:
        p.update(TINY[name])
    return p


def _err(e: BaseException) -> str:
    return f"{type(e).__name__}: {e}"


def run_sweep_ladder(mg, spec, p, rng):
    """One `sweep-q` call over the ladder; one operation per modulus."""
    qs = list(p["q"])
    try:
        rows, _ = mg.spectral.main_sweep(
            spec, qs, p["a"], b=p["b"], L=p["L"], c_log=p["c_log"],
            r_prime_min=p["r_prime_min"], tol=p["tol"], seed=p["seed"], jobs=1,
        )
    except Exception as e:  # the whole call is lost: every modulus fails
        return [{"key": f"q={q}", "q": q, "error": _err(e)} for q in qs]
    return [
        {"key": f"q={r.q}", "q": r.q, "norm": r.opnorm_eq, "iters": r.iters,
         "group_order": r.group_order, "seconds": r.seconds, "error": r.skipped_reason or None}
        for r in rows
    ]


def run_eta_gaps(mg, spec, p, rng):
    """Mean-zero gap of every deduplicated per-block measure (the C07 table);
    one operation per measure, grouped by (L, q)."""
    groups = [(L, q) for L in p["L"] for q in p["q"]]
    rng.shuffle(groups)
    out = []
    for L, q in groups:
        rec = {"key": f"L={L},q={q}", "L": L, "q": q, "c1": [], "iters": [], "errors": []}
        try:
            for eta in mg.decouple.enumerate_etas(
                spec, q, p["a"], L, r_prime=p["r_prime"], base=p["base"]
            ):
                try:
                    rep = mg.spectral.eta_gap(eta, tol=p["tol"], seed=p["seed"])
                except Exception as e:
                    rec["errors"].append(_err(e))
                    continue
                rec["c1"].append(rep.c1)
                rec["iters"].append(rep.iters)
        except Exception as e:  # enumeration itself broke off
            rec["errors"].append(_err(e))
        out.append(rec)
    return out


def run_decouple_chain(mg, spec, p, rng):
    """Fitted decoupling constant, then domination checks and flatness
    values; one operation per check and per value."""
    a, base = p["a"], p["base"]
    cases = [(q, L, R) for q in p["q"] for L, R in p["LR"]]
    rng.shuffle(cases)
    flat_L = list(p["flat_L"])
    rng.shuffle(flat_L)
    out = []
    try:
        fitted = mg.decouple.fit_decoupling_constant(spec, a, base=base)
    except Exception as e:
        fitted, fit_error = None, _err(e)
    for q, L, R in cases:
        rec = {"key": f"dom q={q},L={L},R'={R}", "kind": "domination", "q": q, "L": L, "R": R}
        if fitted is None:
            rec["error"] = fit_error
            out.append(rec)
            continue
        try:
            mp = mg.measures.MeasureParams(spec=spec, q=q, s=a, r_len=L * R, base=base)
            mu1 = mg.measures.build_mu1(mp)
            bound, brep = mg.decouple.decoupled_upper_bound(spec, q, a, L, R, fitted, base=base)
            dom = mg.decouple.verify_domination(mu1, bound)
        except Exception as e:
            rec["error"] = _err(e)
        else:
            rec.update(n_violations=dom.n_violations, mass_ratio=dom.mass_ratio,
                       n_contexts=brep.n_contexts, error=None)
        out.append(rec)
    for L in flat_L:
        rec = {"key": f"flat L={L}", "kind": "flatness", "L": L}
        try:
            rec.update(K=mg.decouple.flatness_ratio(spec, a, L, base=base), error=None)
        except Exception as e:
            rec["error"] = _err(e)
        out.append(rec)
    return out


def summary(name, ops):
    """One line per operation group, for the run's human-readable output."""
    if name == "sweep-ladder":
        return [f"q={op['q']} |G|={op.get('group_order')} iters={op.get('iters')} "
                f"seconds={op.get('seconds') or 0:.3f} norm={op.get('norm')}"
                for op in sorted(ops, key=lambda op: op["q"])]
    if name == "eta-gaps":
        return [f"{op['key']} measures={len(op['c1'])} min_c1={min(op['c1'], default=0):.6f} "
                f"iters={sum(op['iters'])}" for op in sorted(ops, key=lambda op: (op["L"], op["q"]))]
    return [f"{op['key']} " + " ".join(f"{k}={op[k]}" for k in
                                       ("n_violations", "mass_ratio", "n_contexts", "K")
                                       if k in op) for op in ops]


RUNNERS = {
    "sweep-ladder": run_sweep_ladder,
    "eta-gaps": run_eta_gaps,
    "decouple-chain": run_decouple_chain,
}


def run(name, mg, spec, p, seed):
    return RUNNERS[name](mg, spec, p, random.Random(seed))


# ---------------------------------------------------------------------------
# checks against the pinned references


def _close(x, ref, rtol):
    return x is not None and abs(x - ref) <= rtol * abs(ref)


def check(name, ops, refs):
    """Compare a workload's outputs with its pinned references.

    Returns (attempted, failed, misses, norm_rel_err_max); each miss is a
    one-line reason naming the operation.
    """
    ref = refs[name]
    misses = []
    rel_errs = []
    attempted = 0
    if name == "sweep-ladder":
        for op in ops:
            attempted += 1
            r = ref[str(op["q"])]
            if op.get("error"):
                misses.append(f"{op['key']}: {op['error']}")
                continue
            rel = abs(op["norm"] - r["norm"]) / r["norm"]
            rel_errs.append(rel)
            if rel > NORM_RTOL:
                misses.append(f"{op['key']}: norm {op['norm']!r} vs reference "
                              f"{r['norm']!r} (rel {rel:.2e} > {NORM_RTOL:g})")
    elif name == "eta-gaps":
        for op in ops:
            r = ref[op["key"]]
            attempted += max(len(op["c1"]) + len(op["errors"]), r["n"])
            misses += [f"{op['key']}: {e}" for e in op["errors"]]
            misses += [f"{op['key']}: c1={c:.3g} is not positive" for c in op["c1"] if not c > 0]
            if len(op["c1"]) + len(op["errors"]) != r["n"]:
                misses.append(f"{op['key']}: {len(op['c1'])} measures, reference {r['n']}")
            if op["c1"]:
                # 1 - c1 is the norm-to-mass ratio, so this is its relative error
                err = abs(min(op["c1"]) - r["min_c1"]) / (1.0 - r["min_c1"])
                rel_errs.append(err)
                if err > NORM_RTOL:
                    misses.append(f"{op['key']}: min c1 {min(op['c1'])!r} vs reference "
                                  f"{r['min_c1']!r}")
    else:
        for op in ops:
            attempted += 1
            if op.get("error"):
                misses.append(f"{op['key']}: {op['error']}")
                continue
            if op["kind"] == "domination":
                r = ref["domination"][f"q={op['q']},L={op['L']},R'={op['R']}"]
                if op["n_violations"]:
                    misses.append(f"{op['key']}: {op['n_violations']} domination violations")
                elif op["n_contexts"] != r["n_contexts"]:
                    misses.append(f"{op['key']}: {op['n_contexts']} contexts, "
                                  f"reference {r['n_contexts']}")
                elif not _close(op["mass_ratio"], r["mass_ratio"], EXACT_RTOL):
                    misses.append(f"{op['key']}: mass ratio {op['mass_ratio']!r} vs "
                                  f"reference {r['mass_ratio']!r}")
            else:
                r = ref["flatness"][f"L={op['L']}"]
                if not _close(op["K"], r, EXACT_RTOL):
                    misses.append(f"{op['key']}: K {op['K']!r} vs reference {r!r}")
    failed = min(len(misses), attempted)
    return attempted, failed, misses, max(rel_errs, default=0.0)
