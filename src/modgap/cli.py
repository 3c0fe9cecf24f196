"""Command-line orchestration: config parsing, pipelines, report emission.

Exit codes: 0 all executed assertions pass, 1 an assertion failed (report
still written), 2 the configuration is invalid (diagnostics name the
field). Artifacts are deterministic for a fixed config and seed, except
for wall-time fields, which are observability data.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import sys
import time

import numpy as np

from . import __version__
from .decouple import (
    decoupled_upper_bound,
    enumerate_etas,
    fit_decoupling_constant,
    flatness_ratio,
    inner_slots,
    make_context,
    verify_domination,
)
from .errors import ConfigError, Guards, ModgapError
from .measures import MeasureParams, build_mu, build_mu1, build_nu
from .modgroup import factorize, get_group, group_order, new_space_dimension
from .spectral import (
    SUBSPACES,
    ConvOperator,
    LemmaExpandTester,
    digit_difference_quotients,
    eta_gap,
    letter_pair_quotients,
    main_sweep,
    nu_autocorrelation,
    operator_norm,
    trace_identity_check,
    write_sweep_csv,
    zariski_check,
)
from .symdyn import build_system, estimate_delta, schottky_system

_CONFIG_FIELDS = {
    "system": dict,
    "q_list": list,
    "a": (float, int, str),
    "b": (float, int),
    "M": int,
    "prefix": list,
    "L": int,
    "R_prime": int,
    "base_point": (float, int, str),
    "x": (float, int, type(None)),
    "tol": float,
    "max_iter": int,
    "seed": int,
    "delta_n": int,
    "delta_tol": float,
    "r_log_coeff": (float, int),
    "r_prime_min": int,
    "r_max": int,
    "measure": str,
    "subspace": str,
    "n_draws": int,
    "guards": dict,
}


@dataclasses.dataclass
class RunConfig:
    system: dict
    q_list: list
    a: object = "auto"
    b: float = 1.0
    M: int = 0
    prefix: list = dataclasses.field(default_factory=list)
    L: int = 2
    R_prime: int = 2
    base_point: object = "midpoint"
    x: object = None
    tol: float = 1e-8
    max_iter: int = 5000
    seed: int = 7
    delta_n: int = 10
    delta_tol: float = 1e-4
    r_log_coeff: float = 2.2
    r_prime_min: int = 2
    r_max: int = 12
    measure: str = "mu"
    subspace: str = "new_space"
    n_draws: int = 250
    guards: Guards = Guards()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @property
    def base(self) -> float | None:
        """The positive majorants' reference point; None is the system's."""
        return None if self.base_point == "midpoint" else float(self.base_point)


_BUILDERS = {"mu": build_mu, "mu1": build_mu1, "nu": build_nu}


def default_config() -> dict:
    return {
        "system": {"mode": "zaremba", "digits": [1, 2], "base_point": "midpoint"},
        "q_list": [4, 5, 7, 8, 9, 11, 13, 16],
    }


def validate_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    for key, val in raw.items():
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown field {key!r}", field=key)
        # no field takes a boolean: JSON true would otherwise pass as int 1
        if isinstance(val, bool) or not isinstance(val, _CONFIG_FIELDS[key]):
            raise ConfigError(
                f"field {key!r} has wrong type {type(val).__name__}", field=key
            )
    guards = raw.get("guards", {})
    guard_names = {f.name for f in dataclasses.fields(Guards)}
    for g, val in guards.items():
        if g not in guard_names:
            raise ConfigError(f"unknown guard guards.{g}", field="guards")
        if isinstance(val, bool) or not isinstance(val, int) or val <= 0:
            raise ConfigError(f"guards.{g} must be a positive integer", field="guards")
    cfg = RunConfig(**{**default_config(), **raw, "guards": Guards(**guards)})

    try:
        build_system(cfg.system)
    except ValueError as e:
        raise ConfigError(str(e), field="system") from None
    if cfg.a != "auto":
        if not isinstance(cfg.a, (int, float)) or not 0.0 < float(cfg.a) < 1.0:
            raise ConfigError("a must be 'auto' or a number in (0, 1)", field="a")
    if cfg.L < 2:
        raise ConfigError(f"L must be >= 2 (got {cfg.L})", field="L")
    if cfg.R_prime < 1:
        raise ConfigError("R_prime must be >= 1", field="R_prime")
    if cfg.M < 0:
        raise ConfigError("M must be >= 0", field="M")
    if cfg.M == 0 and cfg.prefix:
        cfg.M = len(cfg.prefix)
    elif cfg.M != len(cfg.prefix):
        raise ConfigError(
            "M disagrees with the prefix length (give the prefix letter ids)",
            field="M",
        )
    if not cfg.q_list or any(not isinstance(q, int) or q < 2 for q in cfg.q_list):
        raise ConfigError("q_list must hold integers >= 2", field="q_list")
    for name in ("b", "r_log_coeff", "x", "base_point", "tol", "delta_tol"):
        val = getattr(cfg, name)
        if isinstance(val, float) and not math.isfinite(val):  # JSON NaN and +-Infinity
            raise ConfigError(f"{name} must be finite", field=name)
    for name in ("tol", "max_iter", "delta_tol", "delta_n", "n_draws", "r_max", "r_prime_min"):
        if not getattr(cfg, name) > 0:  # NaN too
            raise ConfigError(f"{name} must be positive", field=name)
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0", field="seed")
    if cfg.measure not in _BUILDERS:
        raise ConfigError("measure must be mu, mu1, or nu", field="measure")
    if cfg.subspace not in SUBSPACES:
        raise ConfigError(f"subspace must be one of {', '.join(SUBSPACES)}", field="subspace")
    return cfg


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    if path is None:
        raw = {}
    else:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    for k, v in (overrides or {}).items():
        if v is not None:
            raw[k] = v
    return validate_config(raw)


def resolve_a(cfg: RunConfig, spec) -> float:
    if cfg.a == "auto":
        return estimate_delta(spec, cfg.delta_n, cfg.delta_tol, guard=cfg.guards.max_words)
    return float(cfg.a)


def measure_params(cfg: RunConfig, spec, q: int, r_len: int, a: float) -> MeasureParams:
    return MeasureParams(
        spec=spec,
        q=q,
        s=complex(a, cfg.b),
        r_len=r_len,
        prefix=tuple(cfg.prefix),
        x=None if cfg.x is None else float(cfg.x),
        base=cfg.base,
        guards=cfg.guards,
    )


# ---------------------------------------------------------------------------
# report plumbing


def _fingerprint() -> dict:
    return {
        "modgap": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def emit_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=float)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report(cfg: RunConfig, checks: list, constants=None, t0=None) -> dict:
    return {
        "config": cfg.to_dict(),
        "checks": checks,
        "constants": constants or {},
        "fingerprint": _fingerprint(),
        "wall_seconds": None if t0 is None else time.perf_counter() - t0,
    }


def _check(name: str, passed: bool | None, **details) -> dict:
    status = "skip" if passed is None else ("pass" if passed else "fail")
    return {"name": name, "status": status, **details}


def _passed(checks: list) -> bool:
    """A run fails on a failed check only; a skipped check examined nothing."""
    return all(c["status"] != "fail" for c in checks)


# ---------------------------------------------------------------------------
# subcommands


def cmd_group_info(cfg: RunConfig, args) -> tuple[bool, dict]:
    checks = []
    for q in cfg.q_list:
        t = get_group(q, cfg.guards.max_q)
        dim = new_space_dimension(q)
        print(f"q={q} order={t.order} dim_Eq={dim}")
        checks.append(
            _check(f"group-info q={q}", t.order == group_order(q), order=t.order, dim_Eq=dim)
        )
        if args.out and len(cfg.q_list) == 1:
            t.to_csv(args.out)
    return _passed(checks), _report(cfg, checks)


def cmd_delta_estimate(cfg: RunConfig, args) -> tuple[bool, dict]:
    spec = build_system(cfg.system)
    n_hi = cfg.delta_n
    n_lo = max(2, n_hi // 2)
    d_hi = estimate_delta(spec, n_hi, cfg.delta_tol, guard=cfg.guards.max_words)
    d_lo = estimate_delta(spec, n_lo, cfg.delta_tol, guard=cfg.guards.max_words)
    agree = abs(d_hi - d_lo) <= 0.005
    print(f"delta_hat={d_hi:.6f} (n={n_hi}, tol={cfg.delta_tol})")
    print(f"delta_hat={d_lo:.6f} (n={n_lo}); agreement {abs(d_hi - d_lo):.6f}")
    checks = [
        _check("delta two-length agreement", agree, n_hi=n_hi, n_lo=n_lo,
               delta_hi=d_hi, delta_lo=d_lo)
    ]
    return agree, _report(cfg, checks)


def cmd_build_measure(cfg: RunConfig, args) -> tuple[bool, dict]:
    spec = build_system(cfg.system)
    a = resolve_a(cfg, spec)
    q = cfg.q_list[0]
    r_len = cfg.L * cfg.R_prime
    p = measure_params(cfg, spec, q, r_len, a)
    m = _BUILDERS[cfg.measure](p)
    out = args.out or f"measure_{cfg.measure}_q{q}.csv"
    m.to_csv(out)
    print(f"{cfg.measure} q={q} R={r_len}: support={m.n_support} l1={m.l1:.9g} -> {out}")
    checks = [_check("build-measure", True, q=q, r_len=r_len, l1=m.l1,
                     support=m.n_support, out=out)]
    return True, _report(cfg, checks)


def cmd_decouple_verify(cfg: RunConfig, args) -> tuple[bool, dict]:
    t0 = time.perf_counter()
    spec = build_system(cfg.system)
    a = resolve_a(cfg, spec)
    fitted = fit_decoupling_constant(spec, a, cfg.base)
    checks = []
    worst_violation = 0.0
    histogram = None
    for q in cfg.q_list:
        p = measure_params(cfg, spec, q, cfg.L * cfg.R_prime, a)
        mu1 = build_mu1(p)
        bound, brep = decoupled_upper_bound(
            spec, q, a, cfg.L, cfg.R_prime, fitted, base=cfg.base, guards=cfg.guards
        )
        dom = verify_domination(mu1, bound)
        worst_violation = max(worst_violation, dom.max_violation)
        histogram = dom.slack_histogram
        checks.append(
            _check(
                f"domination q={q} L={cfg.L} R'={cfg.R_prime}",
                dom.passed,
                n_violations=dom.n_violations,
                min_slack=dom.min_slack_factor,
                mass_ratio=dom.mass_ratio,
                scale=brep.scale,
            )
        )
    K = flatness_ratio(spec, a, cfg.L, cfg.base)
    constants = {
        "fitted_c": fitted.c_scale,
        "c_impl": fitted.c_impl,
        "gamma_per_letter": fitted.gamma_per_letter,
        "K": K,
        "max_violation": worst_violation,
        "slack_histogram": histogram,
    }
    return _passed(checks), _report(cfg, checks, constants, t0)


def cmd_opnorm(cfg: RunConfig, args) -> tuple[bool, dict]:
    spec = build_system(cfg.system)
    a = resolve_a(cfg, spec)
    q = cfg.q_list[0]
    p = measure_params(cfg, spec, q, cfg.L * cfg.R_prime, a)
    m = _BUILDERS[cfg.measure](p)
    rep = operator_norm(
        ConvOperator(m, cfg.subspace), tol=cfg.tol, max_iter=cfg.max_iter, seed=cfg.seed
    )
    print(
        f"q={q} {cfg.subspace} dim={rep.subspace_dim}: norm={rep.norm:.9g} "
        f"l1={rep.l1:.9g} gap={rep.rel_gap:.6f} iters={rep.iters} solved={rep.solved} "
        f"block={rep.block}"
    )
    checks = [_check("opnorm", rep.converged, **dataclasses.asdict(rep))]
    return rep.converged, _report(cfg, checks)


def cmd_verify_lemmas(cfg: RunConfig, args) -> tuple[bool, dict]:
    t0 = time.perf_counter()
    spec = build_system(cfg.system)
    a = resolve_a(cfg, spec)
    rng = np.random.default_rng(cfg.seed)
    checks = []
    constants = {}

    # weighted expansion over randomized coefficient draws
    draws_failed = 0
    c0s = {}
    for q in cfg.q_list:
        t = get_group(q, cfg.guards.max_q)
        tester = LemmaExpandTester(t, letter_pair_quotients(spec, t))
        c0s[q] = tester.c0
        for _ in range(max(1, cfg.n_draws // len(cfg.q_list))):
            kap = 1.0 + 0.2 * rng.random(len(tester.elements))
            if not tester.check(kap).passed:
                draws_failed += 1
        spike = np.ones(len(tester.elements))
        spike[int(rng.integers(len(spike)))] = 25.0
        if not tester.check(spike).passed:
            draws_failed += 1
    checks.append(_check("weighted expansion draws", draws_failed == 0,
                         failed=draws_failed, c0=c0s))

    # per-block gaps
    worst_c1 = {}
    for q in cfg.q_list:
        worst_c1[q] = min(
            eta_gap(e, tol=cfg.tol).c1
            for e in enumerate_etas(spec, q, a, cfg.L, base=cfg.base, guards=cfg.guards)
        )
    checks.append(
        _check("per-block gap positive", all(v > 0 for v in worst_c1.values()),
               min_c1=worst_c1)
    )

    # trace identity on small groups
    dense = cfg.guards.dense_oracle
    small_q = [q for q in cfg.q_list if group_order(q) <= dense]
    for q in small_q:
        p = measure_params(cfg, spec, q, cfg.L * cfg.R_prime, a)
        tr = trace_identity_check(build_mu1(p), nu=build_nu(p), guard=dense)
        checks.append(
            _check(f"trace identity q={q}", tr.trace_rel_err <= 1e-8,
                   rel_err=tr.trace_rel_err, multiplicity=tr.multiplicity,
                   cprime=tr.cprime)
        )
    if not small_q:
        checks.append(_check("trace identity", None, dense_oracle=dense))

    # autocorrelation threshold
    min_rs = {}
    for q in cfg.q_list:
        p = measure_params(cfg, spec, q, 1, a)
        ac = nu_autocorrelation(p, r_max=cfg.r_max)
        min_rs[q] = ac.minimal_r
    checks.append(
        _check("autocorrelation threshold reached",
               all(v is not None for v in min_rs.values()), minimal_r=min_rs)
    )
    constants["minimal_r"] = min_rs

    return _passed(checks), _report(cfg, checks, constants, t0)


def cmd_sweep_q(cfg: RunConfig, args) -> tuple[bool, dict]:
    t0 = time.perf_counter()
    spec = build_system(cfg.system)
    a = resolve_a(cfg, spec)
    rows, alpha = main_sweep(
        spec,
        cfg.q_list,
        a,
        b=cfg.b,
        L=cfg.L,
        c_log=cfg.r_log_coeff,
        r_prime_min=cfg.r_prime_min,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        seed=cfg.seed,
        guards=cfg.guards,
        jobs=args.jobs,
    )
    out = args.out or "sweep.csv"
    write_sweep_csv(rows, out)
    for r in rows:
        if r.skipped_reason:
            print(f"q={r.q}: skipped ({r.skipped_reason})")
        else:
            print(
                f"q={r.q} R={r.r_used} ratio={r.ratio:.6f} "
                f"q^-1/4={r.q ** -0.25:.4f} gap={1 - r.ratio:.4f}"
            )
    non_sf = [r for r in rows if _not_squarefree(r.q)]
    swept = [r for r in non_sf if not r.skipped_reason]
    alpha_ok = None if alpha is None else alpha >= 0.15  # no fit from fewer than two moduli
    print(f"alpha={alpha}")
    gap_details = {"moduli": [r.q for r in swept]}
    if not swept:
        gap_details["skipped"] = [r.q for r in non_sf]
    checks = [
        _check("decay exponent >= 0.15", alpha_ok, alpha=alpha),
        _check("positive gap at non-square-free moduli",
               all(r.ratio < 1.0 for r in swept) if swept else None, **gap_details),
    ]
    max_block = {str(r.q): r.max_block for r in rows if not r.skipped_reason}
    solved = {str(r.q): r.solved for r in rows if not r.skipped_reason}
    constants = {"alpha": alpha, "csv": out, "max_block": max_block, "solved": solved}
    return _passed(checks), _report(cfg, checks, constants, t0)


def _not_squarefree(q: int) -> bool:
    return any(e > 1 for _, e in factorize(q))


def cmd_schottky_check(cfg: RunConfig, args) -> tuple[bool, dict]:
    spec = schottky_system() if cfg.system.get("mode") != "schottky" else build_system(cfg.system)
    q = cfg.q_list[0]
    t = get_group(q, cfg.guards.max_q)
    checks = []

    # degenerate context: upper outer ends in g, lower outer starts with its inverse
    ctx = make_context(spec, q, 4, 2, [(1, 3), (3, 0)], 0.3)
    pairs = inner_slots(ctx, 2)
    labels = sorted("".join(spec.letters[k].label for k in p) for p in pairs)
    expected = sorted(["gh", "gH", "hG", "hh", "HG", "HH"])
    checks.append(_check("degenerate inner-pair set", labels == expected,
                         pairs=labels, expected=expected))

    zspec = build_system({"mode": "zaremba", "digits": [1, 2]})
    ok_pairs, size_pairs = zariski_check(t, letter_pair_quotients(zspec, t))
    checks.append(_check("block pairs generate full group", ok_pairs, order=size_pairs))
    ok_lt, size_lt = zariski_check(t, digit_difference_quotients([1, 2], q, t))
    checks.append(
        _check("lower-triangular set rejected", not ok_lt, subgroup_order=size_lt)
    )
    for c in checks:
        print(f"{c['name']}: {c['status']}")
    return _passed(checks), _report(cfg, checks)


_SUBCOMMANDS = {
    "group-info": cmd_group_info,
    "delta-estimate": cmd_delta_estimate,
    "build-measure": cmd_build_measure,
    "decouple-verify": cmd_decouple_verify,
    "opnorm": cmd_opnorm,
    "verify-lemmas": cmd_verify_lemmas,
    "sweep-q": cmd_sweep_q,
    "schottky-check": cmd_schottky_check,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="modgap",
        description="congruence transfer measures and spectral gaps on SL2(Z/q)",
    )
    ap.add_argument("command", choices=sorted(_SUBCOMMANDS))
    ap.add_argument("--config", help="JSON config path")
    ap.add_argument("--out", help="artifact output path (CSV or JSON per command)")
    ap.add_argument("--report", help="write the run report JSON here")
    ap.add_argument("--q", help="comma-separated modulus list override")
    ap.add_argument("--digits", help="comma-separated digit alphabet override")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--jobs", type=int, default=1)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.q:
        try:
            overrides["q_list"] = [int(v) for v in args.q.split(",")]
        except ValueError:
            print("config error: field 'q_list': --q must be comma-separated integers",
                  file=sys.stderr)
            return 2
    if args.digits:
        try:
            overrides["system"] = {
                "mode": "zaremba",
                "digits": [int(v) for v in args.digits.split(",")],
            }
        except ValueError:
            print("config error: field 'system': --digits must be comma-separated integers",
                  file=sys.stderr)
            return 2
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as e:
        field = f" field {e.field!r}:" if e.field else ""
        print(f"config error:{field} {e}", file=sys.stderr)
        return 2

    try:
        ok, report = _SUBCOMMANDS[args.command](cfg, args)
    except ModgapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.report:
        emit_report(report, args.report)
    if not ok:
        print("FAIL", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
