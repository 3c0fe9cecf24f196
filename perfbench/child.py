"""One measured process: set-up, one workload pass, output checks.

    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py --workload NAME --seed N [--trace] [--tiny]
        [--refs PATH] [--spans PATH]

run.py starts it with PYTHONPATH pointing at the checkout's src/, so every
pass starts with modgap's caches empty, as a CLI run does. Set-up is what
every `a: "auto"` run pays: import modgap, build the system spec, estimate
the critical exponent at the CLI defaults. The workload then runs at the
fixed a = A_CRIT. The last stdout line is a JSON record for run.py.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def setup(tracer=None):
    import modgap
    from modgap import decouple, measures, modgroup, spectral, symdyn

    src = (HERE.parent / "src").resolve()
    if src not in Path(modgap.__file__).resolve().parents:
        raise SystemExit(f"modgap imported from {modgap.__file__}, not from {src}")
    mg = types.SimpleNamespace(symdyn=symdyn, modgroup=modgroup, measures=measures,
                               decouple=decouple, spectral=spectral, modgap=modgap)
    if tracer is not None:
        tracer.install(mg)
    spec = symdyn.build_system(W.SYSTEM)
    delta = symdyn.estimate_delta(spec, W.SETUP["delta_n"], W.SETUP["delta_tol"])
    return mg, spec, delta


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=W.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--refs", default=str(HERE / "refs.json"))
    ap.add_argument("--spans", help="write the traced run's spans here (.npz)")
    args = ap.parse_args(argv)

    if args.setup_only:
        setup()
        return

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    mg, spec, delta = setup(tracer)
    refs = json.loads(Path(args.refs).read_text())
    p = W.params_for(args.workload, args.tiny)

    t0 = perf_counter()
    ops = W.run(args.workload, mg, spec, p, args.seed)
    t1 = perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, misses, rel_err = W.check(args.workload, ops, refs)
    if abs(delta - refs["setup"]["delta"]) > W.SETUP["delta_tol"]:
        misses.append(f"setup: estimate_delta {delta!r} vs reference {refs['setup']['delta']!r}")
    rec = {
        "run_s": t1 - t0,
        "peak_rss_mb": peak_mb,
        "attempted": attempted,
        "failed": failed,
        "misses": misses,
        "norm_rel_err_max": rel_err,
        "delta": delta,
        "ops": ops,
        "fingerprint": {"modgap": mg.modgap.__version__, "python": platform.python_version(),
                        "numpy": __import__("numpy").__version__,
                        "platform": platform.platform()},
    }
    if tracer is not None:
        rec["t0"], rec["t1"] = t0, t1
        rec["layers"] = tracer.metrics(t0, t1, rel_err)
        if args.spans:
            import numpy as np

            name, parent, start, end = tracer.arrays()
            np.savez_compressed(args.spans, names=np.array(tracer.names), name=name,
                                parent=parent, start=start, end=end, run_window=[t0, t1])
    print(json.dumps(rec))


if __name__ == "__main__":
    main()
