"""Spans around modgap's public functions, installed from outside the package.

Each wrapper records one span (name, start, end, parent) per call in flat
in-memory lists; nothing is written until the run ends. A name is patched
where callers look it up: on the importing module for names imported by
name (``spectral.operator_norm``, ``decouple.build_eta``, ...) and on the
class for methods (``GroupTable.left_translation``, ...). Counters that need
a look at a call's arguments or result run in their own ``trace.hook`` span,
so their cost is charged to tracing rather than to a program layer.
"""

from __future__ import annotations

import functools
from time import perf_counter

import numpy as np

# (metric name, unit, better) in the order they are reported
PER_LAYER = [
    ("symdyn.delta_s", "s", "lower"),
    ("symdyn.branch_evals", "count", "lower"),
    ("symdyn.branch_s", "s", "lower"),
    ("symdyn.self_s", "s", "lower"),
    ("modgroup.enumerate_s", "s", "lower"),
    ("modgroup.translation_rows", "count", "lower"),
    ("modgroup.translation_s", "s", "lower"),
    ("modgroup.project_calls", "count", "lower"),
    ("modgroup.project_s", "s", "lower"),
    ("modgroup.self_s", "s", "lower"),
    ("measures.build_s", "s", "lower"),
    ("measures.words", "count", "lower"),
    ("measures.convolve_calls", "count", "lower"),
    ("measures.convolve_s", "s", "lower"),
    ("measures.support_frac", "ratio", "lower"),
    ("measures.self_s", "s", "lower"),
    ("decouple.contexts", "count", "lower"),
    ("decouple.etas_built", "count", "lower"),
    ("decouple.eta_s", "s", "lower"),
    ("decouple.bound_s", "s", "lower"),
    ("decouple.eta_distinct_frac", "ratio", "higher"),
    ("decouple.fit_s", "s", "lower"),
    ("decouple.flatness_s", "s", "lower"),
    ("decouple.self_s", "s", "lower"),
    ("spectral.opnorm_calls", "count", "lower"),
    ("spectral.opnorm_s", "s", "lower"),
    ("spectral.iters", "count", "lower"),
    ("spectral.apply_s", "s", "lower"),
    ("spectral.zariski_s", "s", "lower"),
    ("spectral.residual_max", "1", "lower"),
    ("spectral.norm_rel_err_max", "ratio", "lower"),
    ("spectral.self_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.hook_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]

# Work counts that must repeat exactly across runs of one source tree.
COUNT_METRICS = (
    "spectral.iters",
    "modgroup.translation_rows",
    "measures.convolve_calls",
    "decouple.contexts",
    "decouple.etas_built",
)

LAYERS = ("symdyn", "modgroup", "measures", "decouple", "spectral", "trace")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self.counts = {"words": 0, "contexts": 0, "iters": 0, "supp_frac_sum": 0.0,
                       "residual_max": 0.0}
        self.eta_fingerprints: set = set()

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        """Span per call of fn; hook(args, kwargs, result) runs in a trace.hook span."""
        nid, hook_id = self._nid(name), self._nid("trace.hook")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                h = self._open(hook_id)
                try:
                    hook(args, kwargs, res)
                finally:
                    self._close(h)
            return res

        return traced

    def wrap_generator(self, name: str, fn):
        """Span per item a generator function yields."""
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        return traced

    # -- counters --------------------------------------------------------

    def _count_words(self, args, kwargs, res):
        p = args[0]
        self.counts["words"] += self._count_admissible(p.spec, p.r_len)

    def _count_contexts(self, args, kwargs, res):
        self.counts["contexts"] += len(res)

    def _record_opnorm(self, args, kwargs, rep):
        op = args[0]
        self.counts["iters"] += rep.iters
        self.counts["supp_frac_sum"] += op.measure.n_support / op.table.order
        self.counts["residual_max"] = max(self.counts["residual_max"], rep.residual)

    def _fingerprint_eta(self, args, kwargs, eta):
        m = eta.measure
        supp = m.support
        # the key enumerate_etas deduplicates by, per (q, L)
        self.eta_fingerprints.add((
            m.table.q, eta.context.L, tuple(int(i) for i in supp),
            tuple(np.round(m.coeffs[supp].real, 12)),
        ))

    # -- installation -----------------------------------------------------

    def install(self, mg) -> None:
        """Patch every lookup site in the modgap modules held by `mg`."""
        sd, mgr, me, de, sp = mg.symdyn, mg.modgroup, mg.measures, mg.decouple, mg.spectral
        self._count_admissible = sd.count_admissible

        def patch(mods, attr, name, hook=None):
            w = self.wrap(name, getattr(mods[0], attr), hook)
            for m in mods:
                setattr(m, attr, w)

        patch([sd], "estimate_delta", "symdyn.estimate_delta")
        patch([sd, de, me], "evaluate_branch", "symdyn.evaluate_branch")
        patch([mgr, me, de, sp], "get_group", "modgroup.get_group")
        patch([mgr.GroupTable], "left_translation", "modgroup.left_translation")
        patch([mgr.GroupTable], "right_translation", "modgroup.right_translation")
        patch([mgr.NewSpaceProjector], "apply", "modgroup.project")
        patch([me, sp], "build_mu", "measures.build_mu", self._count_words)
        patch([me, de, sp], "build_mu1", "measures.build_mu1", self._count_words)
        patch([me.GroupMeasure], "convolve", "measures.convolve")
        patch([de], "build_eta", "decouple.build_eta", self._fingerprint_eta)
        patch([de], "enumerate_contexts", "decouple.enumerate_contexts", self._count_contexts)
        for attr in ("decoupled_upper_bound", "verify_domination",
                     "fit_decoupling_constant", "flatness_ratio"):
            patch([de], attr, f"decouple.{attr}")
        de.enumerate_etas = self.wrap_generator("decouple.enumerate_etas", de.enumerate_etas)
        patch([sp], "operator_norm", "spectral.operator_norm", self._record_opnorm)
        for attr in ("zariski_check", "main_sweep", "eta_gap"):
            patch([sp], attr, f"spectral.{attr}")

    # -- reduction ----------------------------------------------------------

    def arrays(self):
        return (np.array(self.span_name, dtype=np.int32),
                np.array(self.span_parent, dtype=np.int64),
                np.array(self.span_start), np.array(self.span_end))

    def metrics(self, run_t0: float, run_t1: float, norm_rel_err_max: float) -> dict:
        """Per-layer metrics over the spans inside [run_t0, run_t1], plus the
        set-up span of estimate_delta that precedes the window. The caller
        adds trace.untraced_run_s and trace.overhead_frac from an untraced
        pass."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        inside = (start >= run_t0) & (end <= run_t1)

        def ids(*names):
            return [self._ids[n] for n in names if n in self._ids]

        def total(*names, window=True):
            sel = np.isin(name, ids(*names)) & (inside if window else True)
            return float(self_t[sel].sum())

        def calls(*names):
            return int((np.isin(name, ids(*names)) & inside).sum())

        run_s = run_t1 - run_t0
        layer_self = {layer: 0.0 for layer in LAYERS}
        for nid, n in enumerate(self.names):
            layer_self[n.split(".")[0]] += float(self_t[inside & (name == nid)].sum())
        roots = float(dur[inside & ~has_parent].sum())
        c = self.counts
        built = calls("decouple.build_eta")
        opnorm_calls = calls("spectral.operator_norm")
        iters = c["iters"]
        opnorm_s = total("spectral.operator_norm")
        m = {
            "symdyn.delta_s": total("symdyn.estimate_delta", window=False),
            "symdyn.branch_evals": calls("symdyn.evaluate_branch"),
            "symdyn.branch_s": total("symdyn.evaluate_branch"),
            "symdyn.self_s": layer_self["symdyn"],
            "modgroup.enumerate_s": total("modgroup.get_group"),
            "modgroup.translation_rows": calls("modgroup.left_translation",
                                               "modgroup.right_translation"),
            "modgroup.translation_s": total("modgroup.left_translation",
                                            "modgroup.right_translation"),
            "modgroup.project_calls": calls("modgroup.project"),
            "modgroup.project_s": total("modgroup.project"),
            "modgroup.self_s": layer_self["modgroup"],
            "measures.build_s": total("measures.build_mu", "measures.build_mu1"),
            "measures.words": c["words"],
            "measures.convolve_calls": calls("measures.convolve"),
            "measures.convolve_s": total("measures.convolve"),
            "measures.support_frac": c["supp_frac_sum"] / opnorm_calls if opnorm_calls else 0.0,
            "measures.self_s": layer_self["measures"],
            "decouple.contexts": c["contexts"],
            "decouple.etas_built": built,
            "decouple.eta_s": total("decouple.build_eta"),
            "decouple.bound_s": total("decouple.decoupled_upper_bound"),
            "decouple.eta_distinct_frac": len(self.eta_fingerprints) / built if built else 0.0,
            "decouple.fit_s": total("decouple.fit_decoupling_constant"),
            "decouple.flatness_s": total("decouple.flatness_ratio"),
            "decouple.self_s": layer_self["decouple"],
            "spectral.opnorm_calls": opnorm_calls,
            "spectral.opnorm_s": opnorm_s,
            "spectral.iters": iters,
            # derived: operator_norm's self time already excludes its projector,
            # translation and convolve children; one apply per iteration plus
            # the final residual apply of each call
            "spectral.apply_s": opnorm_s / (iters + opnorm_calls) if opnorm_calls else 0.0,
            "spectral.zariski_s": total("spectral.zariski_check"),
            "spectral.residual_max": c["residual_max"],
            "spectral.norm_rel_err_max": norm_rel_err_max,
            "spectral.self_s": layer_self["spectral"],
            "trace.run_s": run_s,
            "trace.hook_s": layer_self["trace"],
            "trace.unattributed_s": run_s - roots,
            "trace.spans": int(inside.sum()),
        }
        return m
