"""Spans and counters at kreinlab's layer boundaries, recorded from outside.

``Tracer.install`` wraps each public function of every kreinlab module in
the namespaces where its callers look it up (the defining module and every
module that imported it by name), plus ``scipy.integrate.solve_ivp`` where
kreinlab modules bound it and ``Potential.__call__``. The program itself is
not edited. Spans carry name, start, end, parent and the job that caused
them; they stay in memory until ``write`` at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("kernel", "potentials", "krein", "ordered_exp", "entropy", "opuc",
           "verify", "cli")

# span names the per-layer report needs that are not "<module>.<function>"
PROPAGATOR = "propagator"
# writing result files is the CLI's own work (cli.self_s), not a layer
UNWRAPPED = {"krein.dump_krein_csv"}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job]
        self.rounds = []         # spans and counts of earlier traced rounds
        self.counts = defaultdict(float)
        self.job = None
        self._stack = []
        self._saved = []
        self.enabled = False

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None, self.job])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self._close()
            if after is not None:
                after(out)
            return out
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, namespace, attr, new):
        self._saved.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    def install(self):
        """Wrap kreinlab's public functions wherever they are bound."""
        import scipy.integrate

        mods = {m: importlib.import_module(f"kreinlab.{m}") for m in MODULES}
        spaces = [importlib.import_module("kreinlab"), *mods.values()]
        targets = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and f"{short}.{attr}" not in UNWRAPPED):
                    targets[id(obj)] = (obj, f"{short}.{attr}")
        targets[id(scipy.integrate.solve_ivp)] = (scipy.integrate.solve_ivp,
                                                   PROPAGATOR)
        hooks = {
            PROPAGATOR: self._count_nfev,
            "entropy.entropy_E": self._count_zero,
        }
        for ns in spaces:
            for attr, obj in list(vars(ns).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    fn, name = hit
                    self._replace(ns, attr, self._span(name, fn, hooks.get(name)))

        pot_cls = mods["potentials"].Potential
        call = pot_cls.__call__

        @functools.wraps(call)
        def counted_call(pot, r):
            if self.enabled:
                self.counts["potentials.calls"] += 1
                self.counts["potentials.samples"] += getattr(r, "size", 1)
            return call(pot, r)

        self._replace(pot_cls, "__call__", counted_call)

    def uninstall(self):
        while self._saved:
            ns, attr, obj = self._saved.pop()
            setattr(ns, attr, obj)

    def _count_nfev(self, sol):
        self.counts["propagator.rhs_evals"] += getattr(sol, "nfev", 0)

    def _count_zero(self, value):
        if value == 0.0:
            self.counts["entropy.entropy_E.zero_results"] += 1

    # -- report --------------------------------------------------------------

    def reset(self):
        """Start a new traced round; earlier ones are kept for ``write``."""
        if self.spans or self.counts:
            self.rounds.append((self.spans, dict(self.counts)))
        self.spans = []
        self.counts = defaultdict(float)

    def write(self, path):
        """Every traced round: spans, counts and per-layer times."""
        self.reset()
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w") as fh:
            json.dump({"rounds": [{"spans": [dict(zip(keys, s)) for s in spans],
                                   "counts": counts, "layers": layers(spans)}
                                  for spans, counts in self.rounds]}, fh)


def layers(spans) -> dict:
    """Per span name: calls, total time (outermost spans of that name only)
    and self time (span time minus time under its child spans)."""
    child_time = defaultdict(float)
    for name, t0, t1, parent, _ in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    out = defaultdict(lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0})
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - child_time[i]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            row["time_s"] += t1 - t0
    return dict(out)


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics named in BENCHMARK.json, for the spans and
    counts recorded since the last reset."""
    lay = layers(tracer.spans)
    cnt = tracer.counts

    def t(name):
        return lay.get(name, {}).get("time_s", 0.0)

    def n(name):
        return float(lay.get(name, {}).get("calls", 0))

    return {
        "potentials.samples": cnt["potentials.samples"],
        "potentials.calls": cnt["potentials.calls"],
        "potentials.tail_integral.time_s": t("potentials.tail_integral"),
        "entropy.entropy_E.calls": n("entropy.entropy_E"),
        "entropy.entropy_E.time_s": t("entropy.entropy_E"),
        "entropy.entropy_E.zero_results": cnt["entropy.entropy_E.zero_results"],
        "entropy.entropy_sum.time_s": t("entropy.entropy_sum"),
        "entropy.variation_D.time_s": t("entropy.variation_D"),
        "entropy.equivalence_scan.time_s": t("entropy.equivalence_scan"),
        "entropy.sobolev_h_minus1.time_s": t("entropy.sobolev_h_minus1"),
        "entropy.route_disagreements":
            cnt["entropy.entropy_E.raised.RouteDisagreement"],
        "propagator.calls": n(PROPAGATOR),
        "propagator.rhs_evals": cnt["propagator.rhs_evals"],
        "propagator.time_s": t(PROPAGATOR),
        "krein.solve_krein.time_s": t("krein.solve_krein"),
        "krein.find_pi_zero.time_s": t("krein.find_pi_zero"),
        "krein.reflection_residual_batch.time_s":
            t("krein.reflection_residual_batch"),
        "ordered_exp.f_of_s.calls": n("ordered_exp.f_of_s"),
        "ordered_exp.f_of_s.time_s": t("ordered_exp.f_of_s"),
        "kernel.series_coeffs_from_samples.time_s":
            t("kernel.series_coeffs_from_samples"),
        "kernel.fit_decay.calls": n("kernel.fit_decay"),
        "kernel.fit_decay.time_s": t("kernel.fit_decay"),
        "kernel.exp_phase_tail.calls": n("kernel.exp_phase_tail"),
        "kernel.adaptive_quad.time_s": t("kernel.adaptive_quad"),
        # CLI code outside the library layers: parsing, formatting, writing
        "cli.self_s": sum(row["self_s"] for name, row in lay.items()
                          if name.startswith("cli.")),
    }
