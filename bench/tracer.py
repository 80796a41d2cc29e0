"""Span tracer that wraps risim's layer functions from outside the package.

Each traced function is replaced, under its own name, in every ``risim``
module that binds it, so a call made through ``harness``, ``ao`` or ``rcg``
is seen no matter which module imported the name. A span is recorded per
call as ``(name, start, end, parent, trial)`` and kept in memory until the
benchmark writes it out. A function that no longer exists is reported as
absent rather than failing the run.
"""

from __future__ import annotations

import inspect
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

KINDS = ("eif", "emi", "irr", "emi_irr")


@dataclass(frozen=True)
class Layer:
    """One traced function: ``risim.<module>.<func>``.

    ``split`` names a parameter whose value is appended to the span name:
    ``kind`` gives one span name per scenario, and ``theta2`` separates the
    cascade build with the neighbor surface from the one without it.
    """

    module: str
    func: str
    label: str
    split: str | None = None

    def names(self) -> tuple[str, ...]:
        if self.split == "kind":
            return tuple(f"{self.label}.{k}" for k in KINDS)
        if self.split == "theta2":
            return (f"{self.label}_neighbor", f"{self.label}_own")
        return (self.label,)


LAYERS = (
    Layer("channels", "build_statistics", "channels.build_statistics"),
    Layer("channels", "draw_realization", "channels.draw_realization"),
    Layer("precoding", "zf_precoder", "precoding.zf_precoder"),
    Layer("sinr", "build_cascades", "sinr.build_cascades", split="theta2"),
    Layer("sinr", "weighted_log_utility", "sinr.objective", split="kind"),
    Layer("sinr", "scenario_sinr", "sinr.scenario_sinr", split="kind"),
    Layer("rcg", "euclid_grad", "rcg.euclid_grad", split="kind"),
    Layer("rcg", "optimize_phases", "rcg.optimize_phases"),
    Layer("ao", "alternate_optimize", "ao.alternate_optimize"),
    Layer("ao", "optimize_cluster2", "ao.optimize_cluster2"),
    Layer("ao", "evaluate_pair", "ao.evaluate_pair"),
)

SWEEP_SPAN = "sweep"  # the span around one whole CLI sweep; its self time is the harness's


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap and their summed
    duration is the part of the parent's interval they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _namer(layer: Layer, fn):
    """Return args, kwargs -> span name for a split layer, or None if it cannot split."""
    if layer.split is None:
        return None
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if layer.split not in params:
        return None
    pos = params.index(layer.split)

    def value(args, kwargs):
        return args[pos] if len(args) > pos else kwargs.get(layer.split)

    if layer.split == "kind":
        def name(args, kwargs):
            kind = value(args, kwargs)
            return f"{layer.label}.{getattr(kind, 'value', kind)}"
    else:
        def name(args, kwargs):
            return layer.label + ("_own" if value(args, kwargs) is None else "_neighbor")
    return name


class Tracer:
    """Records spans for the layer functions while installed."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.rcg_results: list[tuple[int, object]] = []  # (span index, RcgResult)
        self.ao_results: list[tuple[int, object]] = []  # (span index, AoResult)
        self.absent: list[str] = []
        self.trial = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter(), 0.0, parent, self.trial))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent, trial = self.spans[idx]
        self.spans[idx] = (name, start, perf_counter(), parent, trial)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, layer: Layer, fn, namer):
        tracer = self
        counts_trials = layer.func == "draw_realization"
        keep = {"optimize_phases": self.rcg_results, "alternate_optimize": self.ao_results}.get(layer.func)

        def wrapper(*args, **kwargs):
            if counts_trials:
                tracer.trial += 1
            idx = tracer._open(layer.label if namer is None else namer(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if keep is not None:
                keep.append((idx, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each layer function in the loaded risim modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "risim" or n.startswith("risim.")]
        self.absent = []
        for layer in self.layers:
            home = sys.modules.get(f"risim.{layer.module}")
            fn = getattr(home, layer.func, None)
            if not callable(fn):
                self.absent.extend(layer.names())
                continue
            namer = _namer(layer, fn)
            if layer.split is not None and namer is None:
                self.absent.extend(layer.names())
            wrapper = self._wrap(layer, fn, namer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting -------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over all recorded spans."""
        totals: dict[str, tuple[int, float]] = {}
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            calls, secs = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, secs + own)
        return totals

    def root_wall(self) -> float:
        return sum(end - start for name, start, end, parent, _ in self.spans if parent < 0)

    def metrics(self, trials: int, decreased_count: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics normalised per Monte Carlo trial, as name -> (value, unit)."""
        totals = self.layer_totals()
        out: dict[str, tuple[float, str]] = {}
        for layer in self.layers:
            for name in layer.names():
                calls, secs = totals.get(name, (0, 0.0))
                out[f"{name}.calls_per_trial"] = (calls / trials, "calls/trial")
                out[f"{name}.self_ms_per_trial"] = (1e3 * secs / trials, "ms/trial")

        rcg = [r for _, r in self.rcg_results]
        iters = [getattr(r, "iterations", 0) for r in rcg]
        out["rcg.iterations_p50"] = (float(statistics.median(iters)) if iters else 0.0, "iterations")
        out["rcg.converged_frac"] = (_frac(rcg, "converged"), "ratio")
        out["rcg.stagnated_frac"] = (_frac(rcg, "stagnated"), "ratio")
        out["rcg.armijo.accept_ratio"] = (self._armijo_accept_ratio(), "ratio")

        ao = [r for _, r in self.ao_results]
        outer = [getattr(r, "outer_iterations", 0) for r in ao]
        out["ao.outer_iterations_mean"] = (statistics.fmean(outer) if outer else 0.0, "iterations")
        out["ao.converged_frac"] = (_frac(ao, "converged"), "ratio")
        out["ao.decreased_count"] = (float(decreased_count), "count")

        out["harness.self_ms_per_trial"] = (1e3 * totals.get(SWEEP_SPAN, (0, 0.0))[1] / trials, "ms/trial")
        out["harness.ao_runs_per_trial"] = (len(ao) / trials, "runs/trial")
        return out

    def _armijo_accept_ratio(self) -> float:
        """Accepted steps over line-search objective evaluations, across RCG runs.

        Each RCG run evaluates the objective once at its start point; every
        further objective call under its span is a line-search candidate.
        """
        evals: dict[int, int] = {}
        for name, _, _, parent, _ in self.spans:
            if parent >= 0 and name.startswith("sinr.objective"):
                evals[parent] = evals.get(parent, 0) + 1
        accepted = searched = 0
        for idx, res in self.rcg_results:
            steps = getattr(res, "steps", ())
            accepted += sum(1 for s in steps if s > 0.0)
            searched += max(evals.get(idx, 0) - 1, 0)
        return accepted / searched if searched else 0.0

    def write(self, path) -> None:
        """Write the recorded spans as CSV: name,start_s,end_s,parent,trial."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,trial\n")
            for name, start, end, parent, trial in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{trial}\n")


def _frac(results, attr: str) -> float:
    return sum(1 for r in results if getattr(r, attr, False)) / len(results) if results else 0.0
