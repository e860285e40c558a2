"""Spans around memlens's layer boundaries, recorded from outside the package.

`install` wraps the functions at each layer boundary of `memlens` at every
name a caller looks up (modules import names directly, so wrapping only the
defining module would miss calls), the loss oracles of every `LossModel` that
`loss_from_config` returns, and `ModifiedODE.rhs`.  A span is (name, parent,
start, end, arg); spans stay in memory and are written out when the run
ends.  `analyse` turns them into per-layer figures; self time is a span's
duration minus the duration of its child spans.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
from array import array
from time import perf_counter_ns

import numpy as np

from workloads import LAYERS

ORACLES = ("losses.value", "losses.grad", "losses.hvp")


class Recorder:
    """Spans in flat arrays, in the order they start; parent -1 is a root."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.arg = array("q")
        self.counts: dict[str, list[int]] = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, arg=None):
        """fn recording one span per call; arg(*args, **kwargs) -> int is stored with it."""
        nid = self._id(name)
        names, parents, starts, ends, args = self.name, self.parent, self.start, self.end, self.arg
        stack = self._stack

        @functools.wraps(fn)
        def traced(*a, **kw):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            args.append(-1 if arg is None else arg(*a, **kw))
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                return fn(*a, **kw)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()

        return traced

    def count(self, name: str, fn):
        """fn counting its calls without a span (for functions too small to time)."""
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*a, **kw):
            cell[0] += 1
            return fn(*a, **kw)

        return counted

    def dump(self, path) -> None:
        np.savez(path, name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 arg=np.frombuffer(self.arg, dtype=np.int64))


def _n_arg(spec, loss, theta, n=None):
    return -1 if n is None else int(n)


def _samples_arg(family, beta, theta, h, samples, *rest, **kw):
    return int(samples)


# (attribute, span name, defining module, modules that look the name up, arg)
_TARGETS = [
    ("resolve_config", "cli.resolve", "cli", ["cli"], None),
    ("write_csv", "cli.write_csv", "core", ["cli"], None),
    ("_write_manifest", "cli.write_manifest", "cli", ["cli"], None),
    ("_finish", "cli.write_summary", "cli", ["cli"], None),
    ("family_from_config", "losses.family", "losses", ["cli"], None),
    ("step_state", "memoryful.step", "memoryful", ["memoryful"], None),
    ("run_memoryful", "memoryful.run", "memoryful", ["cli", "harness", "ode"], None),
    ("step_memoryless", "memoryless.step", "memoryless", ["memoryless"], None),
    ("run_memoryless", "memoryless.run", "memoryless", ["harness", "ode"], None),
    ("one_step_defect", "memoryless.defect", "memoryless", ["harness"], None),
    ("correction_closed", "correction.closed", "correction",
     ["cli", "correction", "memoryless", "ode"], _n_arg),
    ("correction_contraction", "correction.contraction", "correction",
     ["correction"], _n_arg),
    ("correction_bruteforce", "correction.bruteforce", "correction", ["correction"], _n_arg),
    ("compare_discrete_vs_ode", "ode.compare", "ode", ["cli"], None),
    ("build_modified_ode", "ode.build", "ode", ["ode"], None),
    ("integrate_rk4", "ode.rk4", "ode", ["ode"], None),
    ("global_error_sweep", "harness.sweep", "harness", ["cli"], None),
    ("defect_sweep", "harness.sweep", "harness", ["cli"], None),
    ("trajectory_closeness", "harness.closeness", "harness", ["cli"], None),
    ("_global_error_point", "harness.point", "harness", ["harness"], None),
    ("_defect_point", "harness.point", "harness", ["harness"], None),
    ("fit_loglog", "harness.fit", "harness", ["harness"], None),
    ("expected_correction_mc", "minibatch.mc", "minibatch", ["cli"], _samples_arg),
    ("expected_correction_exhaustive", "minibatch.exhaustive", "minibatch", ["cli"], None),
    ("expected_correction_decomposed", "minibatch.decomposed", "minibatch", ["cli"], None),
]
_COUNTED = [("as_param_vector", "core.as_param_vector", "core",
             ["core", "losses", "correction", "memoryless", "ode"])]
_LOSS_SITES = ["cli", "harness", "memoryful", "memoryless", "ode"]


def install(rec: Recorder) -> list[str]:
    """Wrap memlens in place; returns the wrapped names as module.attribute.

    A name is rebound only where it still refers to the original function,
    so a moved or renamed function is reported missing rather than breaking
    the run.
    """
    mods = {m: importlib.import_module(f"memlens.{m}")
            for m in ("cli", "core", "correction", "harness", "losses", "memoryful",
                      "memoryless", "minibatch", "ode")}
    wrapped = []

    def rebind(attr, new, home, sites):
        original = getattr(mods[home], attr, None)
        if original is None:
            return
        for site in sites:
            if getattr(mods[site], attr, None) is original:
                setattr(mods[site], attr, new)
                wrapped.append(f"{site}.{attr}")

    for attr, name, home, sites, arg in _TARGETS:
        if hasattr(mods[home], attr):
            rebind(attr, rec.wrap(name, getattr(mods[home], attr), arg), home, sites)
    for attr, name, home, sites in _COUNTED:
        if hasattr(mods[home], attr):
            rebind(attr, rec.count(name, getattr(mods[home], attr)), home, sites)

    factory = mods["losses"].loss_from_config

    def traced_loss_from_config(*a, **kw):
        loss = factory(*a, **kw)
        return dataclasses.replace(loss, value=rec.wrap("losses.value", loss.value),
                                   grad=rec.wrap("losses.grad", loss.grad),
                                   hvp=rec.wrap("losses.hvp", loss.hvp))

    rebind("loss_from_config", rec.wrap("losses.fixture", traced_loss_from_config),
           "losses", _LOSS_SITES)

    ode_cls = getattr(mods["ode"], "ModifiedODE", None)
    if ode_cls is not None and hasattr(ode_cls, "rhs"):
        ode_cls.rhs = rec.wrap("ode.rhs", ode_cls.rhs)
        wrapped.append("ode.ModifiedODE.rhs")
    return wrapped


# -- analysis -----------------------------------------------------------------


class Spans:
    """Spans of one traced command set, loaded from the file `dump` wrote."""

    def __init__(self, path, names: list[str], counts: dict[str, int]):
        with np.load(path) as z:
            self.name = z["name"].astype(np.int32)
            self.parent = z["parent"]
            self.dur = (z["end"] - z["start"]) / 1e9
            self.arg = z["arg"]
        self.names = names
        self.counts = counts
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                 minlength=self.dur.size)
        self.self_time = self.dur - child_time
        # ancestors[k][i] is the (k+1)-th ancestor of span i, or -1
        self.ancestors = []
        up = self.parent
        while np.any(up >= 0):
            self.ancestors.append(up)
            up = np.where(up >= 0, self.parent[np.maximum(up, 0)], -1)
        # root[i] is the command span (a root) that span i belongs to
        self.root = np.arange(self.dur.size, dtype=np.int32)
        for up in self.ancestors:
            self.root = np.where(up >= 0, up, self.root)

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def prefix_mask(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix + ".")]
        return np.isin(self.name, ids)

    def enclosing(self, *names: str) -> np.ndarray:
        """Index of each span's nearest ancestor named in names, or -1."""
        target = self.mask(*names)
        out = np.full(self.dur.size, -1, dtype=np.int32)
        for up in reversed(self.ancestors):  # the nearest ancestor writes last
            hit = (up >= 0) & target[np.maximum(up, 0)]
            out[hit] = up[hit]
        return out

    def under(self, *names: str) -> np.ndarray:
        return self.enclosing(*names) >= 0


def per_command(sets: list[Spans]) -> list[dict[str, float]]:
    """Per command of the set: its seconds and, for each path it runs, the
    step function's median µs, the µs per step of whole runs (record keeping
    included), oracle calls per step and the median raw grad µs.  A
    second-order memoryless step is one that evaluates a correction."""
    rows = []
    for c in range(int((sets[0].parent < 0).sum())):
        acc = {}

        def add(key, value):
            acc.setdefault(key, []).append(value)

        for s in sets:
            root = np.flatnonzero(s.parent < 0)[c]
            own = s.root == root
            oracle = s.mask(*ORACLES)
            corrected = np.zeros(s.dur.size, dtype=bool)
            corrected[s.parent[s.mask("correction.closed") & (s.parent >= 0)]] = True
            add("seconds", s.dur[root:root + 1])
            add("losses.grad", s.dur[own & s.mask("losses.grad")])
            add("ode.rhs", s.dur[own & s.mask("ode.rhs")])
            paths = (("memoryful", "memoryful.run", s.mask("memoryful.step")),
                     ("memoryless2", "memoryless.run", s.mask("memoryless.step")))
            for path, run, all_steps in paths:
                steps = own & all_steps & (corrected if path == "memoryless2" else True)
                run_of = s.enclosing(run)
                runs = np.unique(run_of[steps])
                in_runs = np.isin(run_of, runs[runs >= 0])
                add(f"{path}.step", s.dur[steps])
                add(f"{path}.run_s", s.dur[runs[runs >= 0]])
                add(f"{path}.steps", np.array([float((in_runs & all_steps).sum())]))
                add(f"{path}.oracles", np.array([float((in_runs & oracle).sum())]))
        d = {k: np.concatenate(v) for k, v in acc.items()}
        first_root = np.flatnonzero(sets[0].parent < 0)[c]
        row = {"command": sets[0].names[int(sets[0].name[first_root])],
               "seconds": float(np.median(d["seconds"]))}
        for key in ("losses.grad", "ode.rhs", "memoryful.step", "memoryless2.step"):
            if d[key].size:
                row[f"{key}.us"] = _per_call_us(d[key])
        for path in ("memoryful", "memoryless2"):
            n = float(d[f"{path}.steps"].sum())
            if d[f"{path}.step"].size and n:
                row[f"{path}.us_per_step"] = float(d[f"{path}.run_s"].sum()) * 1e6 / n
                row[f"{path}.oracle_calls_per_step"] = float(d[f"{path}.oracles"].sum()) / n
        rows.append(row)
    return rows


def _per_call_us(dur: np.ndarray, q: float = 50.0) -> float:
    return float(np.percentile(dur, q)) * 1e6 if dur.size else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def analyse(sets: list[Spans], steps: int, csv_bytes: int) -> dict[str, float]:
    """Per-layer figures, as totals per command set or per call."""
    k = len(sets)
    cat = {f: np.concatenate([getattr(s, f) for s in sets])
           for f in ("dur", "self_time", "arg")}

    def stack(fn):
        return np.concatenate([fn(s) for s in sets])

    def durs(*names):
        return cat["dur"][stack(lambda s: s.mask(*names))]

    def calls(*names):
        return int(stack(lambda s: s.mask(*names)).sum()) // k

    oracle = stack(lambda s: s.mask(*ORACLES))
    root = stack(lambda s: s.parent < 0)
    total = float(cat["dur"][root].sum())
    busy = float(cat["dur"][oracle].sum())
    oracle_calls = sum(calls(n) for n in ORACLES)
    out: dict[str, float] = {}
    for n in ORACLES:
        out[f"{n}.calls"] = calls(n)
        out[f"{n}.us"] = _per_call_us(durs(n))
    out["losses.calls_per_step"] = _ratio(oracle_calls, steps)
    out["losses.busy_s"] = busy / k
    out["losses.fixture_s"] = float(durs("losses.fixture", "losses.family").sum()) / k

    for layer in ("memoryful", "memoryless"):
        step = f"{layer}.step"
        step_d = durs(step)
        inside = oracle & stack(lambda s: s.under(step))
        in_runs = oracle & stack(lambda s: s.under(f"{layer}.run"))
        out[f"{step}.calls"] = calls(step)
        # every oracle call its runs make (logging included) per step
        out[f"{layer}.oracle_calls_per_step"] = _ratio(int(in_runs.sum()) // k, calls(step))
        out[f"{step}.us.p50"] = _per_call_us(step_d)
        out[f"{step}.us.p99"] = _per_call_us(step_d, 99.0)
        out[f"{layer}.overhead_ratio"] = _ratio(float(step_d.sum()),
                                                float(cat["dur"][inside].sum()))
    out["memoryless.defect_s"] = float(durs("memoryless.defect").sum()) / k

    out["core.as_param_vector.calls"] = sum(
        s.counts.get("core.as_param_vector", 0) for s in sets) // k

    contraction = stack(lambda s: s.mask("correction.contraction"))
    fallback = contraction & stack(
        lambda s: s.mask("correction.closed")[np.maximum(s.parent, 0)] & (s.parent >= 0))
    out["correction.closed.calls"] = calls("correction.closed")
    out["correction.closed.us"] = _per_call_us(durs("correction.closed"))
    out["correction.contraction.calls"] = calls("correction.contraction")
    out["correction.contraction.us.p50"] = _per_call_us(cat["dur"][contraction])
    out["correction.contraction.us.p99"] = _per_call_us(cat["dur"][contraction], 99.0)
    n_args = cat["arg"][contraction]
    out["correction.contraction.mean_n"] = float(n_args.mean()) if n_args.size else 0.0
    out["correction.contraction.us_per_n"] = _ratio(float(cat["dur"][contraction].sum()) * 1e6,
                                                    float(n_args.sum()))
    out["correction.contraction.share"] = 100.0 * _ratio(
        float(cat["dur"][contraction].sum()), total)
    out["correction.bruteforce.us"] = _per_call_us(durs("correction.bruteforce"))
    out["correction.fallback_ratio"] = _ratio(int(fallback.sum()) // k,
                                              calls("correction.closed"))

    rhs_d = durs("ode.rhs")
    in_rhs = oracle & stack(lambda s: s.under("ode.rhs"))
    out["ode.rhs.calls"] = calls("ode.rhs")
    out["ode.rhs.us"] = _per_call_us(rhs_d)
    out["ode.oracle_calls_per_rhs"] = _ratio(int(in_rhs.sum()) // k, calls("ode.rhs"))
    out["ode.rhs.overhead_ratio"] = _ratio(float(rhs_d.sum()), float(cat["dur"][in_rhs].sum()))
    out["ode.rhs.share"] = 100.0 * _ratio(float(rhs_d.sum()), total)
    out["ode.rk4_s"] = float(durs("ode.rk4").sum()) / k

    points = durs("harness.point")
    out["harness.point_s.p50"] = float(np.median(points)) if points.size else 0.0
    out["harness.point_s.max"] = float(points.max()) if points.size else 0.0
    out["harness.point_imbalance"] = _ratio(out["harness.point_s.max"],
                                            float(points.mean()) if points.size else 0.0)
    out["harness.fit_s"] = float(durs("harness.fit").sum()) / k

    for part in ("mc", "exhaustive", "decomposed"):
        out[f"minibatch.{part}_s"] = float(durs(f"minibatch.{part}").sum()) / k
    mc = stack(lambda s: s.mask("minibatch.mc"))
    out["minibatch.mc_orderings_per_s"] = _ratio(float(cat["arg"][mc].sum()),
                                                 float(cat["dur"][mc].sum()))

    out["cli.resolve_s"] = float(durs("cli.resolve").sum()) / k
    out["cli.write_s"] = float(durs("cli.write_csv", "cli.write_manifest",
                                    "cli.write_summary").sum()) / k
    out["cli.csv_bytes"] = csv_bytes
    for command in {sets[0].names[i] for i in sets[0].name[sets[0].parent < 0]}:
        out[f"{command}_s"] = float(durs(command).sum()) / k

    # self time per layer, as a share of the traced command time
    for layer in LAYERS:
        own = float(cat["self_time"][stack(lambda s: s.prefix_mask(layer))].sum())
        out[f"{layer}.self_s"] = own / k
        out[f"{layer}.share"] = 100.0 * _ratio(own, total)
    out["traced_s"] = total / k
    return out
