"""Command-line entry point.

Every experiment is driven by a sectioned key/value config file (INI-style
sections [run], [loss], [optimizer], [experiment]; a JSON file with the same
nesting, e.g. an emitted manifest.json, is accepted interchangeably) plus
`--set section.key=value` overrides.  Outputs are CSV files and a JSON
summary named `<experiment>_<tag>_<hash>` under the output directory, where
the hash is of the fully resolved config, so reruns of the same config
produce byte-identical files.  Exit codes: 0 all gates passed, 1 a gate
failed, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import correction as corr
from .core import (Kind, KSpec, OptimizerSpec, RunConfig, floor_steps, fmt_float,
                   write_csv)
from .harness import (SweepReport, defect_sweep, global_error_sweep,
                      n_burn_steps, ordering_fraction, trajectory_closeness)
from .losses import (family_from_config, fd_check_grad, fd_check_hvp,
                     loss_from_config)
from .memoryful import run_memoryful
from .memoryless import CorrectionVariant, MemorylessKind
from .minibatch import (expected_correction_decomposed, expected_correction_exhaustive,
                        expected_correction_mc, modified_loss_minibatch,
                        perm_coefficients)
from .ode import ODE_TARGETS, compare_discrete_vs_ode

COMMANDS = ("run", "sweep", "defect", "closeness", "ode-compare",
            "minibatch-corr", "corr-table", "gradcheck")


class ConfigError(Exception):
    pass


def _parse_bool(s):
    v = str(s).strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def _parse_floats(s):
    return tuple(float(tok) for tok in str(s).split(",") if tok.strip())


def _parse_ints(s):
    return tuple(int(tok) for tok in str(s).split(",") if tok.strip())


def _parse_theta0(s):
    v = str(s).strip()
    if v in ("gauss", "zeros", "ones"):
        return v
    try:
        return _parse_floats(v)
    except ValueError as exc:
        raise ConfigError(f"theta0 must be gauss|zeros|ones or comma floats, got {s!r}") from exc


_LIST_PARSERS = (_parse_floats, _parse_ints, _parse_theta0)


def _config_text(value, parser) -> str:
    """A config value as the text its schema parser reads.  INI values and
    overrides are text already; a JSON config (an emitted manifest.json, for
    example) also holds numbers, booleans and, for list-valued keys, lists of
    numbers, which are written back out so that the same parser checks them."""
    if isinstance(value, str):
        return value
    listed = parser in _LIST_PARSERS
    items = value if listed and isinstance(value, list) else [value]
    if parser is str or not all(isinstance(v, (bool, int, float)) for v in items):
        want = ("a string" if parser is str else
                "a number or a list of numbers" if listed else "a single number or boolean")
        raise ConfigError(f"expected {want}")
    return ",".join(repr(v) for v in items)


class Key(NamedTuple):
    """One config key: the parser of its text, its default (None: required),
    its help text with units, and an optional check of the parsed value with
    the rule the check enforces (every comparison is false on NaN, so a NaN
    fails each numeric check)."""

    parser: Callable
    default: object
    help: str
    check: Optional[Callable] = None
    rule: str = ""


def _unit(v):
    return 0.0 <= v <= 1.0


def _positive(v):
    return 0.0 < v < math.inf


def _choice(default, choices, what, fold=False):
    """A string key that must name one of choices; fold compares the value
    stripped and lower-cased."""
    names = "|".join(choices)
    norm = (lambda v: v.strip().lower()) if fold else (lambda v: v)
    return Key(str, default, f"{what}: {names}", lambda v: norm(v) in choices,
               f"one of {names}")


# section -> key -> Key.  [loss] accepts additional per-loss parameters
# validated by the loss factory itself.
SCHEMA = {
    "run": {
        "seed": Key(int, 0, "64-bit RNG seed (dimensionless)"),
        "dimension": Key(int, 2, "parameter dimension d (count)"),
        "horizon": Key(float, 1.0, "time horizon T (time units; iterations = floor(T/h))"),
        "theta0": Key(_parse_theta0, "gauss", "initial point: gauss|zeros|ones or comma floats"),
        "theta0_scale": Key(float, 1.0, "scale of the gauss initial point (dimensionless)"),
    },
    "optimizer": {
        "kind": _choice(None, [k.value for k in Kind], "optimizer", fold=True),
        "h": Key(float, None, "learning rate / step size (time units per step)"),
        "beta1": Key(float, 0.0, "first momentum parameter in [0,1) (rho1 for lionk)"),
        "beta2": Key(float, 0.0, "second momentum parameter in [0,1) (rho2 for lionk)"),
        "lambda": Key(float, 0.0, "decoupled weight decay coefficient (1/time)"),
        "eps": Key(float, 1e-8, "stability / smoothing parameter (dimensionless, > 0)"),
        "kspec": _choice(KSpec.SMOOTHED_ONE_NORM.value, [k.value for k in KSpec],
                         "lionk convexity choice", fold=True),
        "bias_correction": Key(_parse_bool, None,
                               "n-dependent average prefactors (default: kind-specific)"),
    },
    "experiment": {
        "h_grid": Key(_parse_floats, (), "comma list of step sizes for sweeps (time units)",
                      lambda v: all(map(_positive, v)), "a list of finite entries > 0"),
        "order": _choice("second", ("first", "second", "both"), "memoryless flavor"),
        "correction_variant": _choice(CorrectionVariant.FINITE_N.value,
                                      [v.value for v in CorrectionVariant],
                                      "second-order correction coefficients"),
        "samples": Key(int, 2000, "Monte Carlo sample count (count, >= 100)",
                       lambda v: v >= 100, ">= 100"),
        "n_list": Key(_parse_ints, (1, 5, 50, 200), "step indices for corr-table (count)",
                      lambda v: all(n >= 0 for n in v), "a list of entries >= 0"),
        "n_max": Key(int, 0, "cap on defect steps per h; 0 = no cap (count)",
                     lambda v: v >= 0, ">= 0"),
        "dt_ratio": Key(int, 8, "ODE integrator substeps per h (count, >= 4)",
                        lambda v: v >= 4, ">= 4"),
        "ode_target": _choice(ODE_TARGETS[0], ODE_TARGETS, "discrete side of ode-compare"),
        "slope_min": Key(float, 0.0, "lower slope gate; 0 = per-command default",
                         lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
        "slope_max": Key(float, 0.0, "upper slope gate; 0 = per-command default",
                         lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
        "r2_min": Key(float, 0.98, "minimum r^2 for an asserted slope (dimensionless)",
                      _unit, "in [0, 1]"),
        "fraction_min": Key(float, 0.95, "closeness ordering gate (fraction of steps)",
                            _unit, "in [0, 1]"),
        "corr_tol": Key(float, 1e-6, "relative gap gate for corr-table (dimensionless)",
                        _positive, "finite and > 0"),
        "gradcheck_tol": Key(float, 1e-5, "relative error gate for gradcheck (dimensionless)",
                             _positive, "finite and > 0"),
        "burn_in_tol": Key(float, 1e-10, "coefficient tail defining the burn-in cutoff",
                           _positive, "finite and > 0"),
    },
}

_BIAS_DEFAULT = {Kind.ADAMW: True, Kind.NADAMW: True, Kind.LION_K: False,
                 Kind.HEAVY_BALL: False, Kind.NESTEROV: False}


def _read_config_file(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = p.read_text()
    if p.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict) or not all(isinstance(v, dict) for v in raw.values()):
            raise ConfigError(f"config file {path} must map sections to key/value tables")
        return {str(sec): {str(k): v for k, v in kv.items()} for sec, kv in raw.items()}
    import configparser
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"config file {path} failed to parse: {exc}") from exc
    return {sec: dict(cp.items(sec)) for sec in cp.sections()}


def resolve_config(path: str, overrides=()) -> dict:
    """Parse, apply overrides, typecheck against the schema, and fill defaults.

    Returns a plain nested dict (JSON-compatible) usable as a config itself.
    """
    raw = _read_config_file(path)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, value = item.split("=", 1)
        sec, key = target.split(".", 1)
        raw.setdefault(sec, {})[key] = value

    resolved = {}
    for sec, kv in raw.items():
        if sec == "loss":
            continue
        if sec not in SCHEMA:
            raise ConfigError(f"unknown config section: [{sec}]")
        out = {}
        for key, value in kv.items():
            if key not in SCHEMA[sec]:
                raise ConfigError(f"unknown config key: {sec}.{key}")
            parser = SCHEMA[sec][key].parser
            try:
                out[key] = parser(_config_text(value, parser))
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"bad value for {sec}.{key}: {value!r} ({exc})") from exc
        resolved[sec] = out

    for sec, keys in SCHEMA.items():
        resolved.setdefault(sec, {})
        for key, entry in keys.items():
            if key not in resolved[sec]:
                if entry.default is None and not (sec == "optimizer" and key == "bias_correction"):
                    raise ConfigError(f"missing required config key: {sec}.{key}")
                resolved[sec][key] = entry.default
            value = resolved[sec][key]
            if entry.check is not None and not entry.check(value):
                raise ConfigError(f"{sec}.{key} must be {entry.rule}, got {value!r}")

    loss_sec = dict(raw.get("loss", {}))
    if "id" not in loss_sec:
        raise ConfigError("missing required config key: loss.id")
    for k, v in loss_sec.items():
        if not isinstance(v, (str, bool, int, float)) or v == "":
            raise ConfigError(f"bad value for loss.{k}: {v!r} "
                              "(expected a number or a non-empty string)")
    resolved["loss"] = {k: (v if not isinstance(v, str) else _coerce_scalar(v))
                        for k, v in loss_sec.items()}

    # kind-specific bias default
    kind = _enum(Kind, resolved["optimizer"]["kind"])
    if resolved["optimizer"]["bias_correction"] is None:
        norm_kind = Kind.LION_K if kind is Kind.SIGNUM else kind
        resolved["optimizer"]["bias_correction"] = _BIAS_DEFAULT[norm_kind]
    return resolved


def _coerce_scalar(v: str):
    s = v.strip()
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def _enum(cls, s: str):
    """The member of cls a checked kind or kspec value names."""
    return cls(s.strip().lower())


def build_run_config(resolved: dict) -> RunConfig:
    opt = resolved["optimizer"]
    try:
        spec = OptimizerSpec(kind=_enum(Kind, opt["kind"]), h=float(opt["h"]),
                             beta1=float(opt["beta1"]), beta2=float(opt["beta2"]),
                             lam=float(opt["lambda"]), eps=float(opt["eps"]),
                             kspec=_enum(KSpec, opt["kspec"]),
                             bias_correction=bool(opt["bias_correction"]))
    except ValueError as exc:
        raise ConfigError(f"bad optimizer spec: {exc}") from exc
    run = resolved["run"]
    loss = dict(resolved["loss"])
    loss_id = str(loss.pop("id"))
    theta0 = run["theta0"]
    if isinstance(theta0, list):
        theta0 = tuple(theta0)
    try:
        return RunConfig(seed=int(run["seed"]), dimension=int(run["dimension"]),
                         horizon=float(run["horizon"]), loss_id=loss_id,
                         loss_params=loss, optimizer=spec, theta0=theta0,
                         theta0_scale=float(run["theta0_scale"]))
    except ValueError as exc:
        raise ConfigError(f"bad run config: {exc}") from exc


def config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _write_manifest(out_dir: Path, resolved: dict) -> None:
    with open(out_dir / "manifest.json", "w", newline="\n") as f:
        json.dump(resolved, f, indent=2, sort_keys=True)
        f.write("\n")


def _slope_gates(resolved, default_lo, default_hi):
    exp = resolved["experiment"]
    lo = exp["slope_min"] or default_lo
    hi = exp["slope_max"] or default_hi
    return lo, hi


def _report_rows(report: SweepReport):
    return [[p.h, p.metric, "ok" if p.valid else p.note] for p in report.points]


def _gate(name, value, ok, limit):
    return {"name": name, "value": value, "limit": limit, "pass": bool(ok)}


def _fit_gates(report: SweepReport, slope_name, r2_name, lo, hi, r2_min):
    """Slope and r^2 gates of a sweep.  A degenerate fit (fewer than 3 points
    above the rounding floor) passes only when every point is valid, i.e. the
    errors sit at the floor; an invalid point makes the slope gate fail."""
    if report.status == "degenerate":
        invalid = [p for p in report.points if not p.valid]
        if invalid:
            notes = ", ".join(sorted({p.note for p in invalid}))
            return [_gate(slope_name, "degenerate", False,
                          f"fit needs valid points; {len(invalid)} of "
                          f"{len(report.points)} invalid ({notes})")]
        return [_gate(slope_name, "degenerate", True, "fit skipped")]
    return [_gate(slope_name, report.slope, lo <= report.slope <= hi, f"[{lo}, {hi}]"),
            _gate(r2_name, report.r2, report.r2 >= r2_min, f">= {r2_min}")]


def _finish(out_dir: Path, stem: str, resolved: dict, gates: list,
            extra: dict | None = None) -> int:
    summary = {
        "experiment": stem,
        "config_hash": config_hash(resolved),
        "gates": gates,
        # a command that ran no gate has shown nothing, so it cannot pass
        "status": "pass" if gates and all(g["pass"] for g in gates) else "fail",
    }
    if extra:
        summary.update(extra)
    with open(out_dir / f"{stem}_summary.json", "w", newline="\n") as f:
        json.dump(summary, f, indent=2, sort_keys=True, default=str)
        f.write("\n")
    for g in gates:
        tag = "PASS" if g["pass"] else "FAIL"
        print(f"[{tag}] {g['name']}: value={g['value']} limit={g['limit']}")
    if not gates:
        print("[FAIL] no gate ran")
    return 0 if summary["status"] == "pass" else 1


def _need_h_grid(resolved):
    grid = resolved["experiment"]["h_grid"]
    if not grid:
        raise ConfigError("missing required config key: experiment.h_grid")
    return grid


def cmd_run(resolved, out_dir):
    config = build_run_config(resolved)
    traj = run_memoryful(config)
    stem = f"run_{config.optimizer.kind.value}_{config_hash(resolved)}"
    header, rows = traj.csv_rows()
    write_csv(out_dir / f"{stem}.csv", header, rows)
    gates = [_gate("clean-run", traj.domain_exit if traj.domain_exit is not None else "none",
                   traj.domain_exit is None, "no domain exit")]
    print(f"steps={len(traj) - 1} final_loss={fmt_float(traj.loss_values[-1])}")
    return _finish(out_dir, stem, resolved, gates)


def _sweep_order_kinds(resolved):
    exp = resolved["experiment"]
    second = MemorylessKind.second(CorrectionVariant(exp["correction_variant"]))
    return {"both": [second, MemorylessKind.first()], "second": [second],
            "first": [MemorylessKind.first()]}[exp["order"]]


def cmd_sweep(resolved, out_dir):
    config = build_run_config(resolved)
    grid = _need_h_grid(resolved)
    kinds = _sweep_order_kinds(resolved)
    # one memoryful stack serves both orders
    memoryful = run_memoryful(config, hs=grid) if len(kinds) > 1 else None
    gates = []
    extra = {"reports": {}}
    for kind in kinds:
        report = global_error_sweep(config, grid, kind, memoryful=memoryful)
        tag = kind.order.value
        stem = f"sweep_{tag}_{config_hash(resolved)}"
        write_csv(out_dir / f"{stem}.csv", ["h", "max_linf_error", "status"],
                  _report_rows(report))
        extra["reports"][tag] = {"slope": report.slope, "r2": report.r2,
                                 "status": report.status}
        lo, hi = _slope_gates(resolved, *(1.7, 2.3) if tag == "second" else (0.8, 1.3))
        gates += _fit_gates(report, f"slope-{tag}", f"r2-{tag}", lo, hi,
                            resolved["experiment"]["r2_min"])
    stem = f"sweep_{resolved['experiment']['order']}_{config_hash(resolved)}"
    return _finish(out_dir, stem, resolved, gates, extra)


def cmd_defect(resolved, out_dir):
    config = build_run_config(resolved)
    grid = _need_h_grid(resolved)
    n_max = resolved["experiment"]["n_max"] or None
    report, details = defect_sweep(config, grid, n_max=n_max)
    stem = f"defect_{config.optimizer.kind.value}_{config_hash(resolved)}"
    rows = []
    for p in report.points:
        for n, dval in enumerate(details.get(p.h, [])):
            rows.append([p.h, n, dval])
    rows.append(["slope", "", report.slope])
    write_csv(out_dir / f"{stem}.csv", ["h", "n", "defect"], rows)
    lo, hi = _slope_gates(resolved, 2.7, 3.3)
    gates = _fit_gates(report, "defect-slope", "defect-r2", lo, hi,
                       resolved["experiment"]["r2_min"])
    return _finish(out_dir, stem, resolved, gates,
                   {"slope": report.slope, "r2": report.r2})


def cmd_closeness(resolved, out_dir):
    config = build_run_config(resolved)
    grid = _need_h_grid(resolved)
    tol = resolved["experiment"]["burn_in_tol"]
    n_burn = n_burn_steps(config.optimizer, tol)
    for h in grid:
        steps = floor_steps(config.horizon, h)
        if steps < n_burn:  # the ordering gate needs a step past the burn-in
            raise ConfigError(f"run.horizon={config.horizon} gives {steps} steps at h={h}, "
                              f"fewer than the {n_burn}-step burn-in "
                              f"(experiment.burn_in_tol={tol})")
    data = trajectory_closeness(config, grid)
    stem = f"closeness_{config.optimizer.kind.value}_{config_hash(resolved)}"
    rows = []
    gates = []
    fr_min = resolved["experiment"]["fraction_min"]
    for h in grid:
        per_h = data[float(h)]
        for i in range(len(per_h["n"])):
            rows.append([h, int(per_h["n"][i]), per_h["t"][i],
                         per_h["gap_second"][i], per_h["gap_first"][i]])
        exits = [f"{run}@{n}" for run, n in zip(("memoryful", "second", "first"),
                                                per_h["domain_exit"]) if n is not None]
        gates.append(_gate(f"clean-run-h={h}", ", ".join(exits) or "none", not exits,
                           "no domain exit"))
        if not exits:
            frac = ordering_fraction(per_h, n_burn)
            gates.append(_gate(f"ordering-h={h}", frac, frac >= fr_min, f">= {fr_min}"))
    write_csv(out_dir / f"{stem}.csv", ["h", "n", "t", "gap_second", "gap_first"], rows)
    return _finish(out_dir, stem, resolved, gates, {"n_burn": n_burn})


def cmd_ode_compare(resolved, out_dir):
    config = build_run_config(resolved)
    grid = _need_h_grid(resolved)
    exp = resolved["experiment"]
    report = compare_discrete_vs_ode(config, grid, dt_ratio=exp["dt_ratio"],
                                     target=exp["ode_target"])
    stem = f"ode-compare_{config.optimizer.kind.value}_{config_hash(resolved)}"
    rows = _report_rows(report)
    rows.append(["slope", report.slope, report.status])
    write_csv(out_dir / f"{stem}.csv", ["h", "max_error", "status"], rows)
    # the memoryful and finite-n targets keep an O(h) offset from the flow
    # (compare_discrete_vs_ode), so they get the first-order window
    lo, hi = _slope_gates(resolved, *(1.7, 2.3) if exp["ode_target"] == ODE_TARGETS[0]
                          else (0.8, 1.3))
    gates = _fit_gates(report, "ode-slope", "ode-r2", lo, hi, exp["r2_min"])
    return _finish(out_dir, stem, resolved, gates,
                   {"slope": report.slope, "r2": report.r2})


def cmd_minibatch_corr(resolved, out_dir):
    config = build_run_config(resolved)
    if config.loss_id != "minibatch-quadratic":
        raise ConfigError("minibatch-corr needs loss.id = minibatch-quadratic")
    if config.optimizer.kind is not Kind.HEAVY_BALL:
        raise ConfigError("minibatch-corr evaluates the heavy-ball correction; "
                          f"optimizer.kind must be heavyball, got {config.optimizer.kind.value}")
    family = family_from_config(config.loss_params, config.dimension, config.seed)
    theta = config.initial_theta()
    beta = config.optimizer.beta1
    h = config.optimizer.h
    samples = resolved["experiment"]["samples"]

    decomposed = expected_correction_decomposed(family, beta, theta, h)
    mc_mean, mc_err = expected_correction_mc(family, beta, theta, h, samples, config.seed)
    rows = []
    gates = []
    if family.size <= 7:
        exact = expected_correction_exhaustive(family, beta, theta, h)
        rows += [["exhaustive", i, exact[i], ""] for i in range(theta.size)]
        gap = float(np.max(np.abs(exact - decomposed)))
        gates.append(_gate("exhaustive-vs-decomposed", gap, gap <= 1e-10, "<= 1e-10"))
        z = float(np.max(np.abs(mc_mean - exact) / np.maximum(mc_err, 1e-300)))
        gates.append(_gate("mc-within-3-stderr", z, z <= 3.0, "<= 3"))
    rows += [["decomposed", i, decomposed[i], ""] for i in range(theta.size)]
    rows += [["mc", i, mc_mean[i], mc_err[i]] for i in range(theta.size)]

    cf = perm_coefficients(beta)
    if beta > 0.0:
        ident = abs(cf.c_eq + cf.c_neq - beta / (1.0 - beta) ** 3)
        gates.append(_gate("coefficient-identity", ident, ident <= 1e-12, "<= 1e-12"))
    mod_loss = modified_loss_minibatch(family, beta, theta, h)

    stem = f"minibatch-corr_{config.optimizer.kind.value}_{config_hash(resolved)}"
    write_csv(out_dir / f"{stem}.csv", ["method", "component", "value", "stderr"], rows)
    return _finish(out_dir, stem, resolved, gates,
                   {"modified_loss": mod_loss, "c_eq": cf.c_eq, "c_neq": cf.c_neq})


def cmd_corr_table(resolved, out_dir):
    config = build_run_config(resolved)
    loss = loss_from_config(config.loss_id, config.loss_params,
                            config.dimension, config.seed)
    theta = config.initial_theta()
    spec = config.optimizer
    n_list = resolved["experiment"]["n_list"]
    tol = resolved["experiment"]["corr_tol"]
    rows = []
    gates = []
    for n in n_list:
        brute = corr.correction_bruteforce(spec, loss, theta, int(n)).vector
        closed = corr.correction_closed(spec, loss, theta, int(n))
        contr = corr.correction_contraction(spec, loss, theta, int(n)).vector
        for i in range(theta.size):
            rows.append(["bruteforce", spec.kind.value, n, i, brute[i]])
            rows.append(["contraction", spec.kind.value, n, i, contr[i]])
            rows.append([closed.method.value, spec.kind.value, n, i, closed.vector[i]])
        scale = float(np.max(np.abs(brute))) + 1e-12
        gap = float(np.max(np.abs(closed.vector - brute))) / scale
        gates.append(_gate(f"closed-vs-brute-n={n}", gap, gap <= tol, f"<= {tol}"))
    asym = corr.correction_closed(spec, loss, theta, None)
    for i in range(theta.size):
        rows.append([asym.method.value, spec.kind.value, "inf", i, asym.vector[i]])
    stem = f"corr-table_{spec.kind.value}_{config_hash(resolved)}"
    write_csv(out_dir / f"{stem}.csv", ["method", "kind", "n", "component", "value"], rows)
    return _finish(out_dir, stem, resolved, gates)


def cmd_gradcheck(resolved, out_dir):
    config = build_run_config(resolved)
    loss = loss_from_config(config.loss_id, config.loss_params,
                            config.dimension, config.seed)
    theta = config.initial_theta()
    tol = resolved["experiment"]["gradcheck_tol"]
    from .core import rng
    g = rng(config.seed, "gradcheck")
    grad_err = fd_check_grad(loss, theta)
    hvp_err = max(fd_check_hvp(loss, theta, g.standard_normal(theta.size))
                  for _ in range(3))
    print(f"max_rel_err_grad={fmt_float(grad_err)} max_rel_err_hvp={fmt_float(hvp_err)}")
    gates = [
        _gate("grad-rel-err", grad_err, grad_err <= tol, f"<= {tol}"),
        _gate("hvp-rel-err", hvp_err, hvp_err <= tol, f"<= {tol}"),
    ]
    stem = f"gradcheck_{config.loss_id}_{config_hash(resolved)}"
    return _finish(out_dir, stem, resolved, gates)


_DISPATCH = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "defect": cmd_defect,
    "closeness": cmd_closeness,
    "ode-compare": cmd_ode_compare,
    "minibatch-corr": cmd_minibatch_corr,
    "corr-table": cmd_corr_table,
    "gradcheck": cmd_gradcheck,
}


def _schema_epilog() -> str:
    lines = ["config keys (section.key, with units):"]
    for sec, keys in SCHEMA.items():
        for key, entry in keys.items():
            lines.append(f"  {sec}.{key:<20} {entry.help} [default: {entry.default}]")
    lines.append("  loss.id                quadratic|logistic|quartic|minibatch-quadratic")
    lines.append("  loss.*                 fixture parameters, e.g. eig_min/eig_max "
                 "(quadratic), points/ridge (logistic), a (quartic), count/spread "
                 "(minibatch-quadratic), domain_radius (all)")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memlens",
        description="Numerical laboratory for optimizers with exponentially "
                    "decaying memory and their memoryless approximations.",
        epilog=_schema_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="|".join(COMMANDS))
    helps = {
        "run": "run the memoryful optimizer and write the trajectory CSV",
        "sweep": "global memoryful-vs-memoryless error over an h grid, with slope gate",
        "defect": "one-step defect sweep over an h grid, with slope gate",
        "closeness": "per-step gaps of second- and first-order memoryless runs",
        "ode-compare": "modified-equation flow versus the discrete iteration",
        "minibatch-corr": "permutation-averaged correction for a mini-batch family",
        "corr-table": "correction terms by method and step index",
        "gradcheck": "finite-difference health check of the loss oracles",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True, help="path to config file (INI or JSON)")
        p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VALUE",
                       help="override a config value (repeatable)")
        p.add_argument("--out-dir", default=None,
                       help="output directory (default: $MEMLENS_OUT_DIR or ./out)")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="accepted for compatibility; sweeps step every h as one "
                            "stack, so it affects neither results nor timing")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        resolved = resolve_config(args.config, args.set)
        out_dir = Path(args.out_dir or os.environ.get("MEMLENS_OUT_DIR", "out"))
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_manifest(out_dir, resolved)
        return _DISPATCH[args.command](resolved, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
