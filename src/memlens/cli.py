"""Command-line entry point.

Every experiment is driven by a sectioned key/value config file (INI-style
sections [run], [loss], [optimizer], [experiment]; a JSON file with the same
nesting, e.g. an emitted manifest.json, is accepted interchangeably) plus
`--set section.key=value` overrides.  Outputs are CSV files and a JSON
summary named `<command>_<tag>_<hash>` under the output directory, where
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
from .core import (Kind, KSpec, OptimizerSpec, RunConfig, floor_steps, fmt_float, rng,
                   write_csv)
from .harness import (SweepReport, defect_sweep, global_error_sweep,
                      n_burn_steps, ordering_fraction, trajectory_closeness)
from .losses import (family_from_config, fd_check_grad, fd_check_hvp,
                     loss_from_config)
from .memoryful import run_memoryful
from .memoryless import CorrectionVariant, MemorylessKind
from .minibatch import (EXHAUSTIVE_MAX, expected_correction_decomposed,
                        expected_correction_exhaustive,
                        expected_correction_mc, modified_loss_minibatch,
                        perm_coefficients)
from .ode import ODE_TARGETS, compare_discrete_vs_ode, gap_order


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
    for cast in (int, float):
        try:
            return cast(s)
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
    try:
        return RunConfig(seed=int(run["seed"]), dimension=int(run["dimension"]),
                         horizon=float(run["horizon"]), loss_id=loss_id,
                         loss_params=loss, optimizer=spec, theta0=run["theta0"],
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


def _gate(name, value, ok, limit):
    return {"name": name, "value": value, "limit": limit, "pass": bool(ok)}


# the slope window of a gap of order p in h: the first-order memoryless gap
# is O(h), the second-order one and the flow's O(h^2), the defect O(h^3)
WINDOWS = {1: (0.8, 1.3), 2: (1.7, 2.3), 3: (2.7, 3.3)}


def _fit_gates(resolved, report: SweepReport, slope_name, r2_name, window):
    """Slope and r^2 gates of a sweep, with experiment.slope_min/slope_max
    overriding the window.  A degenerate fit (fewer than 3 points above the
    rounding floor) passes only when every point is valid, i.e. the errors
    sit at the floor; an invalid point makes the slope gate fail."""
    exp = resolved["experiment"]
    lo, hi = exp["slope_min"] or window[0], exp["slope_max"] or window[1]
    if report.status == "degenerate":
        invalid = [p for p in report.points if not p.valid]
        if invalid:
            notes = ", ".join(sorted({p.note for p in invalid}))
            return [_gate(slope_name, "degenerate", False,
                          f"fit needs valid points; {len(invalid)} of "
                          f"{len(report.points)} invalid ({notes})")]
        return [_gate(slope_name, "degenerate", True, "fit skipped")]
    return [_gate(slope_name, report.slope, lo <= report.slope <= hi, f"[{lo}, {hi}]"),
            _gate(r2_name, report.r2, report.r2 >= exp["r2_min"], f">= {exp['r2_min']}")]


def _require_steps(config, grid, least=1, why="a run must step past theta^(0)"):
    """Raises a ConfigError naming run.horizon and the first h of grid at
    which floor(T/h) is below least, so that no command gates runs that
    compared nothing."""
    for h in grid:
        steps = floor_steps(config.horizon, h)
        if steps < least:
            raise ConfigError(f"run.horizon={config.horizon} gives {steps} steps at h={h}, "
                              f"fewer than {least}: {why}")


def _finish(out_dir: Path, command: str, resolved: dict, tag: str, csvs: dict,
            gates: list, fields: dict) -> int:
    """Writes a command's outputs, each named <command>_<tag>_<hash> with the
    hash of the resolved config: one CSV per (header, rows) in csvs, under its
    own tag, and the summary of the gates plus fields under tag.  Prints the
    gates; returns the exit code."""
    digest = config_hash(resolved)
    for csv_tag, (header, rows) in csvs.items():
        write_csv(out_dir / f"{command}_{csv_tag}_{digest}.csv", header, rows)
    stem = f"{command}_{tag}_{digest}"
    # a command that ran no gate has shown nothing, so it cannot pass
    passed = bool(gates) and all(g["pass"] for g in gates)
    summary = {"experiment": stem, "config_hash": digest, "gates": gates,
               "status": "pass" if passed else "fail", **fields}
    with open(out_dir / f"{stem}_summary.json", "w", newline="\n") as f:
        json.dump(summary, f, indent=2, sort_keys=True, default=str)
        f.write("\n")
    for g in gates:
        mark = "PASS" if g["pass"] else "FAIL"
        print(f"[{mark}] {g['name']}: value={g['value']} limit={g['limit']}")
    if not gates:
        print("[FAIL] no gate ran")
    return 0 if passed else 1


# Every command takes the resolved config and the RunConfig built from it,
# and returns (tag, {csv_tag: (header, rows)}, gates, summary fields) for
# _finish to write.

def cmd_run(resolved, config):
    _require_steps(config, [config.optimizer.h])
    traj = run_memoryful(config)
    kind = config.optimizer.kind.value
    gates = [_gate("clean-run", traj.domain_exit if traj.domain_exit is not None else "none",
                   traj.domain_exit is None, "no domain exit")]
    print(f"steps={len(traj) - 1} final_loss={fmt_float(traj.loss_values[-1])}")
    return kind, {kind: traj.csv_rows()}, gates, {}


def cmd_sweep(resolved, config):
    exp = resolved["experiment"]
    grid = exp["h_grid"]
    _require_steps(config, grid)
    second = MemorylessKind.second(CorrectionVariant(exp["correction_variant"]))
    kinds = {"both": [second, MemorylessKind.first()], "second": [second],
             "first": [MemorylessKind.first()]}[exp["order"]]
    # one memoryful stack serves both orders
    memoryful = run_memoryful(config, hs=grid) if len(kinds) > 1 else None
    csvs, gates, reports = {}, [], {}
    for kind in kinds:
        report = global_error_sweep(config, grid, kind, memoryful=memoryful)
        tag = kind.order.value
        csvs[tag] = (["h", "max_linf_error", "status"],
                     [[p.h, p.metric, "ok" if p.valid else p.note] for p in report.points])
        reports[tag] = {"slope": report.slope, "r2": report.r2, "status": report.status,
                        **report.correction}
        gates += _fit_gates(resolved, report, f"slope-{tag}", f"r2-{tag}",
                            WINDOWS[2 if tag == "second" else 1])
    return exp["order"], csvs, gates, {"reports": reports}


def cmd_defect(resolved, config):
    _require_steps(config, resolved["experiment"]["h_grid"])
    report, details = defect_sweep(config, resolved["experiment"]["h_grid"])
    rows = [[p.h, n, dval] for p in report.points for n, dval in enumerate(details[p.h])]
    rows.append(["slope", "", report.slope])
    kind = config.optimizer.kind.value
    return (kind, {kind: (["h", "n", "defect"], rows)},
            _fit_gates(resolved, report, "defect-slope", "defect-r2", WINDOWS[3]),
            {"slope": report.slope, "r2": report.r2, **report.correction})


def cmd_closeness(resolved, config):
    exp = resolved["experiment"]
    grid = exp["h_grid"]
    tol = exp["burn_in_tol"]
    n_burn = n_burn_steps(config.optimizer, tol)
    _require_steps(config, grid, max(n_burn, 1), f"the {n_burn}-step burn-in of "
                   f"experiment.burn_in_tol={tol}, and at least one step")
    data = trajectory_closeness(config, grid)
    rows, gates = [], []
    fr_min = exp["fraction_min"]
    for h in grid:
        per_h = data[float(h)]
        rows += [[h, int(n), *rest] for n, *rest in zip(
            per_h["n"], per_h["t"], per_h["gap_second"], per_h["gap_first"])]
        exits = [f"{run}@{n}" for run, n in zip(("memoryful", "second", "first"),
                                                per_h["domain_exit"]) if n is not None]
        gates.append(_gate(f"clean-run-h={h}", ", ".join(exits) or "none", not exits,
                           "no domain exit"))
        if not exits:
            frac = ordering_fraction(per_h, n_burn)
            gates.append(_gate(f"ordering-h={h}", frac, frac >= fr_min, f">= {fr_min}"))
    kind = config.optimizer.kind.value
    return (kind, {kind: (["h", "n", "t", "gap_second", "gap_first"], rows)}, gates,
            {"n_burn": n_burn, **data[float(grid[0])]["correction"]})


def cmd_ode_compare(resolved, config):
    exp = resolved["experiment"]
    _require_steps(config, exp["h_grid"])
    report = compare_discrete_vs_ode(config, exp["h_grid"], dt_ratio=exp["dt_ratio"],
                                     target=exp["ode_target"])
    rows = [[p.h, p.metric, "ok" if p.valid else p.note] for p in report.points]
    rows.append(["slope", report.slope, report.status])
    # an offset target whose contracted update depends on n keeps an O(h)
    # offset from the flow, so it gets the first-order window
    window = WINDOWS[gap_order(config.optimizer, exp["ode_target"])]
    kind = config.optimizer.kind.value
    return (kind, {kind: (["h", "max_error", "status"], rows)},
            _fit_gates(resolved, report, "ode-slope", "ode-r2", window),
            {"slope": report.slope, "r2": report.r2, **report.correction})


def cmd_minibatch_corr(resolved, config):
    if config.loss_id != "minibatch-quadratic":
        raise ConfigError("minibatch-corr needs loss.id = minibatch-quadratic")
    if config.optimizer.kind is not Kind.HEAVY_BALL:
        raise ConfigError("minibatch-corr evaluates the heavy-ball correction; "
                          f"optimizer.kind must be heavyball, got {config.optimizer.kind.value}")
    family = family_from_config(config.loss_params, config.dimension, config.seed)
    theta = config.initial_theta()
    beta = config.optimizer.beta1
    h = config.optimizer.h

    decomposed = expected_correction_decomposed(family, beta, theta, h)
    mc_mean, mc_err = expected_correction_mc(family, beta, theta, h,
                                             resolved["experiment"]["samples"], config.seed)
    rows, gates = [], []
    if family.size <= EXHAUSTIVE_MAX:
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
    fields = {"modified_loss": modified_loss_minibatch(family, beta, theta, h),
              "c_eq": cf.c_eq, "c_neq": cf.c_neq}
    kind = config.optimizer.kind.value
    return kind, {kind: (["method", "component", "value", "stderr"], rows)}, gates, fields


def cmd_corr_table(resolved, config):
    loss = loss_from_config(config.loss_id, config.loss_params,
                            config.dimension, config.seed)
    theta = config.initial_theta()
    spec = config.optimizer
    kind = spec.kind.value
    tol = resolved["experiment"]["corr_tol"]
    rows, gates = [], []
    for n in resolved["experiment"]["n_list"]:
        brute = corr.correction_bruteforce(spec, loss, theta, int(n)).vector
        closed = corr.correction_closed(spec, loss, theta, int(n))
        contr = corr.correction_contraction(spec, loss, theta, int(n)).vector
        for i in range(theta.size):
            rows.append(["bruteforce", kind, n, i, brute[i]])
            rows.append(["contraction", kind, n, i, contr[i]])
            rows.append([closed.method.value, kind, n, i, closed.vector[i]])
        scale = float(np.max(np.abs(brute))) + 1e-12
        for name, vector in (("closed", closed.vector), ("contraction", contr)):
            gap = float(np.max(np.abs(vector - brute))) / scale
            gates.append(_gate(f"{name}-vs-brute-n={n}", gap, gap <= tol, f"<= {tol}"))
    asym = corr.correction_closed(spec, loss, theta, None)
    for i in range(theta.size):
        rows.append([asym.method.value, kind, "inf", i, asym.vector[i]])
    return kind, {kind: (["method", "kind", "n", "component", "value"], rows)}, gates, {}


def cmd_gradcheck(resolved, config):
    loss = loss_from_config(config.loss_id, config.loss_params,
                            config.dimension, config.seed)
    theta = config.initial_theta()
    tol = resolved["experiment"]["gradcheck_tol"]
    g = rng(config.seed, "gradcheck")
    grad_err = fd_check_grad(loss, theta)
    hvp_err = max(fd_check_hvp(loss, theta, g.standard_normal(theta.size))
                  for _ in range(3))
    print(f"max_rel_err_grad={fmt_float(grad_err)} max_rel_err_hvp={fmt_float(hvp_err)}")
    gates = [
        _gate("grad-rel-err", grad_err, grad_err <= tol, f"<= {tol}"),
        _gate("hvp-rel-err", hvp_err, hvp_err <= tol, f"<= {tol}"),
    ]
    return config.loss_id, {}, gates, {}


# command -> (function, help)
COMMANDS = {
    "run": (cmd_run, "run the memoryful optimizer and write the trajectory CSV"),
    "sweep": (cmd_sweep, "global memoryful-vs-memoryless error over an h grid, "
                         "with slope gate"),
    "defect": (cmd_defect, "one-step defect sweep over an h grid, with slope gate"),
    "closeness": (cmd_closeness, "per-step gaps of second- and first-order memoryless runs"),
    "ode-compare": (cmd_ode_compare, "modified-equation flow versus the discrete iteration"),
    "minibatch-corr": (cmd_minibatch_corr,
                       "permutation-averaged correction for a mini-batch family"),
    "corr-table": (cmd_corr_table, "correction terms by method and step index"),
    "gradcheck": (cmd_gradcheck, "finite-difference health check of the loss oracles"),
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
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
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
        function, _ = COMMANDS[args.command]
        return _finish(out_dir, args.command, resolved,
                       *function(resolved, build_run_config(resolved)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
