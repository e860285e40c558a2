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

import numpy as np

from . import correction as corr
from .core import Kind, KSpec, OptimizerSpec, RunConfig, fmt_float, write_csv
from .harness import (SweepReport, defect_sweep, global_error_sweep,
                      n_burn_steps, ordering_fraction, trajectory_closeness)
from .losses import (family_from_config, fd_check_grad, fd_check_hvp,
                     loss_from_config)
from .memoryful import run_memoryful
from .memoryless import CorrectionVariant, MemorylessKind
from .minibatch import (expected_correction_decomposed, expected_correction_exhaustive,
                        expected_correction_mc, modified_loss_minibatch,
                        perm_coefficients)
from .ode import compare_discrete_vs_ode

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


# section -> key -> (parser, default, help text with units).  [loss] accepts
# additional per-loss parameters validated by the loss factory itself.
SCHEMA = {
    "run": {
        "seed": (int, 0, "64-bit RNG seed (dimensionless)"),
        "dimension": (int, 2, "parameter dimension d (count)"),
        "horizon": (float, 1.0, "time horizon T (time units; iterations = floor(T/h))"),
        "theta0": (_parse_theta0, "gauss", "initial point: gauss|zeros|ones or comma floats"),
        "theta0_scale": (float, 1.0, "scale of the gauss initial point (dimensionless)"),
    },
    "optimizer": {
        "kind": (str, None, "heavyball|nesterov|adamw|nadamw|lionk|signum"),
        "h": (float, None, "learning rate / step size (time units per step)"),
        "beta1": (float, 0.0, "first momentum parameter in [0,1) (rho1 for lionk)"),
        "beta2": (float, 0.0, "second momentum parameter in [0,1) (rho2 for lionk)"),
        "lambda": (float, 0.0, "decoupled weight decay coefficient (1/time)"),
        "eps": (float, 1e-8, "stability / smoothing parameter (dimensionless, > 0)"),
        "kspec": (str, "smoothed-one-norm",
                  "lionk convexity choice: smoothed-one-norm|half-squared-two-norm"),
        "bias_correction": (_parse_bool, None,
                            "n-dependent average prefactors (default: kind-specific)"),
    },
    "experiment": {
        "h_grid": (_parse_floats, (), "comma list of step sizes for sweeps (time units)"),
        "order": (str, "second", "memoryless flavor: first|second|both"),
        "correction_variant": (str, "finite-n", "finite-n|asymptotic"),
        "samples": (int, 2000, "Monte Carlo sample count (count, >= 100)"),
        "n_list": (_parse_ints, (1, 5, 50, 200), "step indices for corr-table (count)"),
        "n_max": (int, 0, "cap on defect steps per h; 0 = no cap (count)"),
        "dt_ratio": (int, 8, "ODE integrator substeps per h (count, >= 4)"),
        "ode_target": (str, "memoryless-asymptotic",
                       "discrete side of ode-compare: memoryless-asymptotic|"
                       "memoryless-finite-n|memoryful"),
        "slope_min": (float, 0.0, "lower slope gate; 0 = per-command default"),
        "slope_max": (float, 0.0, "upper slope gate; 0 = per-command default"),
        "r2_min": (float, 0.98, "minimum r^2 for an asserted slope (dimensionless)"),
        "fraction_min": (float, 0.95, "closeness ordering gate (fraction of steps)"),
        "corr_tol": (float, 1e-6, "relative gap gate for corr-table (dimensionless)"),
        "gradcheck_tol": (float, 1e-5, "relative error gate for gradcheck (dimensionless)"),
        "burn_in_tol": (float, 1e-10, "coefficient tail defining the burn-in cutoff"),
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
            parser = SCHEMA[sec][key][0]
            try:
                out[key] = value if not isinstance(value, str) else parser(value)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"bad value for {sec}.{key}: {value!r} ({exc})") from exc
        resolved[sec] = out

    for sec, keys in SCHEMA.items():
        resolved.setdefault(sec, {})
        for key, (_, default, _help) in keys.items():
            if key not in resolved[sec]:
                if default is None and not (sec == "optimizer" and key == "bias_correction"):
                    raise ConfigError(f"missing required config key: {sec}.{key}")
                resolved[sec].setdefault(key, default)

    loss_sec = dict(raw.get("loss", {}))
    if "id" not in loss_sec:
        raise ConfigError("missing required config key: loss.id")
    resolved["loss"] = {k: (v if not isinstance(v, str) else _coerce_scalar(v))
                        for k, v in loss_sec.items()}

    # kind-specific bias default
    kind = _kind_from_string(resolved["optimizer"]["kind"])
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


def _kind_from_string(s: str) -> Kind:
    try:
        return Kind(str(s).strip().lower())
    except ValueError as exc:
        raise ConfigError(f"unknown optimizer kind: {s!r}") from exc


def build_run_config(resolved: dict) -> RunConfig:
    opt = resolved["optimizer"]
    kind = _kind_from_string(opt["kind"])
    try:
        kspec = KSpec(str(opt["kspec"]).strip().lower())
    except ValueError as exc:
        raise ConfigError(f"unknown kspec: {opt['kspec']!r}") from exc
    try:
        spec = OptimizerSpec(kind=kind, h=float(opt["h"]), beta1=float(opt["beta1"]),
                             beta2=float(opt["beta2"]), lam=float(opt["lambda"]),
                             eps=float(opt["eps"]), kspec=kspec,
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


def _finish(out_dir: Path, stem: str, resolved: dict, gates: list,
            extra: dict | None = None) -> int:
    summary = {
        "experiment": stem,
        "config_hash": config_hash(resolved),
        "gates": gates,
        "status": "pass" if all(g["pass"] for g in gates) else "fail",
    }
    if extra:
        summary.update(extra)
    with open(out_dir / f"{stem}_summary.json", "w", newline="\n") as f:
        json.dump(summary, f, indent=2, sort_keys=True, default=str)
        f.write("\n")
    for g in gates:
        tag = "PASS" if g["pass"] else "FAIL"
        print(f"[{tag}] {g['name']}: value={g['value']} limit={g['limit']}")
    return 0 if summary["status"] == "pass" else 1


def _need_h_grid(resolved):
    grid = resolved["experiment"]["h_grid"]
    if not grid:
        raise ConfigError("missing required config key: experiment.h_grid")
    if not all(0.0 < h < math.inf for h in grid):
        raise ConfigError(f"experiment.h_grid entries must be finite and > 0, got {grid}")
    return grid


def cmd_run(resolved, out_dir, jobs):
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
    order = resolved["experiment"]["order"]
    variant = CorrectionVariant(resolved["experiment"]["correction_variant"])
    if order == "both":
        return [MemorylessKind.second(variant), MemorylessKind.first()]
    if order == "second":
        return [MemorylessKind.second(variant)]
    if order == "first":
        return [MemorylessKind.first()]
    raise ConfigError(f"experiment.order must be first|second|both, got {order!r}")


def cmd_sweep(resolved, out_dir, jobs):
    config = build_run_config(resolved)
    grid = _need_h_grid(resolved)
    gates = []
    extra = {"reports": {}}
    for kind in _sweep_order_kinds(resolved):
        report = global_error_sweep(config, grid, kind, jobs=jobs)
        tag = kind.order.value
        stem = f"sweep_{tag}_{config_hash(resolved)}"
        write_csv(out_dir / f"{stem}.csv", ["h", "max_linf_error", "status"],
                  _report_rows(report))
        extra["reports"][tag] = {"slope": report.slope, "r2": report.r2,
                                 "status": report.status}
        if report.status == "degenerate":
            gates.append(_gate(f"slope-{tag}", "degenerate", True, "fit skipped"))
            continue
        lo, hi = _slope_gates(resolved, *(1.7, 2.3) if tag == "second" else (0.8, 1.3))
        r2_min = resolved["experiment"]["r2_min"]
        gates.append(_gate(f"slope-{tag}", report.slope,
                           lo <= report.slope <= hi, f"[{lo}, {hi}]"))
        gates.append(_gate(f"r2-{tag}", report.r2, report.r2 >= r2_min, f">= {r2_min}"))
    stem = f"sweep_{resolved['experiment']['order']}_{config_hash(resolved)}"
    return _finish(out_dir, stem, resolved, gates, extra)


def cmd_defect(resolved, out_dir, jobs):
    config = build_run_config(resolved)
    grid = _need_h_grid(resolved)
    n_max = resolved["experiment"]["n_max"] or None
    report, details = defect_sweep(config, grid, n_max=n_max, jobs=jobs)
    stem = f"defect_{config.optimizer.kind.value}_{config_hash(resolved)}"
    rows = []
    for p in report.points:
        for n, dval in enumerate(details.get(p.h, [])):
            rows.append([p.h, n, dval])
    rows.append(["slope", "", report.slope])
    write_csv(out_dir / f"{stem}.csv", ["h", "n", "defect"], rows)
    gates = []
    if report.status == "degenerate":
        gates.append(_gate("defect-slope", "degenerate", True, "fit skipped"))
    else:
        lo, hi = _slope_gates(resolved, 2.7, 3.3)
        r2_min = resolved["experiment"]["r2_min"]
        gates.append(_gate("defect-slope", report.slope,
                           lo <= report.slope <= hi, f"[{lo}, {hi}]"))
        gates.append(_gate("defect-r2", report.r2, report.r2 >= r2_min, f">= {r2_min}"))
    return _finish(out_dir, stem, resolved, gates,
                   {"slope": report.slope, "r2": report.r2})


def cmd_closeness(resolved, out_dir, jobs):
    config = build_run_config(resolved)
    grid = _need_h_grid(resolved)
    data = trajectory_closeness(config, grid)
    n_burn = n_burn_steps(config.optimizer, resolved["experiment"]["burn_in_tol"])
    stem = f"closeness_{config.optimizer.kind.value}_{config_hash(resolved)}"
    rows = []
    gates = []
    fr_min = resolved["experiment"]["fraction_min"]
    for h in grid:
        per_h = data[float(h)]
        for i in range(len(per_h["n"])):
            rows.append([h, int(per_h["n"][i]), per_h["t"][i],
                         per_h["gap_second"][i], per_h["gap_first"][i]])
        frac = ordering_fraction(per_h, n_burn)
        gates.append(_gate(f"ordering-h={h}", frac, frac >= fr_min, f">= {fr_min}"))
    write_csv(out_dir / f"{stem}.csv", ["h", "n", "t", "gap_second", "gap_first"], rows)
    return _finish(out_dir, stem, resolved, gates, {"n_burn": n_burn})


def cmd_ode_compare(resolved, out_dir, jobs):
    config = build_run_config(resolved)
    grid = _need_h_grid(resolved)
    exp = resolved["experiment"]
    report = compare_discrete_vs_ode(config, grid, dt_ratio=exp["dt_ratio"],
                                     target=exp["ode_target"])
    stem = f"ode-compare_{config.optimizer.kind.value}_{config_hash(resolved)}"
    rows = _report_rows(report)
    rows.append(["slope", report.slope, report.status])
    write_csv(out_dir / f"{stem}.csv", ["h", "max_error", "status"], rows)
    gates = []
    if report.status == "degenerate":
        gates.append(_gate("ode-slope", "degenerate", True, "fit skipped"))
    else:
        lo, hi = _slope_gates(resolved, 1.7, 2.3)
        gates.append(_gate("ode-slope", report.slope,
                           lo <= report.slope <= hi, f"[{lo}, {hi}]"))
        gates.append(_gate("ode-r2", report.r2, report.r2 >= exp["r2_min"],
                           f">= {exp['r2_min']}"))
    return _finish(out_dir, stem, resolved, gates,
                   {"slope": report.slope, "r2": report.r2})


def cmd_minibatch_corr(resolved, out_dir, jobs):
    config = build_run_config(resolved)
    if config.loss_id != "minibatch-quadratic":
        raise ConfigError("minibatch-corr needs loss.id = minibatch-quadratic")
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


def cmd_corr_table(resolved, out_dir, jobs):
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


def cmd_gradcheck(resolved, out_dir, jobs):
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
        for key, (_, default, help_text) in keys.items():
            lines.append(f"  {sec}.{key:<20} {help_text} [default: {default}]")
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
                       help="parallel sweep points; affects wall-clock only")
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
        return _DISPATCH[args.command](resolved, out_dir, max(1, args.jobs))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
