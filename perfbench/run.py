"""memlens benchmark: time each workload's CLI command set end to end and, in
a separate traced run, each layer from outside.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the benchmark uses `src/` and
`configs/` next to its own directory and installs nothing.  Workloads are
listed in `perfbench/workloads.py`.

One sample is one workload process (`child.py`) that imports memlens and
runs the workload's commands through `memlens.cli.main`, one after another
(a closed loop with one client).  Samples repeat until S seconds have passed,
and at least three are taken.
`setup_s` is the median of several processes that only import memlens and
build what the commands need.  Every command must exit 0 with at least one
gate and every gate passing, its CSVs must be byte-identical to those of the
run's first sample, and the slope-gated CSVs must fit the paper's slope
windows when refitted here.

Every time in the result line is in reference seconds (see hostspeed.py):
the process's wall time, less the time of a reference kernel the process
runs every 10 ms, scaled by how much slower than its reference time that
kernel ran meanwhile.  On a shared host this removes most of the drift in
speed that other tenants cause.

With --trace 1 the first sample runs untraced and the later ones traced
(see spans.py); their CSVs must match the untraced ones byte for byte and
their span counts must repeat exactly.  Per-layer figures come from the
traced samples, which run no sampler, so their times are raw wall times.

The last line of standard output is one JSON object with the keys correct,
attempted, failed (commands) and metrics; the line before it, starting with
"report ", holds everything else: seed, machine and code context, per-command
times, every sample's time (wall_s.samples; the slowest is wall_s.max), the
raw wall times, the host's slowdown against the reference in each sample,
and all per-layer figures.
"""
import os

# One BLAS thread in this process and every process it starts: numpy's
# OpenBLAS is built for 64 threads, and on a shared two-core machine extra
# BLAS threads only add contention to d <= 20 matrix-vector products.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MIN_SAMPLES = 3  # untraced; so that the median can set one odd sample aside
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 160.0  # a run has to end within 180 s
ERROR_FLOOR = 1e3 * float(np.finfo(np.float64).eps)  # below this a metric is rounding noise
E2E = [m for m, d in workloads.METRICS.items() if d.layer == workloads.E2E]
PER_LAYER = [m for m, d in workloads.METRICS.items() if d.layer != workloads.E2E and d.listed]


def spawn(job: dict, job_path: Path):
    """Run one workload process; returns (wall seconds, result dict or None, stderr).
    Untraced processes also get result["ref_s"], their time in reference seconds."""
    job_path.write_text(json.dumps(job))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, f"killed after {CHILD_TIMEOUT_S} s"
    wall = time.perf_counter() - t0
    result_path = Path(job["result"])
    if proc.returncode != 0 or not result_path.is_file():
        return wall, None, proc.stderr[-4000:]
    result = json.loads(result_path.read_text())
    if result["sampler_calls"]:
        result["ref_s"] = hostspeed.reference_seconds(wall, result["sampler_s"],
                                                      result["sampler_calls"])
    elif not job["trace"]:
        return wall, None, "the host-speed sampler never ran"
    return wall, result, ""


def refit_slope(path: Path):
    """Least-squares log-log slope over the valid points above the rounding
    floor of a sweep, defect or ode-compare CSV; None with fewer than 3."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    per_h = {}
    for row in rows:
        if row[0] == "slope":
            continue
        if path.name.startswith("defect_"):  # h, n, defect: the sup over n
            per_h[float(row[0])] = max(per_h.get(float(row[0]), 0.0), float(row[2]))
        elif row[2] == "ok":  # h, metric, status
            per_h[float(row[0])] = float(row[1])
    pts = [(h, m) for h, m in per_h.items() if m > ERROR_FLOOR]
    if len(pts) < 3:
        return None
    x, y = np.log([p[0] for p in pts]), np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def check_command(result, out_dir: Path, reference):
    """Problems with one command's outputs (empty when correct) and its CSV digests."""
    if result is None:
        return ["no result"], {}
    problems = []
    if result["rc"] != 0:
        problems.append(f"rc={result['rc']}: {result['output'][-300:]}")
    summaries = sorted(out_dir.glob("*_summary.json"))
    gates = json.loads(summaries[0].read_text())["gates"] if len(summaries) == 1 else []
    if not gates:
        problems.append("no gate ran")
    problems += [f"gate {g['name']} failed: {g['value']}" for g in gates if not g["pass"]]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out_dir.glob("*.csv"))}
    if reference is not None and digests != reference:
        problems.append("CSV bytes differ from the run's first sample")
    for p in out_dir.glob("*.csv"):
        window = next((w for prefix, w in workloads.SLOPE_WINDOWS.items()
                       if p.name.startswith(prefix + "_")), None)
        if window is not None:
            slope = refit_slope(p)
            if slope is None or not window[0] <= slope <= window[1]:
                problems.append(f"{p.name}: refitted slope {slope} outside {window}")
    return problems, digests


def context() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for p in src:
        data = p.read_bytes()
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "commit": commit(),
            "src_lines": lines, "src_sha256": digest.hexdigest()[:16]}


def commit():
    """The checkout's git HEAD; None outside a git repository (src_sha256
    still identifies the code)."""
    try:
        # the ceiling keeps git from reporting a repository that encloses ROOT
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def bench(args, work: Path) -> int:
    cmds = workloads.commands(args.workload, args.seed)
    src = str(ROOT / "src")

    setup_job = {"src": src, "mode": "setup", "trace": False, "commands": cmds,
                 "result": str(work / "setup.json")}
    started = time.perf_counter()
    setup_times, setup_raw = [], []
    for i in range(SETUP_REPEATS + 1):  # the first one only fills the bytecode cache
        wall, result, err = spawn(setup_job, work / "setup-job.json")
        if result is None:
            print(f"perfbench: set-up failed: {err}", file=sys.stderr)
            return 1
        if i:
            setup_times.append(result["ref_s"])
            setup_raw.append(wall)

    walls, raw_walls, slowdowns, traced_walls, rss = [], [], [], [], []
    span_sets, signatures = [], []
    reference, steps, csv_bytes, seeds, wrapped = None, 0, 0, set(), []
    attempted, failed, problems = 0, 0, []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        traced = bool(args.trace) and k > 0
        set_dir = work / f"set{k}"
        out_dirs = [set_dir / f"{i}-{argv[0]}" for i, argv in enumerate(cmds)]
        job = {"src": src, "mode": "run", "trace": traced,
               "commands": [argv + ["--out-dir", str(d)] for argv, d in zip(cmds, out_dirs)],
               "result": str(work / f"result{k}.json")}
        wall, result, err = spawn(job, work / f"job{k}.json")
        if result is None:
            problems.append(f"sample {k}: workload process failed: {err[-300:]}")
        digests = []
        for i, d in enumerate(out_dirs):
            attempted += 1
            res = result["commands"][i] if result else None
            found, dig = check_command(res, d, reference[i] if reference else None)
            digests.append(dig)
            if found:
                failed += 1
                problems += [f"sample {k} {cmds[i][0]}: {p}" for p in found]
        if k == 0:
            reference = digests
            for argv, d in zip(cmds, out_dirs):
                manifest = d / "manifest.json"
                if manifest.is_file():
                    resolved = json.loads(manifest.read_text())
                    steps += workloads.steps(argv[0], resolved)
                    seeds.add(resolved["run"]["seed"])
            csv_bytes = sum(p.stat().st_size for d in out_dirs for p in d.glob("*.csv"))
        if result and traced:
            traced_walls.append(wall)
            wrapped = result["wrapped"]
            s = spans.Spans(job["result"] + ".npz", result["span_names"], result["counts"])
            span_sets.append(s)
            signatures.append((sorted(zip(result["span_names"],
                                          np.bincount(s.name).tolist())),
                               sorted(result["counts"].items())))
        elif result:
            walls.append(result["ref_s"])
            raw_walls.append(wall)
            slowdowns.append(hostspeed.slowdown(result["sampler_s"], result["sampler_calls"]))
            rss.append(result["peak_rss_kib"] / 1024.0)
        shutil.rmtree(set_dir, ignore_errors=True)
        k += 1
        now = time.perf_counter()
        if not walls:
            break  # the workload process cannot start; more samples would not help
        if now >= deadline and k >= (2 if args.trace else MIN_SAMPLES):
            break
        if now + wall > started + RUN_LIMIT_S:
            break  # one more sample would overrun the run's time limit

    if any(sig != signatures[0] for sig in signatures[1:]):
        problems.append("span counts differ between traced samples")
    if not walls or (args.trace and not span_sets):
        print("perfbench: no sample completed:\n" + "\n".join(problems[:20]), file=sys.stderr)
        return 1

    wall_s = statistics.median(walls)
    setup_s = statistics.median(setup_times)
    e2e = {"wall_s": wall_s, "steps_per_s": steps / (wall_s - setup_s), "setup_s": setup_s,
           "peak_rss_mb": statistics.median(rss)}
    report = {
        "workload": args.workload, "why": workloads.WORKLOADS[args.workload]["why"],
        "seed": args.seed, "run_seeds": sorted(seeds),
        "trace": args.trace, "samples": len(walls), "traced_samples": len(traced_walls),
        "commands": [" ".join(c) for c in cmds], "steps_per_sample": steps,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "problems": problems[:20], "context": context(),
        "end_to_end": e2e, "wall_s.max": max(walls), "wall_s.samples": walls,
        "setup_s.samples": setup_times,
        "raw": {"wall_s": raw_walls, "setup_s": setup_raw},
        "host_slowdown": slowdowns,
    }
    if args.trace:
        layer = spans.analyse(span_sets, steps, csv_bytes)
        # raw times on both sides: traced samples run no sampler
        layer["trace.overhead_s"] = (statistics.median(traced_walls)
                                     - statistics.median(raw_walls))
        report["per_layer"] = layer
        report["per_command"] = spans.per_command(span_sets)
        report["wrapped"] = wrapped
        metrics = {m: layer[m] for m in PER_LAYER}
    else:
        metrics = {m: e2e[m] for m in E2E}

    for name, value in (report.get("per_layer") or e2e).items():
        print(f"{name:38s} {value!r} {workloads.METRICS[name].unit}")
    print(f"{'fail_ratio':38s} {failed}/{attempted}")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": workloads.METRICS[m].unit} for m, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="sets run.seed on every command but those in "
                             "workloads.OWN_SEED (default: each config's own)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep starting samples until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer figures from traced samples")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "memlens" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no memlens source tree (src/memlens, configs/) in {ROOT}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
