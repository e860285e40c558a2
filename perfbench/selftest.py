"""The benchmark's own test.

    python3 perfbench/selftest.py

For seed SEED and each workload it makes two traced runs (each: one untraced
sample, then one traced sample) and checks that

  * both runs are correct: every command passed its gates, and the traced
    sample wrote CSVs byte-identical to the untraced sample's, so the
    wrappers change no result;
  * every count figure (unit "count") repeats exactly between the two runs,
    so counts can support count-based claims;
  * the traced time sits where the workload's "focus" predicts;

and that BENCHMARK.json lists exactly the metrics workloads.py marks as
listed, with the same units, and that those are exactly the per-layer
figures that are nonzero on every workload.  Exits 0 when every check holds.
"""
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SEED = 3


def traced_run(workload: str, seed: int):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", "1"],
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2][len("report "):])


def check_benchmark_json() -> list[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {kind: [(m["name"], m["unit"]) for m in spec[kind]]
              for kind in ("end_to_end", "per_layer")}
    expected = {
        "end_to_end": [(n, d.unit) for n, d in workloads.METRICS.items()
                       if d.layer == workloads.E2E],
        "per_layer": [(n, d.unit) for n, d in workloads.METRICS.items()
                      if d.layer != workloads.E2E and d.listed],
    }
    problems = [f"BENCHMARK.json {kind} differs from workloads.METRICS"
                for kind in listed if sorted(listed[kind]) != sorted(expected[kind])]
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return problems


def main() -> int:
    problems = check_benchmark_json()
    nonzero = None  # per-layer figures nonzero on every workload so far
    for name in workloads.WORKLOADS:
        runs = [traced_run(name, SEED) for _ in range(2)]
        for i, (result, _) in enumerate(runs):
            if not result["correct"] or result["failed"]:
                problems.append(f"{name}: run {i + 1} not correct")
        first, second = (report["per_layer"] for _, report in runs)
        here = {m for m, v in first.items() if v != 0}
        nonzero = here if nonzero is None else nonzero & here
        counts = [m for m in first if workloads.METRICS[m].unit == "count"]
        problems += [f"{name}: {m} {first[m]} then {second[m]}"
                     for m in counts if first[m] != second[m]]
        text, holds = workloads.WORKLOADS[name]["focus"]
        if not holds(first):
            problems.append(f"{name}: prediction failed: {text}")
        print(f"{name}: {len(counts)} counts repeat; focus: {text}", flush=True)
    listed = {m for m, d in workloads.METRICS.items() if d.layer != workloads.E2E and d.listed}
    problems += [f"{m} is listed but reads 0 on some workload" for m in sorted(listed - nonzero)]
    problems += [f"{m} is nonzero on every workload but not listed"
                 for m in sorted(nonzero - listed)]
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
