"""The workload process: runs one command set through `memlens.cli.main`, one
command after another, or (setup mode) only the set-up those commands need.

Usage: python3 child.py JOB.json
JOB holds "src" (directory holding the memlens package), "mode" ("run" or
"setup"), "trace" (bool), "commands" (argv lists, each with its own
--out-dir) and "result" (path of the JSON result to write; traced runs also
write their spans next to it).  Untraced processes run a hostspeed.Sampler
from start to end and report its seconds and calls.
"""
import contextlib
import io
import json
import resource
import sys
import time
import traceback

import hostspeed


def setup(commands):
    """Import, resolve every command's config and build its fixture."""
    from memlens.cli import build_parser, build_run_config, resolve_config
    from memlens.losses import family_from_config, loss_from_config

    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        config = build_run_config(resolve_config(args.config, args.set))
        if config.loss_id == "minibatch-quadratic":
            family_from_config(config.loss_params, config.dimension, config.seed)
        else:
            loss_from_config(config.loss_id, config.loss_params, config.dimension, config.seed)


def run(commands, recorder):
    from memlens.cli import main

    results = []
    for argv in commands:
        call = main if recorder is None else recorder.wrap(f"cli.{argv[0]}", main)
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = call(argv)
        except Exception:  # a traceback is a failed command, not a failed benchmark
            rc = None
            out.write(traceback.format_exc())
        results.append({"rc": rc, "seconds": time.perf_counter() - t0,
                        "output": out.getvalue()[-4000:]})
    return results


def main(job_path):
    sampler = hostspeed.Sampler()
    with open(job_path) as f:
        job = json.load(f)
    sys.path.insert(0, job["src"])
    result = {}
    if not job["trace"]:
        sampler.start()
    if job["mode"] == "setup":
        setup(job["commands"])
    else:
        recorder = None
        if job["trace"]:
            import spans
            recorder = spans.Recorder()
            result["wrapped"] = spans.install(recorder)
        result["commands"] = run(job["commands"], recorder)
        if recorder is not None:
            recorder.dump(job["result"] + ".npz")
            result["span_names"] = recorder.names
            result["counts"] = {k: v[0] for k, v in recorder.counts.items()}
    sampler.stop()
    result["sampler_s"], result["sampler_calls"] = sampler.seconds, sampler.calls
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(job["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
