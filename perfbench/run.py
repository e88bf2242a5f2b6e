"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record     # rewrite perfbench/reference.json

Run from the root of a checkout.  Every measurement happens in a fresh
interpreter (worker.py) that imports the program from src/.  With
--trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer ones; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Everything printed
before it is a human-readable report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads as W  # noqa: E402

# Fresh interpreters timed for setup_s; the first one of a run also
# compiles the bytecode of a new checkout and is not counted.
SETUP_SAMPLES = 11
CHILD_TIMEOUT = 170
OUT_DIR = os.path.join(HERE, "out")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "jobs_per_s": "1/s",
             "job_p50_s": "s", "job_tail_s": "s", "peak_rss_mb": "MB"}


def _child(args, timeout=CHILD_TIMEOUT):
    """Run worker.py in a fresh interpreter; return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")]
                          + [str(a) for a in args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited %d:\n%s"
                           % (" ".join(map(str, args)), proc.returncode,
                              proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n):
    """The highest of p99, p90, p50 with at least ten of n samples
    beyond it; n is fixed per workload so the percentile is too."""
    for p in (99, 90, 50):
        if n * (100 - p) // 100 >= 10:
            return p
    return 100


def percentile(sorted_vals, p):
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_vals) - 1,
                   -(-p * len(sorted_vals) // 100) - 1))
    return sorted_vals[k]


def end_to_end(workload, seed, seconds):
    _child(["setup", workload, seed])  # bytecode warm-up, not counted
    setups = [_child(["setup", workload, seed])
              for _ in range(SETUP_SAMPLES)]
    res = _child(["measure", workload, seed, seconds])
    # a job's latency is its median over the passes, so a percentile
    # does not pick one noisy sample out of a cluster of equal jobs
    n = res["jobs_per_pass"]
    lat = sorted(statistics.median(res["latencies"][i::n]) for i in range(n))
    walls = res["pass_walls"]
    p_tail = tail_percentile(2 * res["jobs_per_pass"])
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(walls),
        "jobs_per_s": res["attempted"] / sum(walls),
        "job_p50_s": percentile(lat, 50),
        "job_tail_s": percentile(lat, p_tail),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": "median of %d fresh interpreters (raw %.4f s)"
                   % (len(setups), statistics.median(
                       s["raw_setup_s"] for s in setups)),
        "wall_s": "median of %d passes of %d jobs"
                  % (len(walls), res["jobs_per_pass"]),
        "jobs_per_s": "%d jobs in %.2f s" % (res["attempted"], sum(walls)),
        "job_p50_s": "p50 of %d jobs, each the median of %d passes"
                     % (n, len(walls)),
        "job_tail_s": "p%d of the same" % p_tail,
        "peak_rss_mb": "ru_maxrss of the measuring interpreter",
    }
    failed_frac = res["failed"] / res["attempted"]
    for name, value in metrics.items():
        print("%-12s %14.6f %-4s %s" % (name, value, E2E_UNITS[name],
                                        notes[name]))
    print("%-12s %14.6f %-4s %d of %d jobs failed"
          % ("failed_frac", failed_frac, "1", res["failed"],
             res["attempted"]))
    cal = res["calibrations"]
    print("times are at the reference speed, where the calibration routine "
          "takes %.3f ms; in this run it took %.3f-%.3f ms (median %.3f ms, "
          "%d samples), and the jobs took %.2f s raw, %.2f s scaled"
          % (1e3 * speed.REF_S, 1e3 * min(cal), 1e3 * max(cal),
             1e3 * statistics.median(cal), len(cal), res["raw_jobs_s"],
             sum(walls)))
    return res, {k: {"value": v, "unit": E2E_UNITS[k]}
                 for k, v in metrics.items()}


def per_layer(workload, seed):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        layer_units = {m["name"]: m["unit"]
                       for m in json.load(fh)["per_layer"]}
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_file = os.path.join(OUT_DIR, "spans-%s-%d.jsonl.gz"
                              % (workload, seed))
    res = _child(["trace", workload, seed, spans_file])
    metrics = res["metrics"]
    for name in sorted(metrics):
        print("%-44s %16.6f %s" % (name, metrics[name],
                                   layer_units.get(name, "")))
    print("traced wall %.3f s, untraced %.3f s, summed self time %.3f s; "
          "spans in %s" % (res["traced_wall_s"], res["plain_wall_s"],
                           res["self_s_total"],
                           os.path.relpath(spans_file, ROOT)))
    with open(os.path.join(OUT_DIR, "layers-%s-%d.json" % (workload, seed)),
              "w", encoding="ascii") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    return res, {k: {"value": metrics[k], "unit": u}
                 for k, u in layer_units.items()}


def record():
    ref = {}
    for workload in W.WORKLOADS:
        ref[workload] = _child(["record", workload], timeout=900)["jobs"]
        print("%s: %d jobs recorded" % (workload, len(ref[workload])))
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="ascii") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the default-seed reference digests")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "drinfeld", "cli.py")):
        sys.exit("run.py: no program source at src/drinfeld; run from the "
                 "root of a drinfeld checkout")
    if args.record:
        record()
        return
    if args.workload is None:
        ap.error("--workload is required")
    if args.trace:
        res, metrics = per_layer(args.workload, args.seed)
    else:
        res, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for f in res["failures"]:
        print("FAILED %s: %s" % (f["job"], "; ".join(f["why"])),
              file=sys.stderr)
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
