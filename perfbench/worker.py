"""One fresh interpreter per measurement; run.py starts it and reads the
JSON object on the last line of its stdout.

    worker.py setup   WORKLOAD SEED
    worker.py measure WORKLOAD SEED SECONDS
    worker.py trace   WORKLOAD SEED SPANS_FILE
    worker.py record  WORKLOAD

`setup` times the import of drinfeld plus the construction of every
field and session the workload uses.  `measure` sets up the same way,
then runs whole passes over the job list, one job after another (a
closed loop with one client), as many as fit in SECONDS and at least
MIN_PASSES.  Both report times at the reference speed of speed.py, and
the raw ones beside them.  `trace` runs one pass untraced, one with
spans, one with counters, then the kernel probes.  `record` prints the
exit code and stdout digest of every job of the default seed.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import speed  # noqa: E402
import workloads as W  # noqa: E402

MIN_PASSES = 2
REFERENCE = os.path.join(HERE, "reference.json")


def _expected(workload, seed, jobs):
    """Per-job (exit code, digest) for the default seed, else exit 0
    and no digest."""
    if seed != W.DEFAULT_SEED:
        return [(0, None)] * len(jobs)
    with open(REFERENCE, encoding="ascii") as fh:
        ref = json.load(fh)[workload]
    if [row[0] for row in ref] != [W.job_label(j) for j in jobs]:
        raise SystemExit("reference.json does not match the %s job list; "
                         "rerun run.py --record" % workload)
    return [(rc, dig) for _label, rc, dig in ref]


def _setup(workload, seed):
    """Job list, built sessions, and the (start, end) span of the set-up."""
    jobs = W.make_jobs(workload, seed)
    t0 = time.perf_counter()
    sessions = W.build_sessions(jobs)
    return jobs, sessions, (t0, time.perf_counter())


def _run_pass(jobs, sessions, expected):
    """(start, end) spans, stdout digests and failure reasons of one
    pass."""
    spans, digests, failures = [], [], []
    for i, job in enumerate(jobs):
        t0 = time.perf_counter()
        rc, out, err = W.run_job(job, sessions)
        spans.append((t0, time.perf_counter()))
        digests.append(W.digest(out))
        why = W.check_output(rc, out, *expected[i])
        if why:
            failures.append({"job": W.job_label(job), "why": why,
                             "stderr": err[-2000:]})
    return spans, digests, failures


def _wall(spans):
    return sum(b - a for a, b in spans)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cmd_setup(workload, seed):
    with speed.Meter() as meter:
        _, _, span = _setup(workload, seed)
    return {"setup_s": meter.scale(*span), "raw_setup_s": span[1] - span[0]}


def cmd_measure(workload, seed, seconds):
    jobs, sessions, _ = _setup(workload, seed)
    expected = _expected(workload, seed, jobs)
    passes, failures = [], []
    with speed.Meter() as meter:
        deadline = time.perf_counter() + seconds
        last = 0.0
        # a pass starts only if one as long as the last still ends in time
        while (len(passes) < MIN_PASSES
               or time.perf_counter() + last <= deadline):
            t0 = time.perf_counter()
            spans, _, pf = _run_pass(jobs, sessions, expected)
            last = time.perf_counter() - t0
            passes.append(spans)
            failures.extend(pf)
    lat = [[meter.scale(a, b) for a, b in spans] for spans in passes]
    return {"pass_walls": [sum(pl) for pl in lat],
            "latencies": [x for pl in lat for x in pl],
            "raw_jobs_s": sum(_wall(spans) for spans in passes),
            "jobs_per_pass": len(jobs), "attempted": len(jobs) * len(passes),
            "failed": len(failures), "failures": failures[:5],
            "calibrations": meter.samples(),
            "peak_rss_mb": _peak_rss_mb()}


def cmd_trace(workload, seed, spans_file):
    import tracer
    import probes
    jobs = W.make_jobs(workload, seed)
    expected = _expected(workload, seed, jobs)
    setup_tr = tracer.Tracer()
    import drinfeld.cli  # noqa: F401  (the wrappers patch loaded modules)
    setup_tr.install(tracer.setup_targets())
    sessions = W.build_sessions(jobs)
    setup_tr.uninstall()
    ff_setup = setup_tr.summary()[0].get("ff.setup", {}).get("incl_s", 0.0)

    # the two passes whose ratio is the tracing overhead run under a
    # meter, so that a change in the box's speed between them cancels
    with speed.Meter() as meter:
        plain, plain_dig, failures = _run_pass(jobs, sessions, expected)
        tr = tracer.Tracer()
        tr.install(tracer.span_targets())
        traced, traced_dig, f2 = _run_pass(jobs, sessions, expected)
        tr.uninstall()
    plain_wall, traced_wall = _wall(plain), _wall(traced)

    ctr = tracer.Counter()
    ctr.install()
    _, counted_dig, f3 = _run_pass(jobs, sessions, expected)
    ctr.uninstall()

    failures += f2 + f3
    for i, job in enumerate(jobs):
        if not plain_dig[i] == traced_dig[i] == counted_dig[i]:
            failures.append({"job": W.job_label(job),
                             "why": ["traced or counted output differs "
                                     "from the untraced output"]})
    tr.write(spans_file)
    spans, pairs = tr.summary()
    metrics = layer_metrics(spans, pairs, ctr.counts)
    metrics["ff.setup_s"] = ff_setup
    metrics["trace.overhead_frac"] = (
        sum(meter.scale(a, b) for a, b in traced)
        / sum(meter.scale(a, b) for a, b in plain) - 1.0)
    metrics.update(probes.run_probes())
    return {"metrics": metrics, "attempted": 3 * len(jobs),
            "failed": len(failures), "failures": failures[:5],
            "plain_wall_s": plain_wall, "traced_wall_s": traced_wall,
            "self_s_total": sum(r["self_s"] for r in spans.values()),
            "counts": ctr.counts,
            "spans": {k: v for k, v in sorted(spans.items())}}


def layer_metrics(spans, pairs, counts):
    """The per-layer metric set from span totals and exact counts."""
    from tracer import MUL_CLASSES

    def sp(name, field):
        return spans.get(name, {}).get(field, 0 if field == "calls" else 0.0)

    out = {}
    for name, fields in (
            ("cli", ("calls", "self_s")),
            ("agf.main_theorem", ("calls", "incl_s", "self_s")),
            ("agf.deformed_log", ("incl_s",)),
            ("agf.omega", ("incl_s",)),
            ("agf.b_seq", ("calls", "incl_s")),
            ("periods.torsion", ("calls", "incl_s")),
            ("periods.period", ("incl_s",)),
            ("periods.quasi_period", ("incl_s",)),
            ("periods.legendre", ("incl_s",)),
            ("modules.coeffs", ("incl_s",)),
            ("modules.bracketfrac.add", ("calls", "self_s")),
            ("modules.bracketfrac.to_laurent", ("incl_s",)),
            ("modules.compose_check", ("incl_s",)),
            ("modules.eval", ("incl_s",)),
            ("partitions.enumerate", ("calls", "self_s")),
            ("tate.mul", ("calls", "self_s", "incl_s")),
            ("tate.add", ("self_s",)),
            ("tate.scale", ("self_s",)),
            ("tate.to_series", ("calls", "incl_s")),
            ("laurent.add", ("calls", "self_s")),
            ("laurent.invert", ("calls", "self_s")),
            ("laurent.root", ("calls", "self_s")),
            ("laurent.pow_q", ("self_s",))):
        for f in fields:
            out["%s.%s" % (name, f)] = sp(name, f)
    out["tate.mul.coeff_muls"] = sum(
        n for (p, c), n in pairs.items()
        if p == "tate.mul" and c.startswith("laurent.mul."))
    for c in MUL_CLASSES:
        out["laurent.mul.calls." + c] = sp("laurent.mul." + c, "calls")
        out["laurent.mul.self_s." + c] = sp("laurent.mul." + c, "self_s")
        out["laurent.mul.term_pairs." + c] = counts.get(
            "laurent.mul.term_pairs." + c, 0)
    full = counts.get("laurent.mul.window_full", 0)
    out["laurent.mul.kept_frac"] = (
        counts.get("laurent.mul.window_kept", 0) / full if full else 1.0)
    out["laurent.elems"] = counts.get("laurent.elems", 0)
    out["partitions.enumerate.out"] = counts.get("partitions.enumerate.out", 0)
    total = counts.get("partitions.enumerate.all", 0)
    out["partitions.kept_frac"] = (
        out["partitions.enumerate.out"] / total if total else 1.0)
    for op in ("mul", "add", "inv", "frob"):
        out["ff.%s.calls" % op] = counts.get("ff.%s.calls" % op, 0)
    return out


def cmd_record(workload):
    jobs, sessions, _ = _setup(workload, W.DEFAULT_SEED)
    rows = []
    for job in jobs:
        rc, out, err = W.run_job(job, sessions)
        why = W.check_output(rc, out)
        if why:
            raise SystemExit("default-seed job fails, not recording: %s: %s"
                             "\n%s" % (W.job_label(job), why, err))
        rows.append([W.job_label(job), rc, W.digest(out)])
    return {"jobs": rows}


def main(argv):
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        res = cmd_setup(workload, int(argv[2]))
    elif mode == "measure":
        res = cmd_measure(workload, int(argv[2]), float(argv[3]))
    elif mode == "trace":
        res = cmd_trace(workload, int(argv[2]), argv[3])
    elif mode == "record":
        res = cmd_record(workload)
    else:
        raise SystemExit("unknown mode %r" % mode)
    sys.stdout.write(json.dumps(res) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
