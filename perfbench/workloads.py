"""Seeded job lists for the benchmark workloads, the job runner and the
output checks.

A job is a plain dict, so a job list can be generated, compared and
stored without importing the program:

    {"kind": "cli", "argv": [...], "session": {...}}
    {"kind": "api", "fn": "<name in API_JOBS>", "args": {...},
     "session": {...}}

`session` names the field and module the job uses; the set-up phase
builds every distinct one before the first job runs.  CLI jobs still
build their own session per call, as a caller of the command line does.

Each workload is a fixed list of slots.  The seed draws the inputs that
keep a slot's cost roughly constant (evaluation points, nonzero
coefficient values, the job order), so that runs on different seeds
measure comparable work.
"""

import contextlib
import hashlib
import io
import json
import random
import traceback

WORKLOADS = ("t-deform", "closed-forms", "small-sessions")
DEFAULT_SEED = 0

# Output keys that carry a verdict; any of them false fails the job.
FLAG_KEYS = ("pass", "holds", "match", "compose_check", "at_theta_is_beta",
             "minus_residue_is_u")

# The shipped presets as session parameters (q, s, m, A).  A copy, not an
# import of drinfeld.verify.PRESETS: the inputs must stay the same when
# a change to the program edits its presets.
PRESETS = {
    "carlitz-q2": (2, 1, 1, ((1,),)),
    "carlitz-q3": (3, 2, 2, ((1,),)),
    "rank2-q2": (2, 2, 3, ((1,), (1,))),
    "rank3-q2": (2, 1, 1, ((1,), (1,), (1,))),
}


def _session(q, s, m, A, ucap):
    return {"q": q, "s": s, "m": m, "ucap": ucap,
            "A": [list(c) for c in A]}


def _preset_session(name, ucap=None):
    q, s, m, A = PRESETS[name]
    return _session(q, s, m, A, 64 * m if ucap is None else ucap)


def _a_text(A):
    return ";".join(",".join(str(c) for c in poly) for poly in A)


def _free_argv(sess):
    return ["--q", str(sess["q"]), "--s", str(sess["s"]),
            "--m", str(sess["m"]), "--A", _a_text(sess["A"])]


def _cli(argv, sess):
    return {"kind": "cli", "argv": [str(a) for a in argv], "session": sess}


def _xi_text(rng, order, exps):
    """sum of c * theta^-e over e in exps, each c a nonzero field scalar
    drawn by the seed."""
    return "+".join("%d*theta^-%d" % (rng.randrange(1, order), e)
                    for e in exps)


def _field_order(sess):
    return sess["q"] ** sess["s"]


# -- t-deform ---------------------------------------------------------

# (job, preset, ucap, t_prec, exponents of xi): the ladder.  Every
# characteristic-2 preset appears at a low and a high rung; "deform2"
# and "omega2" run at (ucap, t_prec) and at doubled caps and compare the
# truncations.  xi is fixed per rung, and the seed draws only the job
# order: the cost of the identity checks depends strongly on xi's shape
# (up to 2x between the shapes of one degree), and its F_4 scalars
# still moved a whole pass by 7 % between seeds.
T_DEFORM_LADDER = (
    ("mainthm", "carlitz-q2", 128, 32, (0, 2)),
    ("mainthm", "carlitz-q2", 128, 24, (0, 1)),
    ("mainthm", "rank2-q2", 192, 24, (0, 1)),
    ("mainthm", "rank2-q2", 144, 24, (0, 2)),
    ("mainthm", "rank3-q2", 48, 16, (0, 1)),
    ("mainthm", "rank3-q2", 48, 12, (0, 1, 2)),
    ("deform2", "rank2-q2", 192, 24, (0, 2)),
    ("deform2", "rank3-q2", 64, 24, (0, 1)),
    ("deform", "carlitz-q2", 128, 48, (0, 1)),
    ("deform", "rank2-q2", 384, 48, (0, 1)),
    ("omega2", "carlitz-q2", 96, 24, None),
    ("legendre", "rank2-q2", None, None, None),
)
# Legendre (ucap, t_prec): one rung, so the seed does not pick the cost.
LEGENDRE_RUNG = (192, 12)


def _fixed_xi_text(order, exps):
    """sum of c_j * theta^-e_j over the exponents, with c_j running
    through the nonzero scalars from 2 on (all 1 over F_2)."""
    return "+".join("%d*theta^-%d" % (1 + (j + 1) % (order - 1), e)
                    for j, e in enumerate(exps))


def _t_deform(rng):
    jobs = []
    for kind, preset, ucap, tprec, exps in T_DEFORM_LADDER:
        if kind == "legendre":
            ucap, tprec = LEGENDRE_RUNG
        sess = _preset_session(preset, ucap)
        xi = exps and _fixed_xi_text(_field_order(sess), exps)
        if kind == "mainthm":
            jobs.append(_cli(["verify-mainthm", "--preset", preset,
                              "--ucap", ucap, "--tprec", tprec, "--xi", xi],
                             sess))
        elif kind == "deform":
            jobs.append(_cli(["deform", "--preset", preset, "--ucap", ucap,
                              "--tprec", tprec, "--xi", xi], sess))
        elif kind == "legendre":
            jobs.append(_cli(["legendre", "--preset", preset, "--ucap", ucap,
                              "--tprec", tprec], sess))
        elif kind == "deform2":
            # the session budget covers the doubled cap
            big = _preset_session(preset, 4 * ucap)
            jobs.append({"kind": "api", "fn": "deform_doubled",
                         "args": {"xi": xi, "ucap": ucap, "tprec": tprec},
                         "session": big})
        else:  # omega2
            big = _preset_session(preset, 8 * ucap)
            jobs.append({"kind": "api", "fn": "omega_doubled",
                         "args": {"ucap": ucap, "tprec": tprec},
                         "session": big})
    rng.shuffle(jobs)
    return jobs


# -- closed-forms -----------------------------------------------------

# (q, s, n for coeffs, n for bseq): n keeps q^n within a few thousand
# and every job under about 0.3 s.  The fields cover each Laurent
# product kernel: bit planes (q = 2, 4), packed lanes (q = 3, 5) and
# schoolbook (F_9, F_25).
CLOSED_FORM_FIELDS = (
    (2, 1, 8, 9), (2, 2, 8, 8), (3, 1, 6, 6), (3, 2, 5, 5),
    (4, 1, 5, 5), (5, 1, 5, 4), (5, 2, 4, 4), (9, 1, 3, 3),
)
# Degrees of A_1..A_r per rank; None is a zero coefficient, so rank 3
# has support (2, 3) and the partition routes filter by support.  Each
# field gets two sessions per rank: the coefficient values move a job's
# cost, and two draws per slot halve what the seed adds to the tail.
CLOSED_FORM_SHAPES = {1: (1,), 2: (1, 0), 3: (None, 1, 0)}
# (r, n) for bare enumeration jobs, each a few hundred partitions.
PARTITION_SLOTS = ((2, 12), (3, 9), (3, 10), (4, 9))


def _rand_poly(rng, q, deg):
    """A polynomial of degree deg with every coefficient nonzero, so its
    term count, and the cost of the jobs on it, does not depend on the
    seed."""
    if deg is None:
        return (0,)
    return tuple(rng.randrange(1, q) for _ in range(deg + 1))


def _rand_module(rng, q, shape):
    return tuple(_rand_poly(rng, q, d) for d in shape)


def _closed_forms(rng):
    jobs = []
    for q, s, n_coeffs, n_bseq in CLOSED_FORM_FIELDS:
        for rank, shape in sorted(CLOSED_FORM_SHAPES.items()) * 2:
            sess = _session(q, s, 1, _rand_module(rng, q, shape), 64)
            free = _free_argv(sess)
            for route in ("partitions", "recurrence"):
                jobs.append(_cli(["coeffs", n_coeffs, "--check",
                                  "--route", route] + free, sess))
            for route in ("definition", "twist", "untwisted"):
                jobs.append(_cli(["bseq", n_bseq, "--route", route] + free,
                                 sess))
    for r, n in PARTITION_SLOTS:
        sess = _session(2, 1, 1, ((1,),), 64)
        argv = ["partitions", r, n]
        support = range(2, r + 1)
        jobs.append(_cli(argv, sess))
        jobs.append(_cli(argv + ["--support", ",".join(map(str, support))],
                         sess))
    rng.shuffle(jobs)
    return jobs


# -- small-sessions ---------------------------------------------------

SMALL_FIELDS = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (5, 1), (5, 2),
                (9, 1))
# Sessions with a single-layer torsion kernel that splits over the
# residue field: constant coefficients, s = 4, m = 8.
TORSION_SESSIONS = ((3, 1), (3, 2), (5, 1))


def _small_session_rounds(rng):
    """One (q, s, rank) per round: every field and rank of the grid
    appears once, in a seed-drawn order, so the mix of session sizes is
    the same on every seed."""
    grid = [(q, s, r) for q, s in SMALL_FIELDS for r in (1, 2, 3)]
    rng.shuffle(grid)
    return grid


# Degrees of A_1..A_r per rank in small sessions: fixed, since the
# degrees move a session's cost more than the seed should.
SMALL_SHAPES = {1: (1,), 2: (0, 1), 3: (1, 0, 1)}
BSEQ_ROUTES = ("definition", "twist", "untwisted")


def _rand_small_session(rng, ucap, q, s, rank):
    return _session(q, s, 1, _rand_module(rng, q, SMALL_SHAPES[rank]), ucap)


def _small_sessions(rng):
    jobs = []
    rounds = [_small_session_rounds(rng) for _ in range(5)]
    for k, (conv, agf, deform, mainthm, coeffs) in enumerate(zip(*rounds)):
        sess = _rand_small_session(rng, 64, *conv)
        jobs.append(_cli(["convergence"] + _free_argv(sess), sess))
        sess = _rand_small_session(rng, 48, *agf)
        xi = "%d*theta^-1" % rng.randrange(1, _field_order(sess))
        jobs.append(_cli(["agf", "--xi", xi, "--ucap", 48, "--tprec", 8]
                         + _free_argv(sess), sess))
        sess = _rand_small_session(rng, 48, *deform)
        xi = _xi_text(rng, _field_order(sess), (2, 3))
        jobs.append(_cli(["deform", "--xi", xi, "--ucap", 48, "--tprec", 8]
                         + _free_argv(sess), sess))
        sess = _rand_small_session(rng, 24, *mainthm)
        xi = _xi_text(rng, _field_order(sess), (2, 3))
        jobs.append(_cli(["verify-mainthm", "--xi", xi, "--ucap", 24,
                          "--tprec", 4] + _free_argv(sess), sess))
        sess = _rand_small_session(rng, 64, *coeffs)
        n = {2: 5, 3: 4, 4: 3, 5: 3, 9: 2}[sess["q"]]
        jobs.append(_cli(["coeffs", n, "--check"] + _free_argv(sess), sess))
        jobs.append(_cli(["bseq", n + 1, "--route", BSEQ_ROUTES[k % 3]]
                         + _free_argv(sess), sess))
        jobs.append(_cli(["partitions", 1 + k % 4, 3 + k % 5],
                         _session(2, 1, 1, ((1,),), 64)))
    for _ in range(2):
        for preset in ("carlitz-q2", "carlitz-q3", "rank2-q2"):
            sess = _preset_session(preset)
            xi = _xi_text(rng, _field_order(sess), (1, 2))
            jobs.append(_cli(["agf", "--preset", preset, "--xi", xi], sess))
            jobs.append(_cli(["deform", "--preset", preset, "--xi", xi],
                             sess))
        for preset, ucap in (("carlitz-q2", 32), ("carlitz-q3", 64),
                             ("rank2-q2", 48)):
            sess = _preset_session(preset, ucap)
            xi = _xi_text(rng, _field_order(sess), (1, 2))
            jobs.append(_cli(["verify-mainthm", "--preset", preset, "--ucap",
                              ucap, "--tprec", 8, "--xi", xi], sess))
        for q, rank in TORSION_SESSIONS:
            A = tuple((rng.randrange(1, q),) for _ in range(rank))
            sess = _session(q, 4, 8, A, 48)
            for cmd in ("period", "quasiperiod"):
                jobs.append(_cli([cmd, "--ucap", 48] + _free_argv(sess),
                                 sess))
    for preset, ucap, tprec in (("carlitz-q2", 32, 8), ("carlitz-q3", 64, 8),
                                ("rank2-q2", 48, 4)):
        jobs.append(_cli(["verify", "--preset", preset, "--ucap", ucap,
                          "--tprec", tprec], _preset_session(preset, ucap)))
    for preset, ucap in (("carlitz-q2", 64), ("carlitz-q3", 128),
                         ("rank2-q2", 96)):
        sess = _preset_session(preset, ucap)
        for cmd in ("period", "quasiperiod"):
            jobs.append(_cli([cmd, "--preset", preset, "--ucap", ucap],
                             sess))
    rng.shuffle(jobs)
    return jobs


_BUILDERS = {"t-deform": _t_deform, "closed-forms": _closed_forms,
             "small-sessions": _small_sessions}


def make_jobs(workload, seed):
    """The job list of one pass; the same (workload, seed) always gives
    the same list."""
    if workload not in _BUILDERS:
        raise ValueError("unknown workload %r (have: %s)"
                         % (workload, ", ".join(WORKLOADS)))
    return _BUILDERS[workload](random.Random("%s:%d" % (workload, seed)))


def session_key(sess):
    return json.dumps(sess, sort_keys=True)


def job_label(job):
    if job["kind"] == "cli":
        return " ".join(job["argv"])
    return "%s %s" % (job["fn"], json.dumps(job["args"], sort_keys=True))


# -- set-up and API jobs ----------------------------------------------

def build_sessions(jobs):
    """Construct every distinct field and session the jobs use; returns
    {session_key: SessionConfig}."""
    from drinfeld.cli import SessionConfig
    built = {}
    for job in jobs:
        key = session_key(job["session"])
        if key not in built:
            sess = job["session"]
            built[key] = SessionConfig(
                q=sess["q"], s=sess["s"], m=sess["m"], ucap=sess["ucap"],
                A=tuple(tuple(c) for c in sess["A"]))
    return built


def _fresh_module(cfg):
    """A new module on the prepared context, so no coefficient cache
    carries over from an earlier pass."""
    from drinfeld.modules import DrinfeldModule
    return DrinfeldModule(cfg.ctx, [cfg.ctx.from_poly(c) for c in cfg.A])


def _series_json(s):
    return json.dumps(s.to_json(), sort_keys=True)


def deform_doubled(cfg, xi, ucap, tprec):
    """Deformed-log series at (ucap, tprec) and at doubled caps; the
    doubled run truncated back must reproduce the first."""
    from drinfeld.agf import DeformedLog
    from drinfeld.cli import parse_elem
    phi = _fresh_module(cfg)
    x = parse_elem(cfg.ctx, xi)
    low = DeformedLog(phi, x, ucap).series(tprec)
    high = DeformedLog(phi, x, 2 * ucap).series(2 * tprec)
    same = _series_json(low) == _series_json(
        high.truncate_t(tprec).truncate_u(ucap))
    return {"xi": x.to_json(), "series": low.to_json(), "holds": same}


def omega_doubled(cfg, ucap, tprec):
    """Carlitz omega(t) at (ucap, tprec) and at doubled caps, plus the
    functional-equation residual at the lower caps."""
    from drinfeld.agf import omega_carlitz
    low = omega_carlitz(cfg.ctx, ucap, tprec)
    series = low.series()
    high = omega_carlitz(cfg.ctx, 2 * ucap, 2 * tprec).series()
    same = _series_json(series) == _series_json(
        high.truncate_t(tprec).truncate_u(ucap))
    holds, u_val, window = low.diff_eq_residual().residual_report()
    return {"series": series.to_json(), "doubled_agree": same,
            "residual": {"u_val": None if u_val == float("inf") else u_val,
                         "window": window},
            "holds": bool(same and holds)}


API_JOBS = {"deform_doubled": deform_doubled, "omega_doubled": omega_doubled}


# -- running and checking ---------------------------------------------

def run_job(job, sessions):
    """Run one job in process; returns (exit code or None on a
    traceback, stdout text, stderr text)."""
    import drinfeld.cli
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job["kind"] == "cli":
                # looked up at call time so a trace wrapper applies
                rc = drinfeld.cli.main(job["argv"])
            else:
                cfg = sessions[session_key(job["session"])]
                res = API_JOBS[job["fn"]](cfg, **job["args"])
                out.write(json.dumps(res, sort_keys=True) + "\n")
                rc = 0
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback fails the job; the run goes on
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _false_flags(obj, path=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k in FLAG_KEYS and v is False:
                yield path + k
            else:
                yield from _false_flags(v, path + k + ".")
    elif isinstance(obj, list):
        for v in obj:
            yield from _false_flags(v, path)


def check_output(rc, stdout, expected_rc=0, expected_digest=None):
    """Reasons the job failed; empty when it passed."""
    why = []
    if rc is None:
        why.append("traceback")
    elif rc != expected_rc:
        why.append("exit code %s, expected %s" % (rc, expected_rc))
    for line in stdout.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            why.append("output line is not JSON")
            break
        why.extend("%s is false" % f for f in _false_flags(obj))
    if expected_digest is not None and digest(stdout) != expected_digest:
        why.append("stdout digest differs from the reference")
    return why
