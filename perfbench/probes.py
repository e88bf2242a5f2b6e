"""Kernel probes: operation rates on fixed inputs through public calls.

Inputs come from a fixed seed, independent of the workload seed, so
every run of every workload times the same operands.  A Laurent product
probe multiplies a dense operand (every exponent of a window of w
occupied) by a sparse one (w/8 exponents of the same window); both are
exact, so the whole product window is computed.
"""

import random
import time

PROBE_SEED = 20130201
MIN_SECONDS = 0.2

# probe class -> (q, s): a field whose products land in that class
MUL_FIELDS = {"p2": (4, 1), "oddp1": (5, 1), "oddpx": (9, 1)}
WIDTHS = (256, 1024, 4096)
FF_FIELDS = {"F2": (2, 1), "F4": (4, 1), "F9": (9, 1), "F81": (3, 4),
             "F2_16": (2, 16)}


def _rate(op):
    """Calls of op per second, timed for at least MIN_SECONDS."""
    n = 0
    t0 = time.perf_counter()
    while True:
        op()
        n += 1
        dt = time.perf_counter() - t0
        if dt >= MIN_SECONDS:
            return n / dt


def _ctx(q, s, prec=128, m=1):
    from drinfeld import FieldParams, SeriesParams
    fp = FieldParams.make(q, s) if s > 1 else FieldParams.make(q)
    return SeriesParams(fp, m, prec)


def _dense(rng, ctx, w, cap=float("inf")):
    order = ctx.field.order
    return ctx.make({e: rng.randrange(1, order) for e in range(w)}, cap)


def _sparse(rng, ctx, w):
    order = ctx.field.order
    exps = {0, w - 1} | set(rng.sample(range(1, w - 1), w // 8 - 2))
    return ctx.make({e: rng.randrange(1, order) for e in exps})


def run_probes():
    from drinfeld import FieldParams, TateSeries, enumerate_partitions
    from drinfeld.ff import field_for
    rng = random.Random(PROBE_SEED)
    out = {}
    for cls, (q, s) in MUL_FIELDS.items():
        ctx = _ctx(q, s)
        for w in WIDTHS:
            a, b = _dense(rng, ctx, w), _sparse(rng, ctx, w)
            out["probe.laurent.mul.%s.w%d.ops_per_s" % (cls, w)] = \
                _rate(lambda: a * b)
    ctx = _ctx(4, 1, prec=1024)
    x = _dense(rng, ctx, 1024)
    out["probe.laurent.invert.w1024.ops_per_s"] = _rate(x.invert)
    ctx = _ctx(2, 2, m=3)
    for t in (16, 64):
        a, b = (TateSeries(ctx, [_dense(rng, ctx, 64, cap=64)
                                 for _ in range(t)], t) for _ in range(2))
        out["probe.tate.mul.t%d.ops_per_s" % t] = _rate(lambda: a * b)
    for name, (q, s) in FF_FIELDS.items():
        f = field_for(FieldParams.make(q, s))
        pairs = [(rng.randrange(1, f.order), rng.randrange(1, f.order))
                 for _ in range(1024)]
        mul = f.mul

        def batch():
            for u, v in pairs:
                mul(u, v)
        out["probe.ff.mul.%s.ops_per_s" % name] = _rate(batch) * len(pairs)
    out["probe.partitions.enumerate.r3n12.ops_per_s"] = \
        _rate(lambda: enumerate_partitions(3, 12))
    return out
