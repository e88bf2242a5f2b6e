"""Host-speed calibration for the time metrics.

The benchmark runs on a share of a host whose speed drifts: the same
pass of jobs can take 1.6x longer a minute later, CPU time drifts with
wall time, and the speed changes within a single one-second job.  No
estimator over the raw times of one run removes that, so every time
metric is reported at a fixed reference speed.

While a `Meter` is open, a SIGALRM handler times a short, fixed,
pure-Python routine every PERIOD_S.  The routine does the kinds of work
the program does (dict-keyed coefficient products, wide integer
products, small objects and method calls) but runs none of the
program's code, so a change to the program cannot change it.  A span
of timed work, less the handler's own time inside it, is scaled by
REF_S over the mean routine time sampled during the span and next to
it: the time the span would have taken on a box where the routine
takes REF_S.
"""

import bisect
import gc
import random
import signal
import statistics
import time

PERIOD_S = 0.05
# The routine's time on the baseline box when it ran fast; it fixes the
# scale only, so the reported times read as seconds on that box.
REF_S = 0.0006

_rng = random.Random(1302)
_A = {_rng.randrange(200): _rng.randrange(1, 251) for _ in range(24)}
_B = {_rng.randrange(200): _rng.randrange(1, 251) for _ in range(24)}
_X = _rng.getrandbits(20000) | 1
_Y = _rng.getrandbits(20000) | 1


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def join(self, other):
        return _Pair(self.a + other.b, self.b ^ other.a)


def _work():
    # a dict-keyed coefficient product and wide integer products
    out = {}
    get = out.get
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = ea + eb
            out[e] = (get(e, 0) + ca * cb) % 251
    z = (_X * _Y) >> 7
    z ^= (_X * _X) >> 3
    # small objects, method calls, string keys and a keyed sort
    acc = _Pair(0, 0)
    pairs = [_Pair(i, 7 * i) for i in range(150)]
    for p in pairs:
        acc = acc.join(p)
    named = {"k%d" % (i % 40): (p.a, str(p.b)) for i, p in enumerate(pairs)}
    ranked = sorted(named.items(), key=lambda kv: kv[1][0])
    return len(out) + len(ranked) + acc.a + (z & 1)


class Meter:
    """Samples the routine's time while open; `scale` then converts spans
    of perf_counter time taken meanwhile to the reference speed."""

    def __init__(self):
        self.starts, self.ends = [], []

    def _tick(self, *_):
        # the cyclic collector is off, so the program's heap does not
        # enter the routine's time
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def __enter__(self):
        for _ in range(3):  # warm-up: the first runs allocate arenas
            _work()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()

    def samples(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def scale(self, a, b):
        """Span [a, b], taken while the meter was open, at the reference
        speed.  Call it after the meter is closed, so that a sample
        follows every span."""
        i = bisect.bisect_left(self.starts, a)
        k = bisect.bisect_left(self.starts, b)
        inside = sum(self.ends[j] - self.starts[j] for j in range(i, k))
        near = range(max(0, i - 1), min(len(self.starts), k + 1))
        speed = statistics.fmean(self.ends[j] - self.starts[j] for j in near)
        return (b - a - inside) * REF_S / speed
