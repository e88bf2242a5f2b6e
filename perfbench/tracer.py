"""Span tracing and operation counting for the traced run.

Both install wrappers by attribute replacement on the imported drinfeld
modules, in the running process only, and take them off again on exit;
the program's files are untouched.

Tracer records a span around every call into a layer's public
functions: name, start, end and parent, in flat arrays kept in memory
until the run writes them out.  Counter counts operations too cheap to
time (field scalar ops, LaurentElem constructions) and the sizes of
Laurent products, and runs as a pass of its own so that its wrappers do
not distort the spans.
"""

import functools
import gzip
import json
import sys
import time
from array import array

# Laurent products split by operand shape alone: a single-term operand,
# at most SMALL_PAIRS term pairs, then by characteristic and F_p
# dimension of the coefficient field.
SMALL_PAIRS = 512
MUL_CLASSES = ("mono", "small", "p2", "oddp1", "oddpx")


def mul_class(field, na, nb):
    if na == 1 or nb == 1:
        return "mono"
    if na * nb <= SMALL_PAIRS:
        return "small"
    if field.p == 2:
        return "p2"
    return "oddp1" if field.dim == 1 else "oddpx"


def _mods():
    import drinfeld
    import drinfeld.agf
    import drinfeld.cli
    import drinfeld.ff
    import drinfeld.laurent
    import drinfeld.modules
    import drinfeld.partitions
    import drinfeld.periods
    import drinfeld.tate
    return {name: sys.modules["drinfeld." + name] for name in
            ("agf", "cli", "ff", "laurent", "modules", "partitions",
             "periods", "tate")}


def span_targets():
    """(span name, owner, attribute) for every traced entry point.
    Module-level functions are listed by their defining module; the
    installer also replaces every other drinfeld module's imported copy
    of them."""
    m = _mods()
    agf, laurent, modules, periods, tate = (
        m["agf"], m["laurent"], m["modules"], m["periods"], m["tate"])
    out = [("cli", m["cli"], "main"),
           ("agf.main_theorem", agf, "check_main_theorem"),
           ("agf.b_seq", agf, "b_seq")]
    out += [("agf.deformed_log", agf.DeformedLog, a)
            for a in ("__init__", "series", "eval_theta", "twist_eval_theta")]
    out += [("agf.omega", agf.OmegaCarlitz, a)
            for a in ("__init__", "regular_series", "series",
                      "theta_pole_form", "pi_tilde", "diff_eq_residual")]
    out += [("periods.torsion", periods, "torsion_roots"),
            ("periods.period", periods, "period_from_torsion"),
            ("periods.period", periods, "carlitz_period_routes"),
            ("periods.legendre", periods, "legendre_check")]
    out += [("periods.quasi_period", periods, a)
            for a in ("quasi_periods", "quasi_period_orbit",
                      "quasi_period_prop", "quasi_function_eval")]
    DM, BF = modules.DrinfeldModule, modules.BracketFrac
    out += [("modules.coeffs", DM, "exp_coeffs"),
            ("modules.coeffs", DM, "log_coeffs"),
            ("modules.compose_check", DM, "compose_check"),
            ("modules.bracketfrac.add", BF, "__add__"),
            ("modules.bracketfrac.to_laurent", BF, "to_laurent")]
    out += [("modules.eval", DM, a)
            for a in ("phi_action", "exp_eval", "log_eval")]
    out += [("partitions.enumerate", m["partitions"], "enumerate_partitions"),
            ("tate.mul", tate.TateSeries, "__mul__"),
            ("tate.add", tate.TateSeries, "__add__"),
            ("tate.scale", tate.TateSeries, "scale"),
            ("tate.to_series", tate.TateRational, "to_series"),
            ("tate.to_series", tate.ThetaPoleForm, "to_series")]
    LE = laurent.LaurentElem
    out += [("laurent.mul", LE, "__mul__"),
            ("laurent.add", LE, "__add__"),
            ("laurent.invert", LE, "invert"),
            ("laurent.root", LE, "root_q_minus_1"),
            ("laurent.pow_q", LE, "pow_q")]
    return out


def setup_targets():
    """Field construction, timed during set-up only."""
    ff = _mods()["ff"]
    return [("ff.setup", ff.Field, "__init__"),
            ("ff.setup", ff.FieldParams, "make")]


class _Patches:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, make_wrapper):
        raw = owner.__dict__[attr] if isinstance(owner, type) else \
            getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = functools.wraps(fn)(make_wrapper(fn))
        new = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
        self._set(owner, attr, new)
        if not isinstance(owner, type):
            # other modules that imported the function by name
            for mod in list(sys.modules.values()):
                if (mod is not owner and mod is not None
                        and getattr(mod, "__name__", "").startswith("drinfeld")
                        and getattr(mod, attr, None) is fn):
                    self._set(mod, attr, new)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)
                           if not isinstance(owner, type)
                           else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


class Tracer:
    """Spans in flat arrays: name id, parent index (-1 at top), start
    and end (perf_counter seconds)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = _Patches()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name):
        nid = self._id(name)
        opn, cls = self._open, self._close

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = opn(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    cls(idx)
            return wrapper
        return make

    def _wrap_mul(self):
        ids = {c: self._id("laurent.mul." + c) for c in MUL_CLASSES}
        opn, cls = self._open, self._close

        def make(fn):
            def wrapper(x, y):
                idx = opn(ids[mul_class(x.ctx.field, len(x.coeffs),
                                        len(y.coeffs))])
                try:
                    return fn(x, y)
                finally:
                    cls(idx)
            return wrapper
        return make

    def install(self, targets):
        for name, owner, attr in targets:
            make = self._wrap_mul() if name == "laurent.mul" else \
                self._wrap(name)
            self._patches.replace(owner, attr, make)

    def uninstall(self):
        self._patches.undo()

    def summary(self):
        """{name: {"calls", "incl_s", "self_s"}} plus the parent-child
        pair counts.  incl_s skips spans nested in a span of the same
        name, so recursion is not counted twice."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent, name = self.parent, self.name
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {nm: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
               for nm in self.names}
        pairs = {}
        for i in range(n):
            nm = self.names[name[i]]
            row = out[nm]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            p = parent[i]
            if p >= 0:
                key = (self.names[name[p]], nm)
                pairs[key] = pairs.get(key, 0) + 1
            while p >= 0 and name[p] != name[i]:
                p = parent[p]
            if p < 0:
                row["incl_s"] += dur[i]
        return out, pairs

    def write(self, path):
        """The span table as gzipped JSON lines: a header with the
        names, then [name id, parent, start, end] per span."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                fh.write("[%d,%d,%r,%r]\n" % (self.name[i], self.parent[i],
                                              self.start[i], self.end[i]))


class Counter:
    """Exact operation counts; nothing here reads the clock."""

    def __init__(self):
        self.counts = {}
        self._patches = _Patches()

    def _bump(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def _count_calls(self, key):
        bump = self._bump

        def make(fn):
            def wrapper(*args, **kwargs):
                bump(key)
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _count_mul(self, fn):
        bump = self._bump

        def wrapper(x, y):
            A, B = x.coeffs, y.coeffs
            cls = mul_class(x.ctx.field, len(A), len(B))
            bump("laurent.mul.calls." + cls)
            bump("laurent.mul.term_pairs." + cls, len(A) * len(B))
            out = fn(x, y)
            if A and B:
                base = min(A) + min(B)
                full = max(A) + max(B) - base + 1
                kept = full if out.cap == float("inf") else \
                    max(0, min(full, out.cap - base))
                bump("laurent.mul.window_full", full)
                bump("laurent.mul.window_kept", kept)
            return out
        return wrapper

    def _count_enumerate(self, fn):
        bump = self._bump
        count = _mods()["partitions"].count_partitions

        def wrapper(r, n, support=None):
            out = fn(r, n, support)
            bump("partitions.enumerate.calls")
            bump("partitions.enumerate.out", len(out))
            bump("partitions.enumerate.all", count(r, n))
            return out
        return wrapper

    def install(self):
        m = _mods()
        ff, laurent = m["ff"], m["laurent"]
        for op in ("mul", "add", "inv", "frob"):
            self._patches.replace(ff.Field, op,
                                  self._count_calls("ff.%s.calls" % op))
        self._patches.replace(laurent.LaurentElem, "__init__",
                              self._count_calls("laurent.elems"))
        self._patches.replace(laurent.LaurentElem, "__mul__", self._count_mul)
        self._patches.replace(m["partitions"], "enumerate_partitions",
                              self._count_enumerate)

    def uninstall(self):
        self._patches.undo()
