"""Batch command line front end.

Configuration comes from a declarative key = value file, a named preset,
or flags; flags win over the file, and the file wins over the preset.
Every subcommand writes JSON lines to stdout (sorted keys, so identical
sessions are byte-identical) and diagnostics to stderr.  Elements and
fractions are printed as pre-rendered text (to_text, _frac_text: the
field's row texts joined once per element), which _emit writes as it
is between the parts it encodes with _encode; the bytes are those of
_encode over the to_json() dicts.

Exit codes: 0 all requested checks pass; 1 an identity fails below its
cap; 2 configuration problems; 3 a mathematical precondition fails, with
the parameter to enlarge named in the message.
"""

import argparse
import functools
import json
import sys

from .errors import ConfigError, InvalidInput, PreconditionError
from .ff import FieldParams
from .laurent import INF, SeriesParams
from .partitions import count_partitions, enumerate_partitions
from .modules import DrinfeldModule, check_index
from .agf import (AGFValue, DeformedLog, b_seq, check_main_theorem,
                  eval_theta_frac, omega_carlitz)
from .periods import (legendre_check, period_from_torsion, quasi_period_orbit,
                      quasi_periods, torsion_roots)
from . import verify as verify_mod


# one encoder for every line: json.dumps builds a new one per call
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode


class _Text:
    """A value already rendered as JSON text; _emit writes it as it is."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


def _render(obj, out):
    """Append to out the parts of the JSON text of obj, the bytes _encode
    writes for it, with each _Text written as it is; only dicts are
    walked to find them."""
    if type(obj) is _Text:
        out.append(obj.text)
    elif type(obj) is dict and obj:
        sep = "{"
        for k, v in sorted(obj.items()):
            out.append(sep + _encode(str(k)) + ": ")
            _render(v, out)
            sep = ", "
        out.append("}")
    else:
        out.append(_encode(obj))


def _emit(obj):
    """One line of JSON on stdout, written in parts: a long coefficient
    array is never copied into a whole line."""
    out = []
    _render(obj, out)
    out.append("\n")
    sys.stdout.writelines(out)


def _array(texts):
    """The JSON text of an array of JSON texts."""
    return "[%s]" % ", ".join(texts)


def _frac_text(f):
    """A bracket fraction as JSON text: {"den": {e: mult}, "num": num}."""
    return '{"den": %s, "num": %s}' % (
        _encode({str(e): m for e, m in f.den.items()}), f.num.to_text())


# -- configuration ----------------------------------------------------

_CONFIG_KEYS = ("preset", "q", "s", "m", "ucap", "tprec", "A", "seed", "xi")
_INT_KEYS = ("q", "s", "m", "ucap", "tprec", "seed")


def parse_coeff_polys(text):
    """A_1;...;A_r, each a comma list of F_q coefficients ascending in
    theta: "1;0,1" is A_1 = 1, A_2 = theta."""
    polys = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            raise ConfigError("empty coefficient polynomial in %r" % text)
        try:
            polys.append(tuple(int(c) for c in part.split(",")))
        except ValueError:
            raise ConfigError("bad coefficient polynomial %r" % part)
    return tuple(polys)


def parse_elem(ctx, text):
    """Sum of c, theta^k, or c*theta^k terms; c is a packed field
    scalar and k may be negative."""
    text = text.strip()
    if text == "0":
        return ctx.zero()
    acc = ctx.zero()
    for term in text.split("+"):
        term = term.strip()
        if "*" in term:
            cs, ts = term.split("*", 1)
        elif term.startswith("theta"):
            cs, ts = "1", term
        else:
            cs, ts = term, None
        try:
            c = int(cs)
        except ValueError:
            raise ConfigError("bad scalar %r in element %r" % (cs, text))
        if not 0 <= c < ctx.field.order:
            raise ConfigError("scalar %d outside the field (order %d)"
                              % (c, ctx.field.order))
        if ts is None:
            k = 0
        else:
            ts = ts.strip()
            if ts == "theta":
                k = 1
            elif ts.startswith("theta^"):
                try:
                    k = int(ts[len("theta^"):])
                except ValueError:
                    raise ConfigError("bad power in term %r" % ts)
            else:
                raise ConfigError("unrecognized term %r" % ts)
        acc = acc + ctx.monomial(c, -ctx.m * k)
    return acc


def read_config_file(path):
    out = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc))
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key = value" % (path, lineno))
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
        out[key] = value
    return out


def _check_ucap(ucap):
    # ucap is also the session's inversion budget; name the flag the
    # caller set rather than the budget it feeds
    if ucap < 1:
        raise InvalidInput("ucap must be a positive integer, got %d" % ucap)


def merge_config(args):
    """(preset name, session keys) from the preset, the config file and
    the flags: flags win over the file, and the file over the preset."""
    fileconf = read_config_file(args.config) \
        if getattr(args, "config", None) else {}
    preset = fileconf.pop("preset", None)
    if getattr(args, "preset", None) is not None:
        preset = args.preset
    merged = {}
    if preset is not None:
        if preset not in verify_mod.PRESETS:
            raise ConfigError("unknown preset %r (have: %s)" % (
                preset, ", ".join(verify_mod.PRESET_ORDER)))
        merged.update(verify_mod.PRESETS[preset])
    for key, value in fileconf.items():
        if key in _INT_KEYS:
            try:
                merged[key] = int(value)
            except ValueError:
                raise ConfigError("key %r wants an integer, got %r"
                                  % (key, value))
        elif key == "A":
            merged["A"] = parse_coeff_polys(value)
        else:
            merged[key] = value
    for key in _INT_KEYS + ("xi",):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if getattr(args, "A", None) is not None:
        merged["A"] = parse_coeff_polys(args.A)
    return preset, merged


class SessionConfig:
    """Validated session parameters plus the context and module built
    from them."""

    def __init__(self, q=2, s=1, m=1, ucap=None, tprec=16, A=((1,),),
                 xi=None):
        if ucap is not None:
            _check_ucap(ucap)
        self.q, self.s, self.m = q, s, m
        self.ucap = ucap if ucap is not None else 64 * m
        self.tprec = tprec
        self.A = A
        self.xi_text = xi
        fp = FieldParams.make(q, s)
        self.ctx = SeriesParams(fp, m, self.ucap)
        self.phi = DrinfeldModule(
            self.ctx, [self.ctx.from_poly(c) for c in A])

    def xi(self):
        if self.xi_text is None:
            raise ConfigError("this subcommand needs --xi (or xi in the "
                              "config file)")
        return parse_elem(self.ctx, self.xi_text)

    @staticmethod
    def from_args(args):
        """The session of the merged configuration; the seed only
        concerns verify."""
        _, merged = merge_config(args)
        merged.pop("seed", None)
        try:
            return SessionConfig(**merged)
        except TypeError as exc:
            raise ConfigError(str(exc))


# -- subcommands ------------------------------------------------------

def parse_support(text, r):
    """--support: a comma list of rows in 1..r."""
    try:
        rows = tuple(int(x) for x in text.split(","))
    except ValueError:
        rows = ()
    if not rows or not all(1 <= x <= r for x in rows):
        raise ConfigError("bad --support %r: want a comma list of rows "
                          "in 1..%d" % (text, r))
    return rows


def cmd_partitions(args):
    cfg = SessionConfig.from_args(args)
    check_index(args.n)
    support = parse_support(args.support, args.r) if args.support else None
    found = 0
    for sp in enumerate_partitions(args.r, args.n, support=support):
        _emit(sp.to_json(cfg.q))
        found += 1
    summary = {"r": args.r, "n": args.n, "count": found}
    if support is None:
        summary["recurrence"] = count_partitions(args.r, args.n)
        summary["match"] = summary["recurrence"] == found
    _emit(summary)
    return 0 if summary.get("match", True) else 1


def cmd_coeffs(args):
    cfg = SessionConfig.from_args(args)
    phi = cfg.phi
    alpha = phi.exp_coeffs(args.n, args.route)
    beta = phi.log_coeffs(args.n, args.route)
    for k in range(args.n + 1):
        _emit({"n": k, "alpha": _Text(_frac_text(alpha[k])),
               "beta": _Text(_frac_text(beta[k]))})
    if args.check:
        ok = phi.compose_check(args.n, args.route)
        _emit({"compose_check": bool(ok)})
        return 0 if ok else 1
    return 0


def cmd_convergence(args):
    cfg = SessionConfig.from_args(args)
    out = cfg.phi.convergence_data().to_json()
    out["module"] = cfg.phi.to_json()
    _emit(out)
    return 0


def cmd_bseq(args):
    """b_0 .. b_n by the chosen route, each tested at t = theta against
    beta_k from phi's log equation: the partition sum over beta_k would
    cost more than b_n's own route and print nothing."""
    cfg = SessionConfig.from_args(args)
    phi = cfg.phi
    seq = b_seq(phi, args.n, args.route)
    beta = phi.log_coeffs(args.n, "equation")
    ok = True
    for k, f in enumerate(seq):
        at_theta = eval_theta_frac(phi, f)
        same = at_theta.equals(beta[k])
        ok = ok and same
        _emit({"n": k, "b": _Text(f.to_text()),
               "at_theta_is_beta": bool(same)})
    _emit({"route": args.route, "pass": bool(ok)})
    return 0 if ok else 1


def cmd_deform(args):
    cfg = SessionConfig.from_args(args)
    xi = cfg.xi()
    dl = DeformedLog(cfg.phi, xi, cfg.ucap)
    _emit({"xi": _Text(xi.to_text()),
           "series": _Text(dl.series(cfg.tprec).to_text()),
           "at_theta": _Text(dl.eval_theta().to_text()),
           "cut": dl.cut})
    return 0


def cmd_agf(args):
    cfg = SessionConfig.from_args(args)
    u = cfg.xi()
    f = AGFValue(cfg.phi, u, cfg.ucap)
    form = f.theta_pole_form(cfg.tprec)
    diff = form.residue + u
    recovered = not diff.coeffs
    _emit({"u": _Text(u.to_text()),
           "regular_part": _Text(form.regular.to_text()),
           "residue_at_theta": _Text(form.residue.to_text()),
           "minus_residue_is_u": bool(recovered),
           "residual_valuation": None if diff.cap == INF else int(diff.cap)})
    return 0 if recovered else 1


def cmd_verify_mainthm(args):
    cfg = SessionConfig.from_args(args)
    if cfg.xi_text is not None:
        xis = [cfg.xi()]
    else:
        xis = verify_mod.preset_xis(cfg.ctx)
    ok = True
    for xi in xis:
        rep = check_main_theorem(cfg.phi, xi, cfg.ucap, cfg.tprec)
        ok = ok and rep["holds"]
        _emit({"xi": xi.to_json(), "holds": rep["holds"],
               "identities": {k: rep[k] for k in "abcde"}})
    _emit({"check": "main-theorem", "pass": bool(ok)})
    return 0 if ok else 1


def cmd_period(args):
    cfg = SessionConfig.from_args(args)
    td = torsion_roots(cfg.phi, cfg.ucap)
    values, resid = [], []
    for zeta in td.basis:
        w = period_from_torsion(cfg.phi, zeta, cfg.ucap)
        values.append(w.to_text())
        e = cfg.phi.exp_eval(w, ucap=cfg.ucap)
        resid.append(None if not e.coeffs else int(e.val))
    _emit({"value": _Text(_array(values)),
           "residual_valuations": {"refinement": td.traces,
                                   "exp_of_period": resid},
           "branch_choices": {"ell": 1,
                              "slopes": [[s.numerator, s.denominator, a, b]
                                         for s, a, b in td.slopes],
                              "basis": _Text(_array([z.to_text()
                                                     for z in td.basis]))}})
    return 0 if all(v is None for v in resid) else 1


def cmd_quasiperiod(args):
    # checked before any work: a rank-1 module never reaches the orbit
    if args.terms < 0:
        raise InvalidInput("terms must be >= 0, got %d" % args.terms)
    cfg = SessionConfig.from_args(args)
    phi, ctx = cfg.phi, cfg.ctx
    td = torsion_roots(phi, cfg.ucap)
    ok = True
    values, agree = [], []
    for zeta in td.basis:
        w = period_from_torsion(phi, zeta, cfg.ucap)
        etas = quasi_periods(phi, zeta, cfg.ucap)
        values.append(_array([e.to_text() for e in etas]))
        row = []
        orbit = quasi_period_orbit(phi, w, cfg.ucap, terms=args.terms)
        for j, (eta, (direct, tail)) in enumerate(zip(etas, orbit), 1):
            d = direct - eta
            floor = min(ctx.val_from_logq(tail), d.cap)
            good = (not d.coeffs) or d.val >= floor
            ok = ok and good
            row.append({"j": j, "vbound": int(d.vbound),
                        "certified_floor": int(floor), "holds": bool(good)})
        agree.append(row)
    _emit({"value": _Text(_array(values)),
           "residual_valuations": {"orbit_agreement": agree,
                                   "refinement": td.traces},
           "branch_choices": {"ell": 1, "terms": args.terms,
                              "basis": _Text(_array([z.to_text()
                                                     for z in td.basis]))}})
    return 0 if ok else 1


def cmd_legendre(args):
    cfg = SessionConfig.from_args(args)
    rep = legendre_check(cfg.phi, cfg.ucap, cfg.tprec)
    _emit({"value": rep["legendre"]["value"],
           "residual_valuations": {
               "det_twist": rep["det_twist"]["u_val"],
               "legendre_remainder": rep["legendre"]["u_val"]},
           "branch_choices": {"c": rep["legendre"]["c"],
                              "deg_j": rep["deg_j"],
                              **rep["branch"]}})
    return 0 if rep["holds"] else 1


def _preset_scorecard(name, ucap, tprec):
    ctx, phi = verify_mod.preset_session(name)
    rows, ok = [], True
    for xi in verify_mod.preset_xis(ctx):
        rep = check_main_theorem(phi, xi, ucap, tprec)
        ok = ok and rep["holds"]
        rows.append({"check": "main-theorem", "xi": xi.to_json(),
                     "pass": rep["holds"],
                     "residual_valuations": {k: rep[k]["u_val"]
                                             for k in "bcde"}})
    try:
        td = torsion_roots(phi, ucap)
    except PreconditionError as exc:
        rows.append({"check": "torsion", "skipped": str(exc)})
        td = None
    if td is not None:
        count_ok = len(td.roots) == ctx.q ** phi.r
        ok = ok and count_ok
        rows.append({"check": "torsion", "pass": bool(count_ok),
                     "count": len(td.roots)})
        w = period_from_torsion(phi, td.basis[0], ucap)
        e = phi.exp_eval(w, ucap=ucap)
        per_ok = not e.coeffs
        ok = ok and per_ok
        rows.append({"check": "period", "pass": bool(per_ok),
                     "value": w.to_json()})
        if phi.r == 2:
            rep = legendre_check(phi, ucap, tprec)
            ok = ok and rep["holds"]
            rows.append({"check": "legendre", "pass": rep["holds"],
                         "c": rep["legendre"]["c"]})
    if phi.r == 1:
        oc = omega_carlitz(ctx, ucap, tprec)
        resid = oc.diff_eq_residual()
        hol, uval, win = resid.residual_report()
        ok = ok and hol
        rows.append({"check": "omega-twist", "pass": bool(hol),
                     "u_val": None if uval == INF else int(uval),
                     "window": win})
    return rows, ok


def cmd_verify(args):
    # of the merged keys only ucap, tprec and seed apply: a scorecard
    # runs on its preset's own module
    preset, merged = merge_config(args)
    if preset is not None and not args.full:
        ucap = merged.get("ucap", 64 * verify_mod.PRESETS[preset]["m"])
        _check_ucap(ucap)
        rows, ok = _preset_scorecard(preset, ucap, merged.get("tprec", 16))
        for row in rows:
            _emit(row)
        _emit({"preset": preset, "pass": bool(ok)})
        return 0 if ok else 1
    rep = verify_mod.run_all(seed=merged.get("seed", 0))
    for row in rep["checks"]:
        _emit(row)
    _emit({"suite": rep["suite"], "seed": rep["seed"], "pass": rep["pass"]})
    return 0 if rep["pass"] else 1


# -- parser -----------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="declarative key = value file")
    common.add_argument("--preset", help="named module preset (%s)"
                        % ", ".join(verify_mod.PRESET_ORDER))
    common.add_argument("--q", type=int, help="base field size")
    common.add_argument("--s", type=int, help="coefficient field degree")
    common.add_argument("--m", type=int, help="ramification index")
    common.add_argument("--ucap", type=int, help="u-adic precision cap")
    common.add_argument("--tprec", type=int, help="t-adic window")
    common.add_argument("--A", help="coefficient polynomials, e.g. '1;0,1'")
    common.add_argument("--seed", type=int, help="randomized-test seed")
    common.add_argument("--xi", help="series element, e.g. '1+theta^-1'")

    ap = argparse.ArgumentParser(
        prog="drinfeld",
        description="Exact-arithmetic checks for Drinfeld module "
                    "logarithm deformations, periods and quasi-periods.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", parents=[common],
                       help="enumerate shadowed partitions")
    p.add_argument("r", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--support", help="restrict nonempty rows, e.g. '1,3'")
    p.set_defaults(fn=cmd_partitions)

    p = sub.add_parser("coeffs", parents=[common],
                       help="exp/log coefficients as exact fractions")
    p.add_argument("n", type=int)
    p.add_argument("--route", default="partitions",
                   choices=("partitions", "recurrence"))
    p.add_argument("--check", action="store_true",
                   help="also verify the functional equations "
                   "exp(theta z) = phi_t(exp z), log(phi_t z) = theta log z")
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("convergence", parents=[common],
                       help="radius and support data for the module")
    p.set_defaults(fn=cmd_convergence)

    p = sub.add_parser("bseq", parents=[common],
                       help="deformed coefficients b_n(t)")
    p.add_argument("n", type=int)
    p.add_argument("--route", default="definition",
                   choices=("definition", "twist", "untwisted"))
    p.set_defaults(fn=cmd_bseq)

    p = sub.add_parser("deform", parents=[common],
                       help="deformed logarithm series at xi")
    p.set_defaults(fn=cmd_deform)

    p = sub.add_parser("agf", parents=[common],
                       help="generating function pole data at u = xi")
    p.set_defaults(fn=cmd_agf)

    p = sub.add_parser("verify-mainthm", parents=[common],
                       help="the four deformed-logarithm identities")
    p.set_defaults(fn=cmd_verify_mainthm)

    p = sub.add_parser("period", parents=[common],
                       help="periods from torsion")
    p.set_defaults(fn=cmd_period)

    p = sub.add_parser("quasiperiod", parents=[common],
                       help="quasi-periods from torsion")
    p.add_argument("--terms", type=int, default=8,
                   help="partial-sum length for the series cross-check")
    p.set_defaults(fn=cmd_quasiperiod)

    p = sub.add_parser("legendre", parents=[common],
                       help="rank-2 Legendre relation report")
    p.set_defaults(fn=cmd_legendre)

    p = sub.add_parser("verify", parents=[common],
                       help="acceptance suite (or a preset scorecard)")
    p.add_argument("--full", action="store_true",
                   help="run the whole suite even with --preset")
    p.set_defaults(fn=cmd_verify)
    return ap


@functools.cache
def _parser():
    # parse_args leaves the parser unchanged, so one tree serves every
    # call of main in a process
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("precondition error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
