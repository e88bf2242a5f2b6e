"""Identity-check suite.

One function per acceptance criterion.  Each builds everything it needs
from the shipped presets, runs the check with its caps pinned, and
returns a CheckResult; run_all assembles the scorecard.  All comparisons
are exact below the stated precision caps; nothing is tuned per run.
"""

import json
import random
from fractions import Fraction

from .errors import CompatPreconditionFailed
from .ff import FieldParams
from .laurent import LaurentElem, SeriesParams
from .partitions import count_partitions, enumerate_partitions
from .modules import BracketFrac, DrinfeldModule, carlitz
from .agf import (DeformedLog, OmegaCarlitz, b_seq, carlitz_bseq_product,
                  check_main_theorem, eval_theta_frac, x_phi)
from .tate import TateSeries
from .periods import (carlitz_period_routes, legendre_check,
                      period_from_torsion, quasi_period_orbit,
                      quasi_period_prop, torsion_roots)

# Every check below runs from one of these: q, residue degree s,
# ramification index m, and the module coefficients A_i as F_q-polynomial
# coefficient tuples in ascending powers of theta.
PRESETS = {
    "carlitz-q2": {"q": 2, "s": 1, "m": 1, "A": ((1,),)},
    "carlitz-q3": {"q": 3, "s": 2, "m": 2, "A": ((1,),)},
    "rank2-q2": {"q": 2, "s": 2, "m": 3, "A": ((1,), (1,))},
    "rank3-q2": {"q": 2, "s": 1, "m": 1, "A": ((1,), (1,), (1,))},
}
PRESET_ORDER = ("carlitz-q2", "carlitz-q3", "rank2-q2", "rank3-q2")


def preset_session(name, prec=None, m=None, s=None):
    """(ctx, phi) for a preset; m, s, prec may be overridden."""
    cfg = PRESETS[name]
    s = cfg["s"] if s is None else s
    m = cfg["m"] if m is None else m
    fp = FieldParams.make(cfg["q"], s)
    ctx = SeriesParams(fp, m, prec if prec is not None else 64 * m)
    A = [ctx.from_poly(c) for c in cfg["A"]]
    return ctx, DrinfeldModule(ctx, A)


def preset_xis(ctx):
    """Three in-radius evaluation points valid for every preset: the
    shift-identity precondition needs log_q|xi| < min(R) - 1 <= 1/7."""
    return [ctx.one(), ctx.theta(-1), ctx.one() + ctx.theta(-1)]


class CheckResult:
    __slots__ = ("name", "passed", "details")

    def __init__(self, name, passed, details):
        self.name = name
        self.passed = bool(passed)
        self.details = details

    def to_json(self):
        return {"name": self.name, "pass": self.passed,
                "details": self.details}


def check_partition_counts(seed=0):
    """Enumerated |P_r(n)| equals the r-step recurrence for r <= 4,
    n <= 14; every partition tiles and satisfies the exact weight
    identity sum (q^i - 1) w(S_i) = q^n - 1."""
    checked = 0
    ok = True
    for r in range(1, 5):
        for n in range(15):
            parts = enumerate_partitions(r, n)
            if len(parts) != count_partitions(r, n):
                ok = False
            for sp in parts:
                checked += 1
                if not sp.is_valid():
                    ok = False
                for q in (2, 3):
                    w = sp.weights(q)
                    if sum((q ** i - 1) * w[i - 1]
                           for i in range(1, r + 1)) != q ** n - 1:
                        ok = False
    rng = random.Random(seed)
    spots = []
    for _ in range(4):
        r, n = rng.randrange(1, 5), rng.randrange(15, 17)
        parts = enumerate_partitions(r, n)
        good = (len(parts) == count_partitions(r, n)
                and all(sp.is_valid() for sp in parts))
        ok = ok and good
        spots.append([r, n, len(parts)])
    return CheckResult("partition-counts", ok,
                       {"partitions_checked": checked, "spot_checks": spots})


def _coeff_instances():
    for q in (2, 3):
        fp = FieldParams.make(q)
        ctx = SeriesParams(fp, 1, 48)
        yield ctx, DrinfeldModule(ctx, [ctx.one()])
        yield ctx, DrinfeldModule(ctx, [ctx.theta(), ctx.one()])
        yield ctx, DrinfeldModule(ctx, [ctx.one(), ctx.theta(),
                                        ctx.theta() + ctx.one()])


def check_coefficient_closed_forms():
    """Partition closed forms for alpha_n, beta_n equal the recurrence
    and triangular-inversion oracles exactly; the rank-1 specialization
    gives 1/D_n and (-1)^n/([1]...[n])."""
    ok = True
    pairs = 0
    for ctx, phi in _coeff_instances():
        a_p = phi.exp_coeffs(8, "partitions")
        a_r = phi.exp_coeffs(8, "recurrence")
        b_p = phi.log_coeffs(8, "partitions")
        b_r = phi.log_coeffs(8, "recurrence")
        for n in range(9):
            pairs += 2
            if not (a_p[n] - a_r[n]).num.is_exact_zero():
                ok = False
            if not (b_p[n] - b_r[n]).num.is_exact_zero():
                ok = False
    for q in (2, 3):
        ctx = SeriesParams(FieldParams.make(q), 1, 48)
        c = carlitz(ctx)
        alpha = c.exp_coeffs(6)
        beta = c.log_coeffs(6)
        for n in range(1, 7):
            d_n = {e: q ** (n - e) for e in range(1, n + 1)}
            if not alpha[n].equals(BracketFrac(ctx, ctx.one(), d_n)):
                ok = False
            sign = ctx.int_scalar((-1) ** n)
            l_n = {e: 1 for e in range(1, n + 1)}
            if not beta[n].equals(BracketFrac(ctx, sign, l_n)):
                ok = False
    return CheckResult("coefficient-closed-forms", ok,
                       {"route_pairs": pairs})


def check_worked_examples():
    """The three-term rank-2 expressions for beta_3 and alpha_3, and the
    single extra rank-3 term A_3/[3], reproduced symbolically."""
    ok = True
    for q in (2, 3):
        ctx = SeriesParams(FieldParams.make(q), 1, 48)
        A1, A2 = ctx.theta(), ctx.theta() + ctx.one()
        phi = DrinfeldModule(ctx, [A1, A2])
        a1c = A1 * A1.pow_q(1) * A1.pow_q(2)
        beta3 = (BracketFrac(ctx, -a1c, {1: 1, 2: 1, 3: 1})
                 + BracketFrac(ctx, A1 * A2.pow_q(1), {1: 1, 3: 1})
                 + BracketFrac(ctx, A1.pow_q(2) * A2, {2: 1, 3: 1}))
        ok = ok and phi.log_coeffs(3)[3].equals(beta3)
        alpha3 = (BracketFrac(ctx, a1c, {3: 1, 2: q, 1: q * q})
                  + BracketFrac(ctx, A1.pow_q(2) * A2, {1: q * q, 3: 1})
                  + BracketFrac(ctx, A1 * A2.pow_q(1), {2: q, 3: 1}))
        ok = ok and phi.exp_coeffs(3)[3].equals(alpha3)
        A3 = ctx.one()
        three = DrinfeldModule(ctx, [A1, A2, A3])
        d_exp = three.exp_coeffs(3)[3] - phi.exp_coeffs(3)[3]
        ok = ok and d_exp.equals(BracketFrac(ctx, A3, {3: 1}))
        d_log = three.log_coeffs(3)[3] - phi.log_coeffs(3)[3]
        ok = ok and d_log.equals(BracketFrac(ctx, -A3, {3: 1}))
    return CheckResult("worked-examples", ok, {"qs": [2, 3]})


def check_b_routes():
    """Definitional, twisted-recurrence and untwisted-recurrence values
    of the deformed coefficients agree exactly; evaluation at theta
    recovers beta_n."""
    ok = True
    compared = 0
    for ctx, phi in _coeff_instances():
        ref = b_seq(phi, 8, "definition")
        for route in ("twist", "untwisted"):
            alt = b_seq(phi, 8, route)
            for a, b in zip(ref, alt):
                compared += 1
                ok = ok and a.equals(b)
        beta = phi.log_coeffs(8)
        for n, f in enumerate(ref):
            ok = ok and eval_theta_frac(phi, f).equals(beta[n])
    return CheckResult("b-routes", ok, {"comparisons": compared})


def check_norms():
    """Gauss norm of each partition summand equals
    sum_i w(S_i)(deg A_i - q^i); every coefficient norm obeys the
    (q^n - 1) rho bound."""
    ok = True
    terms = 0
    for ctx, phi in _coeff_instances():
        conv = phi.convergence_data()
        rho = -conv.logq_R
        for n in range(1, 9):
            bound = (ctx.q ** n - 1) * rho
            for sp in enumerate_partitions(phi.r, n, support=phi.support):
                f = x_phi(phi, sp)
                w = sp.weights(ctx.q)
                closed = sum(
                    w[i - 1] * (phi.A[i - 1].deg() - ctx.q ** i)
                    for i in phi.support if w[i - 1])
                got = f.to_series(4).gauss_norm_logq()
                terms += 1
                ok = ok and got == closed and got <= bound
        for n, f in enumerate(b_seq(phi, 8, "definition")):
            if n == 0:
                continue
            norm = f.to_series(4).gauss_norm_logq()
            ok = ok and norm <= (ctx.q ** n - 1) * rho
    return CheckResult("norms", ok, {"partition_terms": terms})


def check_omega_carlitz(ucap=128, t_prec=32):
    """The scaled product satisfies the twist equation beyond cap, its
    theta-residue matches the explicit product, and the three product
    evaluation paths agree."""
    ctx = SeriesParams(FieldParams.make(2), 1, max(192, 2 * ucap))
    om = OmegaCarlitz(ctx, ucap, t_prec)
    holds, uval, win = om.diff_eq_residual().residual_report()
    ok = holds and uval >= ucap and win >= t_prec
    form = om.theta_pole_form()
    d = form.to_series() - om.series()
    h2, uv2, _ = d.residual_report()
    ok = ok and h2 and uv2 >= ucap
    paths = [om.pi_tilde(p) for p in ("factored", "single", "series")]
    dd = paths[0] - paths[1]
    ok = ok and not dd.coeffs and dd.cap >= ucap
    # the term-by-term path certifies only what the t-window allows
    ds = paths[0] - paths[2]
    ok = ok and not ds.coeffs and ds.cap >= ctx.m * (ctx.q - 1) * t_prec - \
        2 * ctx.m
    ok = ok and paths[0].val == -ctx.m * 2  # -m(1 + 1/(q-1)) at q=2
    return CheckResult("omega-carlitz", ok,
                       {"ucap": ucap, "t_prec": t_prec,
                        "residual_u_val": int(uval),
                        "pi_val": paths[0].val})


def check_main_theorem_suite(ucap=96, t_prec=16):
    """Identities (b)-(e) for every preset at three in-radius points,
    plus rejection of a point violating the shift precondition."""
    ok = True
    per = {}
    for name in PRESET_ORDER:
        ctx, phi = preset_session(name, prec=2 * ucap * PRESETS[name]["m"])
        rows = []
        for xi in preset_xis(ctx):
            rep = check_main_theorem(phi, xi, ucap, t_prec)
            ok = ok and rep["holds"]
            rows.append({k: rep[k]["u_val"] for k in "bcde"})
        per[name] = rows
    ctx, phi = preset_session("carlitz-q2")
    try:
        check_main_theorem(phi, ctx.theta(), 24, 4)
        rejected = False
    except CompatPreconditionFailed:
        rejected = True
    ok = ok and rejected
    return CheckResult("main-theorem", ok,
                       {"ucap": ucap, "t_prec": t_prec, "suite": per,
                        "precondition_rejected": rejected})


def check_carlitz_compat(ucap=64, t_prec=12):
    """t-action compatibility for the Carlitz module using only the
    explicit product form of the deformed coefficients: no shared code
    with the general-rank route."""
    ctx = SeriesParams(FieldParams.make(2), 1, 4 * ucap)
    phi = carlitz(ctx)
    inner = ucap + 4

    def L(xi):
        cut = phi.log_tail_cut(xi.deg(), inner)
        prods = carlitz_bseq_product(ctx, cut - 1)
        acc = TateSeries.zero(ctx, t_prec)
        xq = xi
        for n, f in enumerate(prods):
            if n:
                xq = xq.pow_q(1)
            acc = acc + f.to_series(t_prec).scale(xq).truncate_u(inner)
        return acc

    ok = True
    vals = []
    for xi in preset_xis(ctx):
        lhs = L(phi.phi_action(xi))
        rhs = (L(xi).shift_t(1).truncate_t(t_prec)
               - TateSeries.from_scalar(ctx, xi).mul_pole(0))
        holds, uval, win = (lhs - rhs).residual_report()
        ok = ok and holds and uval >= ucap and win >= t_prec
        vals.append(int(min(uval, 10 ** 9)))
    return CheckResult("carlitz-compat", ok,
                       {"ucap": ucap, "t_prec": t_prec,
                        "residual_u_vals": vals})


def check_torsion_periods(ucap=128):
    """Torsion-derived Carlitz period against the product form; all q^2
    kernel combinations of the rank-2 preset annihilate; the closed-form
    quasi-period matches 20 partial sums of the direct series."""
    ctx = SeriesParams(FieldParams.make(2), 1, 2 * ucap)
    routes = carlitz_period_routes(ctx, ucap)
    d = routes["product"] - routes["torsion"]
    ok = routes["unit_ok"] and not d.coeffs and d.cap >= ucap

    ctx2, phi = preset_session("rank2-q2", prec=640)
    td = torsion_roots(phi, 80)
    ok = ok and len(td.roots) == 4
    for z in td.roots:
        ok = ok and not phi.phi_action(z).coeffs
    zeta = td.basis[0]
    om = period_from_torsion(phi, zeta, 60)
    closed = quasi_period_prop(phi, 1, zeta, 56)
    partial, tail = quasi_period_orbit(phi, 1, om, 56, terms=20)
    dq = closed - partial
    floor = min(ctx2.val_from_logq(tail), dq.cap)
    ok = ok and dq.vbound >= floor
    return CheckResult("torsion-periods", ok,
                       {"ucap": ucap, "carlitz_unit": routes["unit"],
                        "kernel_size": len(td.roots),
                        "quasi_tail_logq": [Fraction(tail).numerator,
                                            Fraction(tail).denominator]})


def check_legendre(ucap=96, t_prec=8):
    """Rank-2 determinant relation at bi-precision for the shipped
    preset."""
    ctx, phi = preset_session("rank2-q2", prec=640)
    rep = legendre_check(phi, ucap, t_prec)
    ok = (rep["holds"] and rep["det_twist"]["u_val"] >= ucap
          and rep["legendre"]["u_val"] >= ucap)
    return CheckResult("legendre", ok,
                       {"ucap": ucap, "t_prec": t_prec,
                        "c": list(rep["legendre"]["c"]),
                        "det_u_val": rep["det_twist"]["u_val"]})


def _series_json(s):
    return json.dumps(s.to_json(), sort_keys=True)


def check_precision_soundness(ucap=96, t_prec=16):
    """Doubling every cap and truncating reproduces the lower-cap
    artifacts byte for byte: the omega series, the deformed-logarithm
    series of every preset, and the Legendre value."""
    ok = True
    ctx = SeriesParams(FieldParams.make(2), 1, 1024)
    low = OmegaCarlitz(ctx, 128, 32).series()
    high = OmegaCarlitz(ctx, 256, 64).series()
    ok = ok and _series_json(low) == _series_json(
        high.truncate_t(32).truncate_u(128))

    for name in PRESET_ORDER:
        c, phi = preset_session(name, prec=4 * ucap * PRESETS[name]["m"])
        xi = c.one() + c.theta(-1)
        s_low = DeformedLog(phi, xi, ucap).series(t_prec)
        s_high = DeformedLog(phi, xi, 2 * ucap).series(2 * t_prec)
        ok = ok and _series_json(s_low) == _series_json(
            s_high.truncate_t(t_prec).truncate_u(ucap))

    c2, phi2 = preset_session("rank2-q2", prec=2560)
    v_low = legendre_check(phi2, ucap, t_prec // 2)["legendre"]["value"]
    v_high = legendre_check(phi2, 2 * ucap, t_prec)["legendre"]["value"]
    elem = LaurentElem.from_json(c2, v_high).truncate(ucap)
    ok = ok and json.dumps(v_low, sort_keys=True) == \
        json.dumps(elem.to_json(), sort_keys=True)
    return CheckResult("precision-soundness", ok,
                       {"doubled": ["omega-carlitz", "deformed-log",
                                    "legendre-value"]})


ALL_CHECKS = (
    ("1", check_partition_counts),
    ("2", check_coefficient_closed_forms),
    ("3", check_worked_examples),
    ("4", check_b_routes),
    ("5", check_norms),
    ("6", check_omega_carlitz),
    ("7", check_main_theorem_suite),
    ("8", check_carlitz_compat),
    ("9", check_torsion_periods),
    ("10", check_legendre),
    ("11", check_precision_soundness),
)


def run_all(seed=0):
    checks = []
    passed = True
    for label, fn in ALL_CHECKS:
        res = fn(seed=seed) if fn is check_partition_counts else fn()
        passed = passed and res.passed
        row = res.to_json()
        row["criterion"] = label
        checks.append(row)
    return {"suite": "acceptance", "seed": seed, "pass": passed,
            "checks": checks}
