"""Independent quadrature evaluation of the defining dispersion integrals.

Every closed form in `dispersion` is the value of a time integral of a
boundary kernel.  By stationarity the double (velocity) and quadruple
(position) integrals reduce to single integrals

    <dv^2> = (e^2/m^2) Int_0^t  2 (t - tau)                      f(tau) dtau
    <dx^2> = (e^2/m^2) Int_0^t  (t - tau)^2 (2 t + tau) / 3      f(tau) dtau

with f the transverse or normal kernel.  This module evaluates those
integrals numerically, without using the closed forms, so the two routes
stay genuinely independent.

The kernels have a pole at tau = 2z.  For t > 2z the integral crosses it
and is defined as the limit of the point-split integral, tau -> tau - i eps
with eps -> 0+: the x - i0 (Sokhotski-Plemelj) prescription.  The split
kernel has its poles at tau = +-2z + i eps, above the real axis, and the
weights are polynomials, so the path may dip below the axis around tau = 2z
without changing the value; on that path the integrand is analytic in eps
down to eps = 0, so the limit is the integral of the unsplit kernel along
it.  Each point is therefore one contour integral at eps = 0: for t < 2z the
axis from 0 to t; beyond, the axis from 0 to z, a semicircle of radius z
centred at 2z below the axis, then the axis from 3z to t (run as
-Int_t^{3z} when t < 3z).  The radius does not shrink with t - 2z, so the
integrand stays smooth on every piece except near tau = t itself.

A point's error estimate is the sum of its pieces' quadrature error
estimates plus eps_mach * Sum |pieces| * max(1, t / |t - 2z|).  The first
term is how well the rule fits the integrand it was given; the second
covers what it cannot see, the rounding of the pieces' cancelling sum and of
the nodes next to the pole (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2002, ch. 4).

Internally everything is computed at z = 1 in the scaled variables
u = tau/z, T = t/z and rescaled afterward; this keeps absolute quadrature
tolerances meaningful for any z.

Quadrature is QUADPACK's globally adaptive 21-point Gauss-Kronrod rule
(G10/K21; Piessens et al., *QUADPACK*, 1983; Kronrod 1965) over a batch of
integrals: every (point, contour piece) of one quantity is one integral.
The bookkeeping is per integral, in plain Python lists:
each pass, every integral not yet done sums its intervals' values and
errors left to right and halves its interval of largest error.  Only the
rule runs on numpy arrays, on all new halves of the batch in one array
expression.  An interval's error estimate is QUADPACK's: resasc * min(1,
(200 |K - G| / resasc)^1.5), floored at 50 eps_mach * resabs, where resabs
and resasc are the rule applied to |f| and to |f - mean f|.  An integral
is done when its summed error meets max(EPSABS, EPSREL |I|) or when it
holds MAX_SUBDIVISIONS intervals, the fixed 1e-13, 1e-12 and 200.  Then
`_integrate` itself refuses the batch at its first integral whose estimate
exceeds 100 times that tolerance, or that QUADPACK's round-off or
too-narrow-interval test stopped first.  So is a point whose error estimate
is not below the magnitude of its value.  The
rule sums run elementwise along the node axis, so an interval's rule
result does not depend on the call it ran in, and each integral sums only
its own intervals, so no integral's value depends on the batch it was
computed in.

That lets a contour batch run the rule ahead.  When a pass must call the
rule, the same call also covers whole levels of the new halves'
descendants (quarters, eighths, ...) while it stays within
`_LOOKAHEAD_ROWS` rows; a later pass that halves one of them takes its
halves from there and calls the rule only if some are missing.  Which
interval is halved, every sum and every stop stay those of one call per
pass, bit for bit.  A lone far-band point (velocity x, t/z = 1e4) makes 13
halving passes in 6 rule calls instead of 14; a large batch fills the
budget with the halves it needs anyway.  `reduced_time_integral` and
`direct_time_integral` call the caller's Python f once per node, where a
row run ahead for nothing costs real work, so they do not look ahead.

A point's oracle value is a scaled integral at z = 1 times its prefactor,
and the scaled integral, with its error estimate, depends only on (kind,
component, T).  `verify_grid` therefore keeps each one it computes in a
module-level memo keyed on that triple, T the exact float t/z that the
point's own t and z give, and runs only the T it does not hold, as one
batch per quantity.  A later grid at any particle, and at any z whose
(ratio z)/z rounds to a T already held, runs no quadrature.  Since no
integral's value depends on its batch, a held value is bit for bit the one
a fresh batch would give, and the prefactor, the "no significant digit"
refusal and the float-range refusal still run for every point.  A batch
that would take the memo past `_MEMO_ENTRIES` (256) entries clears it
first; a full grid fills 36.  Threads share the memo: a lock keeps that
check and the update together, and since a held value depends only on its
key, a race can at worst compute one twice.  A process's first grid gains
nothing, so a single CLI `verify` runs as before.  `dispersion_oracle`
takes an arbitrary t/z and neither reads nor fills the memo.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from collections.abc import Callable, Sequence

import numpy as np

from .correlators import (
    RegulatorSpec,
    normal_kernel_complex,
    transverse_kernel_complex,
)
from .dispersion import QUANTITIES, EvalPoint, _check_lightcone, _checked_prefactor
from .errors import ExtrapolationError, FrozenRecord, QuadratureConvergenceError, set_field
from .units_constants import ParticleSpec, unit_preset

__all__ = [
    "OracleResult",
    "VerifyRow",
    "PRE_LIGHTCONE_RATIOS",
    "POST_LIGHTCONE_RATIOS",
    "TOL_PRE_LIGHTCONE",
    "TOL_POST_LIGHTCONE",
    "default_regulator",
    "weight_velocity",
    "weight_position",
    "reduced_time_integral",
    "direct_time_integral",
    "dispersion_oracle",
    "verify_grid",
]

# Standard comparison grids (t/z) and tolerance tiers.
PRE_LIGHTCONE_RATIOS = (0.1, 0.5, 1.0, 1.5, 1.9)
POST_LIGHTCONE_RATIOS = (2.5, 3.0, 5.0, 10.0)
_GRID_RATIOS = {"full": PRE_LIGHTCONE_RATIOS + POST_LIGHTCONE_RATIOS,
                "pre-lightcone": PRE_LIGHTCONE_RATIOS, "post-lightcone": POST_LIGHTCONE_RATIOS}
GRIDS = tuple(_GRID_RATIOS)
TOL_PRE_LIGHTCONE = 1e-6
TOL_POST_LIGHTCONE = 1e-4


def default_regulator(z: float, t: float) -> RegulatorSpec:
    """A point-splitting ladder for an evaluation at (t, z): eps0 = 1e-4 z
    before the lightcone, 1e-2 z beyond.  The oracle itself needs none; only
    the benchmark's rung probe reads it, and its removal waits for the
    benchmark change of ROADMAP item 5, "perfbench after the ladder"."""
    return RegulatorSpec(eps0=(1e-4 if t < 2.0 * z else 1e-2) * z)


OracleResult = namedtuple("OracleResult", "value error_estimate rungs")
OracleResult.__doc__ = """Oracle value with its error estimate, both in the caller's units.

    ``value`` and ``error_estimate`` are floats; ``error_estimate`` is the
    pieces' quadrature error estimates plus the rounding bound of the
    module docstring.  ``rungs`` is the single pair (0.0, value): the value
    at regulator eps = 0, the only one computed.  Only the benchmark's oracle
    probes read it; its removal waits for the benchmark change of ROADMAP
    item 5, "perfbench after the ladder".
    """


# --- time weights ------------------------------------------------------------

def weight_velocity(tau, t):
    """Stationarity weight 2 (t - tau) of the velocity double integral."""
    return 2.0 * (t - tau)


def weight_position(tau, t):
    """Stationarity weight of the reduced position integral.

    (t - tau)^2 (2 t + tau) / 3, which is (2/3)(t^3 - tau^3) - tau (t^2 - tau^2)
    without that form's cancellation near tau = t; equals 2 t^3 / 3 at tau = 0.
    """
    return (t - tau) ** 2 * (2.0 * t + tau) / 3.0


_WEIGHTS = {"velocity": weight_velocity, "position": weight_position}

_KERNELS = {"x": transverse_kernel_complex, "z": normal_kernel_complex}


# --- batched adaptive Gauss-Kronrod quadrature -----------------------------------

# QUADPACK's qk21 on [-1, 1]: the positive Kronrod abscissae from the end
# inward, every second one (0.9739..., 0.8650..., ...) a Gauss node, and the
# weights of both rules at those abscissae; the centre is a Kronrod node only.
_XK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208977058550, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
)
_WK_CENTRE = 0.149445554002916905664936468389821
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# The 21 nodes in increasing order, each rule's weight at every node.
NODES = np.array([-x for x in _XK] + [0.0] + list(reversed(_XK)))
KRONROD_WEIGHTS = np.array(list(_WK) + [_WK_CENTRE] + list(reversed(_WK)))
_WG_AT_XK = [0.0 if i % 2 == 0 else _WG[i // 2] for i in range(10)]
GAUSS_WEIGHTS = np.array(_WG_AT_XK + [0.0] + list(reversed(_WG_AT_XK)))

# Every integral's tolerance and subdivision budget.  The tolerances apply to
# the scaled (z = 1) integrals, which are O(1) on the standard grid.
EPSABS = 1e-13
EPSREL = 1e-12
MAX_SUBDIVISIONS = 200

# Rows one `_gk21` call of a contour batch may fill with look-ahead (see
# `_integrate`): three levels below one halving.  Of 6, 14, 30 and 62 rows,
# 14 and 30 ran far-band points fastest, and 14 runs fewer rows for nothing.
_LOOKAHEAD_ROWS = 14

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# A vectorised integrand: nodes of shape (m, 21) on intervals of the
# integrals k, shape (m,), to the real integrand at those nodes.
Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _gk21(f: Integrand, k: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The G10/K21 rule on each interval [lo, hi] of integral k: (value, error, resasc)."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fx = f(centre[:, None] + half[:, None] * NODES, k)
    kronrod = (fx * KRONROD_WEIGHTS).sum(axis=1)
    gauss = (fx * GAUSS_WEIGHTS).sum(axis=1)
    resabs = (np.abs(fx) * KRONROD_WEIGHTS).sum(axis=1) * half
    resasc = (np.abs(fx - 0.5 * kronrod[:, None]) * KRONROD_WEIGHTS).sum(axis=1) * half
    err = np.abs((kronrod - gauss) * half)
    ratio = 200.0 * err / resasc
    err = np.where((resasc != 0.0) & (err != 0.0),
                   resasc * np.minimum(1.0, ratio * np.sqrt(ratio)), err)
    return kronrod * half, np.maximum(err, 50.0 * _EPS * resabs), resasc


def _integrate(f: Integrand, a: Sequence[float], b: Sequence[float],
               rows: int = 0) -> tuple[list[float], list[float]]:
    """Int_a^b f for every pair (a[i], b[i]): values and error estimates.

    Each integral keeps its intervals in plain lists, in slot order: a halving
    puts the left half in the halved slot and appends the right half.  Each
    pass, every integral not yet done sums its values and errors left to right
    and is done when the error meets max(EPSABS, EPSREL |value|) or it holds
    MAX_SUBDIVISIONS intervals; else it halves its interval of largest
    error (the first of equal ones, a NaN one only if all are).  Only the rule
    runs on numpy arrays, in at most one `_gk21` call per pass: on every new
    half that no earlier call ran ahead, and on whole levels of those halves'
    descendants (quarters, eighths, ...) while the call keeps within ``rows``
    rows.  With ``rows`` = 14 that is three levels below one halving (2 + 4 +
    8 rows), two below two and none below more.  A pass whose halves all ran
    ahead calls no rule.  The halving choice and every sum are those of one
    call per pass, so ``rows`` changes the number of calls, never a bit.
    QUADPACK's (qag) early stops also end an integral: round-off (ier = 2),
    after 6 halvings that keep the value within 1e-5 relative and the error
    above 99 %, or 20 from the 11th interval on that raise the error, counting
    those where neither half's estimate is saturated at resasc; and an interval
    too narrow to halve (ier = 3).  `_within_budget` then refuses the first
    integral, in order, that stopped early or ended over budget.
    """
    n = len(a)
    span = [[(float(x), float(y))] for x, y in zip(a, b)]  # each interval's (lo, hi)
    stalled, rising = [0] * n, [0] * n  # QUADPACK's iroff1 and iroff2
    values, errors, stops, running = [0.0] * n, [0.0] * n, [None] * n, range(n)
    ahead = {}  # (integral, lo, hi) to the rule's (value, error, resasc) there
    with np.errstate(all="ignore"):
        r, e, _ = _gk21(f, np.arange(n), np.array(a, dtype=float), np.array(b, dtype=float))
        res, err = [[x] for x in r.tolist()], [[x] for x in e.tolist()]
        while True:
            halving = []
            for i in running:
                value = error = 0.0
                for x, y in zip(res[i], err[i]):  # left to right, unlike sum() from 3.12 on
                    value += x
                    error += y
                values[i], errors[i] = value, error
                if error <= max(EPSABS, EPSREL * abs(value)):
                    continue
                stops[i] = "round-off error" if stalled[i] >= 6 or rising[i] >= 20 else None
                if stops[i] or len(err[i]) >= MAX_SUBDIVISIONS:
                    continue
                worst = max(-1.0, *err[i])  # errors are >= 0, and a NaN never wins
                j = err[i].index(worst) if worst >= 0.0 else 0  # all NaN: the first
                a1, b2 = span[i][j]
                mid = 0.5 * (a1 + b2)
                if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPS) * (abs(mid) + 1000.0 * _TINY):
                    stops[i] = f"an interval too narrow to halve after {len(err[i])} intervals"
                else:
                    halving.append((i, j, a1, mid, b2))
            if not halving:
                for args in zip(values, errors, stops, a, b):
                    _within_budget(*args)
                return values, errors
            # the halves no earlier call ran ahead (they come and go in pairs),
            # then whole levels below them while the call stays within rows
            keys = [(i, x, y) for i, _, a1, mid, b2 in halving if (i, a1, mid) not in ahead
                    for x, y in ((a1, mid), (mid, b2))]
            level = keys
            while level and len(keys) + 2 * len(level) <= rows:
                level = [(i, x, y) for i, lo, hi in level
                         for mid in (0.5 * (lo + hi),) for x, y in ((lo, mid), (mid, hi))]
                keys += level
            if keys:
                k, lo, hi = zip(*keys)
                r, e, resasc = _gk21(f, np.array(k), np.array(lo), np.array(hi))
                ahead.update(zip(keys, zip(r.tolist(), e.tolist(), resasc.tolist())))
            running = []
            for i, j, a1, mid, b2 in halving:
                (r1, e1, c1), (r2, e2, c2) = ahead.pop((i, a1, mid)), ahead.pop((i, mid, b2))
                both, errs = r1 + r2, e1 + e2
                if e1 != c1 and e2 != c2:
                    stalled[i] += (abs(res[i][j] - both) <= 1e-5 * abs(both)
                                   and errs >= 0.99 * err[i][j])
                    rising[i] += len(err[i]) >= 10 and errs > err[i][j]
                span[i][j], res[i][j], err[i][j] = (a1, mid), r1, e1
                span[i].append((mid, b2))
                res[i].append(r2)
                err[i].append(e2)
                running.append(i)


def _within_budget(value: float, err: float, stop: str | None, a: float, b: float) -> None:
    """Refuse an integral stopped early or whose error estimate exceeds 100x its
    tolerance (or is NaN); `_integrate`, its one caller, checks every integral."""
    tol = max(EPSABS, EPSREL * abs(value))
    if stop is not None:
        raise QuadratureConvergenceError(
            f"{stop} on [{a!r}, {b!r}] keeps the quadrature error estimate "
            f"{err:.3e} above its tolerance {tol:.3e}",
            achieved=err,
        )
    if not err <= 100.0 * tol:
        raise QuadratureConvergenceError(
            f"quadrature error estimate {err:.3e} exceeds budget {100.0 * tol:.3e} "
            f"on [{a!r}, {b!r}] within {MAX_SUBDIVISIONS} subdivisions",
            achieved=err,
        )


def _per_node(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """A caller's scalar function at every node of x."""
    return np.array([f(u) for u in x.ravel().tolist()], dtype=float).reshape(x.shape)


def _check_time(t: float) -> None:
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be finite and positive, got {t!r}")


# --- oracle entry points --------------------------------------------------------

def _contour(T: float) -> list[tuple[float, float, bool, float]]:
    """(a, b, arc, sign) of each piece of one scaled oracle integral, z = 1, in path order.

    For T <= 2 one piece on the axis.  Beyond, the axis from 0 to 1, the
    semicircle u = 2 + e^{is} over s in [pi, 2 pi], below the pole, and the
    axis from 3 to T; when T < 3 that is -Int_T^3, since `_gk21` needs lo <= hi.
    """
    if T <= 2.0:
        return [(0.0, T, False, 1.0)]
    tail = (3.0, T, False, 1.0) if T >= 3.0 else (T, 3.0, False, -1.0)
    return [(0.0, 1.0, False, 1.0), (math.pi, 2.0 * math.pi, True, 1.0), tail]


def _contour_integrand(kind: str, component: str, T: np.ndarray, arc: np.ndarray) -> Integrand:
    """Re of weight(u, T) kernel(u) du/ds on each integral's piece.

    On the axis u = s; on the semicircle u = 2 + e^{is}.
    """
    weight, kernel = _WEIGHTS[kind], _KERNELS[component]

    def f(s: np.ndarray, k: np.ndarray) -> np.ndarray:
        u = s.astype(complex)
        on_arc = np.flatnonzero(arc[k])
        if on_arc.size:
            turn = np.exp(1j * s[on_arc])
            u[on_arc] = 2.0 + turn
        g = weight(u, T[k][:, None]) * kernel(u, 1.0)
        if on_arc.size:
            g[on_arc] *= 1j * turn  # du/ds, which is 1 on the axis
        return g.real
    return f


def _plan(kind: str, p: EvalPoint) -> tuple[float, float]:
    """A point's (t/z, prefactor e^2/m^2 (/z^2)); refuses the point on the lightcone
    or, as the closed form does, with its prefactor outside the float range."""
    _check_lightcone(p)
    spec = p.particle
    # the denominator multiplied out first, as the closed form does: with
    # e = 1e-150, m = 1e150, z = 1e-300 this gives 1, where e^2/m^2 and z^2
    # would both round to zero
    if kind == "velocity":
        denominator, formula = spec.m * spec.m * p.z * p.z, "e^2/(m^2 z^2)"
    else:
        denominator, formula = spec.m * spec.m, "e^2/m^2"
    prefactor = spec.e * spec.e / denominator if denominator else math.inf
    return p.t / p.z, _checked_prefactor(kind, formula, prefactor)


def _scaled(kind: str, component: str, Ts: Sequence[float]) -> list[tuple[float, float]]:
    """Each scaled integral's (value, error estimate) at z = 1, t/z = T: every
    contour piece of every T as one `_integrate` batch, then each T's sums."""
    contours = [_contour(T) for T in Ts]
    piece_T, a, b, arc, signs = zip(*((T, *piece) for T, pieces in zip(Ts, contours)
                                      for piece in pieces))
    integrand = _contour_integrand(kind, component, np.array(piece_T), np.array(arc))
    values, errors = _integrate(integrand, a, b, _LOOKAHEAD_ROWS)

    scaled = []
    i = 0
    for T, pieces in zip(Ts, contours):
        j = i + len(pieces)
        # fsum rounds once, alike on every Python (sum() compensates from 3.12 on)
        parts = [sign * v for sign, v in zip(signs[i:j], values[i:j])]
        error_estimate = (math.fsum(errors[i:j]) + _EPS * math.fsum(map(abs, parts))
                          * max(1.0, T / abs(T - 2.0)))
        scaled.append((math.fsum(parts), error_estimate))
        i = j
    return scaled


# `verify_grid`'s scaled (value, error estimate) by (kind, component, exact T);
# see the module docstring.
_MEMO: dict[tuple[str, str, float], tuple[float, float]] = {}
_MEMO_ENTRIES = 256
_MEMO_LOCK = threading.Lock()  # keeps the bound check and the update together


def _memoised(kind: str, component: str, Ts: Sequence[float]) -> list[tuple[float, float]]:
    """`_scaled` through `_MEMO`: only the T not held there run, as one batch."""
    found = {T: _MEMO.get((kind, component, T)) for T in Ts}
    missing = [T for T, scaled in found.items() if scaled is None]
    if missing:
        found.update(zip(missing, _scaled(kind, component, missing)))
        with _MEMO_LOCK:
            if len(_MEMO) + len(missing) > _MEMO_ENTRIES:
                _MEMO.clear()
            _MEMO.update(((kind, component, T), found[T]) for T in missing)
    return [found[T] for T in Ts]


def _results(plans: Sequence[tuple[float, float]],
             scaled: Sequence[tuple[float, float]]) -> list[OracleResult]:
    """Each plan's result from its scaled (value, error estimate), in order,
    refusing a value without a significant digit or outside the float range."""
    results = []
    for (T, prefactor), (value, error_estimate) in zip(plans, scaled):
        if not error_estimate < abs(value):
            raise ExtrapolationError(
                f"error estimate {error_estimate:.3e} is not below the magnitude "
                f"{abs(value):.3e} of the value at t/z = {T!r}: no significant digit"
            )
        value *= prefactor
        if not math.isfinite(value):
            raise ValueError(f"value at t/z = {T!r} leaves the float range")
        results.append(OracleResult(
            value=value,
            error_estimate=prefactor * error_estimate,
            rungs=((0.0, value),),
        ))
    return results


def dispersion_oracle(kind: str, component: str, p: EvalPoint) -> OracleResult:
    """Quadrature value of a dispersion: kind 'velocity'|'position', component 'x'|'z'.

    Evaluates the reduced integral at eps = 0 on the contour of the module
    docstring, below the pole beyond the lightcone, and rescales by e^2/m^2
    (velocities carry an extra 1/z^2).
    """
    if kind not in _WEIGHTS:
        raise ValueError("kind must be 'velocity' or 'position'")
    if component not in _KERNELS:
        raise ValueError("component must be 'x' or 'z'")
    T, prefactor = _plan(kind, p)
    return _results([(T, prefactor)], _scaled(kind, component, [T]))[0]


# --- generic weighted integrals for audits ---------------------------------------

def reduced_time_integral(f: Callable[[float], float], t: float, kind: str) -> float:
    """Int_0^t weight(tau, t) f(tau) dtau for a caller-supplied even kernel f.

    ``f`` is called once per node with a float; t must be finite and > 0.
    Each pass halves one interval and runs the numpy rule on its two halves,
    without look-ahead.  ``reduced_time_integral(math.cos, 1.0, "velocity")``,
    settled by one rule call, takes 0.04 ms (minimum of 20 calls in process,
    2-CPU Xeon, Python 3.11).
    """
    if kind not in _WEIGHTS:
        raise ValueError("kind must be 'velocity' or 'position'")
    _check_time(t)
    weight = _WEIGHTS[kind]
    return _integrate(lambda x, _: weight(x, t) * _per_node(f, x), [0.0], [t])[0][0]


def direct_time_integral(f: Callable[[float], float], t: float, kind: str) -> float:
    """The unreduced double integral over [0, t]^2 for an even kernel f.

    Velocity: Int Int f(t' - t'').  Position: Int Int (t-t')(t-t'') f(t'-t'').
    Used to audit the stationarity weights.  The inner integral is split at
    the diagonal so kernels with a |u| kink stay piecewise smooth; the inner
    integrals at every outer node of a pass form one batch.
    """
    if kind not in _WEIGHTS:
        raise ValueError("kind must be 'velocity' or 'position'")
    _check_time(t)

    def inner(x: np.ndarray, _: np.ndarray) -> np.ndarray:
        outer = x.ravel().tolist()
        n = len(outer)
        up = np.array(outer + outer)

        def integrand(us: np.ndarray, k: np.ndarray) -> np.ndarray:
            u = up[k][:, None]
            values = _per_node(f, u - us)
            return values if kind == "velocity" else (t - u) * (t - us) * values

        values, _ = _integrate(integrand, [0.0] * n + outer, outer + [t] * n)
        return (np.array(values[:n]) + np.array(values[n:])).reshape(x.shape)

    return _integrate(inner, [0.0], [t])[0][0]


# --- verification grid -------------------------------------------------------------

class VerifyRow(FrozenRecord):
    """One oracle-vs-closed-form comparison."""

    __slots__ = ("quantity", "t_over_z", "closed", "oracle", "rel_err", "eps_estimate", "passed")

    def __init__(self, quantity: str, t_over_z: float, closed: float, oracle: float,
                 rel_err: float, eps_estimate: float, passed: bool) -> None:
        set_field(self, "quantity", quantity)
        set_field(self, "t_over_z", t_over_z)
        set_field(self, "closed", closed)
        set_field(self, "oracle", oracle)
        set_field(self, "rel_err", rel_err)
        set_field(self, "eps_estimate", eps_estimate)
        set_field(self, "passed", passed)


def verify_grid(
    particle: ParticleSpec | None = None,
    z: float = 1.0,
    *,
    grid: str = "full",
    tolerance: float | None = None,
) -> list[VerifyRow]:
    """Compare every closed form against the oracle on the standard grid.

    Rows are ordered quantity-major, then by t/z.  A row passes when its
    relative error is at most ``tolerance``, which must be finite and >= 0;
    without one, pre-lightcone points are held to TOL_PRE_LIGHTCONE,
    pole-crossing points to TOL_POST_LIGHTCONE.
    ``grid`` selects "pre-lightcone", "post-lightcone", or "full".  Every
    row's closed form and oracle checks run first, in row order, refusing a
    closed form that underflowed to zero, against which no relative error
    exists; then each quantity's rows take their scaled integrals from the
    memo of the module docstring, the rest running as one batch.
    """
    if tolerance is not None and not 0.0 <= tolerance < math.inf:
        raise ValueError(f"need a finite tolerance >= 0, got {tolerance!r}")
    if grid not in GRIDS:
        raise ValueError("grid must be 'full', 'pre-lightcone', or 'post-lightcone'")
    if particle is None:
        particle = unit_preset()

    cases, batches = [], []
    for quantity in QUANTITIES.values():
        plans = []
        for ratio in _GRID_RATIOS[grid]:
            point = EvalPoint(t=ratio * z, z=z, particle=particle)
            closed = quantity.value(point)
            if closed == 0.0:
                raise ValueError("value leaves the float range")
            cases.append((quantity, ratio, closed))
            plans.append(_plan(quantity.kind, point))
        batches.append((quantity, plans))
    results = [result for quantity, plans in batches for result in _results(
        plans, _memoised(quantity.kind, quantity.component, [T for T, _ in plans]))]

    rows: list[VerifyRow] = []
    for (quantity, ratio, closed), result in zip(cases, results):
        tier = TOL_PRE_LIGHTCONE if ratio < 2.0 else TOL_POST_LIGHTCONE
        rel_err = abs(result.value - closed) / abs(closed)
        rows.append(
            VerifyRow(
                quantity=quantity.id,
                t_over_z=ratio,
                closed=closed,
                oracle=result.value,
                rel_err=rel_err,
                eps_estimate=result.error_estimate,
                passed=rel_err <= (tier if tolerance is None else tolerance),
            )
        )
    return rows
