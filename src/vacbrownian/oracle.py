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
axis from 0 to t; beyond, a path from 0 to 3z that passes below the pole,
then the axis from 3z to t (run as -Int_t^{3z} when t < 3z).  The axis from
0 runs in u = tau/z itself, and the tail in v = ln(u - 2), where the
integrand varies on the scale of u - 2, so a few intervals cover it up to
the largest float (`_contour`).

Past the lightcone the weight is a polynomial in u, Sum_j c_j(T) u^j with
j in {0, 1} (velocity: 2T - 2u) or {0, 1, 3} (position:
(2/3)T^3 - T^2 u + u^3/3).  So the path from 0 to 3 below the pole is
Sum_j c_j(T) F_j, where the moments F_j = Re Int_0^3 u^j kernel(u) du along
it depend on no T, and a point past the lightcone rules only its tail.  The
six F_j are committed literals, `_MOMENTS`: each is the correctly rounded
value of its integral, taken with mpmath.quad at 40 digits on the path
0 -> 1 -> 2 - i -> 3 from the kernels' formulas, and a test regenerates
each bit for bit.  No closed form of `dispersion` enters them, so the two
routes stay independent.

A point's error estimate is its ruled piece's quadrature error estimate,
past the lightcone plus Sum_j |c_j(T)| ulp(F_j)/2 for the literals'
rounding, plus eps_mach * Sum |parts| * max(1, t / |t - 2z|), where the
parts are the tail and each c_j F_j.  The first term is how well the rule
fits the integrand it was given; the last covers what it cannot see, the
rounding of the parts' cancelling sum and of the nodes next to the pole
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 4).

Internally everything is computed at z = 1 in the scaled variables
u = tau/z, T = t/z and rescaled afterward; this keeps absolute quadrature
tolerances meaningful for any z.

Quadrature is QUADPACK's globally adaptive 21-point Gauss-Kronrod rule
(G10/K21; Piessens et al., *QUADPACK*, 1983; Kronrod 1965), one integral
per `_integrate` call, as qag runs it: each point's one ruled piece is one
integral.  Its bookkeeping is in plain Python lists: each pass sums its
intervals' values and errors left to right and halves its interval of
largest error.  The rule runs in one `_gk21` call on the starting
intervals, before the loop, and one on the two halves of each halving, row
by row in Python floats, on the weight times the kernel at z = 1, times du
on the tail.  Those rows are written out inline, one
comprehension per kind, component and piece (`_ROWS`), in the operation
order of the public `weight_*` and `correlators`' complex kernels, so each
is their product bit for bit without their calls.  The rule's sums of K
(of f, |f| and |f - mean f|) add their 21 products in one fixed order
(`_row_sum`), and G adds only its ten, in the order `_row_sum` gives them:
the eleven it leaves out have the weight 0.0, exact zeros that move no
sum.  So no sum depends on the Python it runs on or on the CPU; the
tail's `math.exp` follows the libm.
An interval's error estimate is QUADPACK's:
resasc * min(1, (200 |K - G| / resasc)^1.5), floored at
50 eps_mach * resabs, where resabs and resasc are the rule applied to |f|
and to |f - mean f|.  An integral is done when its summed error meets
max(EPSABS, EPSREL |I|) or when it holds MAX_SUBDIVISIONS intervals, the
fixed 1e-13, 1e-12 and 200.  Then `_integrate` itself refuses an integral
whose estimate is NaN or exceeds 100 times that tolerance, or that
QUADPACK's round-off or too-narrow-interval test stopped first, so a batch
of points is refused at its first refused point, before the later ones
run.  So is a point whose error estimate is not below the magnitude of its
value, or whose estimate, times its prefactor, is below the smallest normal
float.  Each row is summed along its own 21 nodes, so an interval's rule
result does not depend on the call it ran in, and each integral sums only
its own intervals, so no point's value depends on the points it is
computed with.

Where the pass loop will halve a contour piece is known before any rule
runs.  The rule converges on an interval at a rate set by the interval's
distance to the integrand's nearest singularity (the Bernstein-ellipse
argument; Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?",
*SIAM Rev.* 50, 2008), and the kernels' only singularities are the poles
u = +-2.  Each piece therefore comes with a singularity in its own
variable, `_POLES`: the pole u = 2 for the axis; for the tail, whose true
nearest lies where u meets -2 (v = ln 4 + i pi), a point nearer the real
line, chosen by measurement so that a point's mesh leaves the pass loop
nothing to halve.  `_mesh` halves each piece, level by level, wherever an
interval is longer than twice its distance to that singularity, putting
each half in the slot the pass loop would, and the first rule call runs all
of the integral's starting intervals.  On `tools/ab_oracle.py`'s draws
every point takes one rule call, of 1.07, 1.62 and 3.52 rows before the
lightcone, past it and in the far band (t/z > 100); a lone far-band point
(velocity x, t/z = 1e4) starts its tail from 4 intervals and halves none,
in a cold process too.  No contour piece starts from more than 21
intervals, the axis at the lightcone window's lower edge (the tail from at
most 10 up to the largest float), so the MAX_SUBDIVISIONS cap of `_mesh`
refuses none, and no point's cap refusal can come before an earlier
point's refusal.
`reduced_time_integral` and `direct_time_integral` call the caller's
Python f once per node, in floats, and pass no singularity, so they start
from one interval.

A point's oracle value is a scaled integral at z = 1 times its prefactor,
and the scaled integral, with its error estimate, depends only on (kind,
component, T).  `verify_grid` therefore takes each quantity's scaled
integrals from `_grid_scaled`, `_scaled` under
`functools.lru_cache(maxsize=256)`, keyed on (kind, component, the grid's
exact T).  A grid whose T all repeat, at any particle, runs no quadrature;
since no point's value depends on the points it is computed with, a held
value is bit for bit a fresh one, and the prefactor and every refusal still
run for every point.
Past 256 entries (a full grid fills 4) the least recently used one goes;
threads can at worst compute one twice.  `dispersion_oracle` calls
`_scaled` itself and neither reads nor fills the cache.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from operator import mul

from .correlators import PI_SQ, RegulatorSpec, check_lightcone
from .dispersion import QUANTITIES, EvalPoint, _LIGHTCONE_REFUSAL, _prefactor
from .errors import ExtrapolationError, FrozenRecord, QuadratureConvergenceError
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
    The square is a product, so the weight is inf, not an OverflowError as a
    float's ** 2 would raise, where (t - tau)^2 (2 t + tau) leaves the float
    range.
    """
    gap = t - tau
    return gap * gap * (2.0 * t + tau) / 3.0


def _velocity_coefficients(t):
    """(c_0, c_1): weight_velocity(u, t) = c_0 + c_1 u."""
    return 2.0 * t, -2.0


def _position_coefficients(t):
    """(c_0, c_1, c_3): weight_position(u, t) = c_0 + c_1 u + c_3 u^3."""
    return 2.0 / 3.0 * t * t * t, -t * t, 1.0 / 3.0


# Each kind's weight and its coefficients c_j(t) by power j of u, in the order
# of `_MOMENTS`.
_WEIGHTS = {"velocity": (weight_velocity, _velocity_coefficients),
            "position": (weight_position, _position_coefficients)}


def _weight(kind: str) -> tuple[Callable, Callable]:
    """The time weight of ``kind`` and its coefficients; refuses a kind other than
    'velocity' or 'position'."""
    weight = _WEIGHTS.get(kind)
    if weight is None:
        raise ValueError("kind must be 'velocity' or 'position'")
    return weight


# --- adaptive Gauss-Kronrod quadrature -----------------------------------------

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
NODES = tuple([-x for x in _XK] + [0.0] + list(reversed(_XK)))
KRONROD_WEIGHTS = tuple(list(_WK) + [_WK_CENTRE] + list(reversed(_WK)))
_WG_AT_XK = [0.0 if i % 2 == 0 else _WG[i // 2] for i in range(10)]
GAUSS_WEIGHTS = tuple(_WG_AT_XK + [0.0] + list(reversed(_WG_AT_XK)))
# G's weights at its own nodes, the odd ones of NODES
_GAUSS_WEIGHTS_10 = GAUSS_WEIGHTS[1::2]

# Every integral's tolerance and subdivision budget.  The tolerances apply to
# the scaled (z = 1) integrals, which are O(1) on the standard grid.
EPSABS = 1e-13
EPSREL = 1e-12
MAX_SUBDIVISIONS = 200

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min

# An integrand: the 21 nodes of one interval, as floats, to the real integrand
# at those nodes.
Integrand = Callable[[list[float]], list[float]]


def _row_sum(a: Iterable[float]) -> float:
    """The sum of 21 floats in one fixed order, the same on every Python
    (sum() compensates from 3.12 on): the eight sums a[j] + a[j + 8], added
    pairwise, then a[16] to a[20] one at a time, all added to 0.0, so that a
    sum of -0.0 reads 0.0."""
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10,
     a11, a12, a13, a14, a15, a16, a17, a18, a19, a20) = a
    return 0.0 + (((((a0 + a8) + (a1 + a9)) + ((a2 + a10) + (a3 + a11)))
                   + (((a4 + a12) + (a5 + a13)) + ((a6 + a14) + (a7 + a15))))
                  + a16 + a17 + a18 + a19 + a20)


def _gk21(f: Integrand, lo: Sequence[float],
          hi: Sequence[float]) -> tuple[list[float], list[float], list[float]]:
    """The G10/K21 rule on each interval [lo, hi], lo <= hi, row by row in
    floats, calling f once per row in order: the lists of their values,
    errors and resasc.

    G is summed over its ten nodes only, in the order `_row_sum` gives them:
    the products it drops, at the Kronrod-only nodes, are each an exact +-0
    when every node is finite, which moves no sum but the sign of a zero, and
    a non-finite node makes resasc NaN, and with it the error, either way.
    resabs sums the |K products|, each |f| w_K exactly, as w_K > 0.
    """
    values, errors, resascs = [], [], []
    for a, b in zip(lo, hi):
        centre, half = 0.5 * (a + b), 0.5 * (b - a)
        fx = f([centre + half * x for x in NODES])
        products = list(map(mul, fx, KRONROD_WEIGHTS))
        kronrod = _row_sum(products)
        g1, g3, g5, g7, g9, g11, g13, g15, g17, g19 = map(mul, fx[1::2], _GAUSS_WEIGHTS_10)
        gauss = 0.0 + ((((g1 + g9) + (g3 + g11)) + ((g5 + g13) + (g7 + g15))) + g17 + g19)
        resabs = _row_sum(map(abs, products)) * half
        mean = 0.5 * kronrod
        resasc = _row_sum([abs(y - mean) * w for y, w in zip(fx, KRONROD_WEIGHTS)]) * half
        err = abs((kronrod - gauss) * half)
        if resasc != 0.0 and err != 0.0:
            ratio = 200.0 * err / resasc
            err = resasc * min(ratio * math.sqrt(ratio), 1.0)  # a NaN first stays
        values.append(kronrod * half)
        errors.append(max(err, 50.0 * _EPS * resabs))  # resabs is NaN only where err is
        resascs.append(resasc)
    return values, errors, resascs


def _mesh(lo: float, hi: float, pole: complex) -> list[tuple[float, float]]:
    """The intervals an integral over [lo, hi] starts from, in slot order.

    Level by level, every interval longer than twice its distance to
    ``pole``, the integrand's nearest singularity, is halved: its left half
    stays in its slot and its right half is appended, as `_integrate`'s pass
    loop does, so each integral sums its intervals in the loop's own order.
    Twice the distance is where G10/K21 has converged: on such an interval a
    singularity on its line, beyond an end, lies on or outside the Bernstein
    ellipse of rho = 2 + sqrt 3, and rho^-32 = 5e-19 is below double precision
    (Trefethen, *SIAM Rev.* 50, 2008), so the pass loop stops halving there
    too.  A pole at infinity leaves the one interval.  A piece that needs
    more than MAX_SUBDIVISIONS intervals, as one with its singularity on it
    does, is refused before any rule runs.
    """
    span, level = [(lo, hi)], [0]
    while level:
        halved = []
        for j in level:
            a, b = span[j]
            if b - a > 2.0 * abs(pole - min(max(pole.real, a), b)):
                mid = 0.5 * (a + b)
                span[j] = (a, mid)
                span.append((mid, b))
                halved += [j, len(span) - 1]
        if len(span) > MAX_SUBDIVISIONS:  # nothing achieved: no rule has run
            raise QuadratureConvergenceError(f"[{lo!r}, {hi!r}] needs more than {MAX_SUBDIVISIONS} "
                                             "intervals before the quadrature rule runs", math.inf)
        level = halved
    return span


def _integrate(f: Integrand, a: float, b: float,
               pole: complex = math.inf) -> tuple[float, float]:
    """Int_a^b f: its value and error estimate.

    The integral keeps its intervals in plain lists, in slot order: a halving
    puts the left half in the halved slot and appends the right half.  It
    starts from its `_mesh` about ``pole``, f's nearest singularity; a pole at
    infinity, the default, leaves the one interval [a, b].  One `_gk21` call
    rules every starting interval, before the pass loop, which begins at the
    sums: each pass sums the values and errors left to right, and the
    integral is done when the error meets max(EPSABS, EPSREL |value|) or it
    holds MAX_SUBDIVISIONS intervals; else it halves its interval of largest
    error (the first of equal ones, a NaN one only if all are), and one
    `_gk21` call rules the two halves.  So an integral that the first call
    settles leaves after one pass of sums.  An integral of two or more
    intervals whose error sum is NaN is done at once, since no halving can
    clear it.  QUADPACK's (qag) early stops also end it: round-off (ier = 2),
    after 6 halvings that keep the value within 1e-5 relative and the error
    above 99 %, or 20 from the 11th interval on that raise the error,
    counting those where neither half's estimate is saturated at resasc; and
    an interval too narrow to halve (ier = 3).  `_within_budget` then refuses
    a NaN error estimate, an early stop and an integral that ended over
    budget.
    """
    span = _mesh(float(a), float(b), pole)
    lo, hi = zip(*span)
    res, err, _ = _gk21(f, lo, hi)  # each interval's rule value and error
    stalled = rising = 0  # QUADPACK's iroff1 and iroff2
    stop = None
    while True:
        value = error = 0.0
        for x, y in zip(res, err):  # left to right, unlike sum() from 3.12 on
            value += x
            error += y
        # a NaN interval is never halved while another is finite, and of all-NaN
        # intervals only the first is: past one interval a NaN sum stays NaN
        if error <= max(EPSABS, EPSREL * abs(value)) or math.isnan(error) and len(err) > 1:
            break
        if stalled >= 6 or rising >= 20:
            stop = "round-off error"
            break
        if len(err) >= MAX_SUBDIVISIONS:
            break
        worst = max(-1.0, *err)  # errors are >= 0, and a NaN never wins
        j = err.index(worst) if worst >= 0.0 else 0  # all NaN: the first
        a1, b2 = span[j]
        mid = 0.5 * (a1 + b2)
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPS) * (abs(mid) + 1000.0 * _TINY):
            stop = f"an interval too narrow to halve after {len(err)} intervals"
            break
        (r1, r2), (e1, e2), (c1, c2) = _gk21(f, (a1, mid), (mid, b2))
        both, errs = r1 + r2, e1 + e2
        if e1 != c1 and e2 != c2:
            stalled += abs(res[j] - both) <= 1e-5 * abs(both) and errs >= 0.99 * err[j]
            rising += len(err) >= 10 and errs > err[j]
        span[j], res[j], err[j] = (a1, mid), r1, e1
        span.append((mid, b2))
        res.append(r2)
        err.append(e2)
    _within_budget(value, error, stop, a, b)
    return value, error


def _within_budget(value: float, err: float, stop: str | None, a: float, b: float) -> None:
    """Refuse an integral whose error estimate is NaN, that stopped early, or whose
    estimate exceeds 100x its tolerance; `_integrate`, its one caller, checks its
    integral once it is done."""
    if math.isnan(err):
        raise QuadratureConvergenceError(
            f"a non-finite integrand or rule sum on [{a!r}, {b!r}] makes the quadrature "
            "error estimate nan",
            achieved=err,
        )
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


def _check_time(t: float) -> None:
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be finite and positive, got {t!r}")


# --- oracle entry points --------------------------------------------------------

# Each contour piece's singularity for `_mesh`, in the piece's own variable.
# The axis's is the pole u = 2 itself.  The tail's true nearest lies where u
# meets the pole u = -2, at v = ln 4 + i pi; at twice its distance a point
# took 1.6 to 1.9 rule calls, the pass loop halving what the mesh had left.
# Its imaginary part is therefore shortened, by measurement, to where every
# point takes one call and no seed of oracle_audit fails more often: the
# tail then starts from at most 10 intervals up to the largest float.
_POLES = {"axis": 2.0, "tail": complex(math.log(4.0), 1.1)}

# Each component's (F_j, E_j) for the powers j = 0, 1, 3 of the weights'
# coefficients: F_j = Re Int_0^3 u^j kernel(u) du below the pole, correctly
# rounded (see the module docstring), and E_j = ulp(F_j)/2, its rounding error.
_MOMENTS = {component: tuple((F, math.ulp(F) / 2.0) for F in moments) for component, moments in (
    ("x", (0.0048276977926819155, 0.018237813055620798, 0.24402479840803595)),
    ("z", (-0.002503146451716701, -0.022797266319526, -0.07988448090744876)))}


def _contour(T: float) -> tuple[float, float, str, float]:
    """(a, b, piece, sign) of the piece of one scaled oracle integral, z = 1, that
    is ruled per point.

    For T <= 2 the axis, u from 0 to T.  Beyond, the tail, in v = ln(u - 2)
    from 0 to ln(T - 2), which for T < 3 is -Int_{ln(T - 2)}^0, since `_gk21`
    needs lo <= hi; the path from 0 to 3 is `_MOMENTS`.
    """
    if T <= 2.0:
        return 0.0, T, "axis", 1.0
    end = math.log(T - 2.0)
    return (0.0, end, "tail", 1.0) if end >= 0.0 else (end, 0.0, "tail", -1.0)


# Each (kind, component)'s integrand rows (axis, tail): weight(u, t) kernel(u, 1.0)
# at each node u of the axis, and the same at u = 2 + du, times du = e^v, at each
# node v of the tail.  `weight_velocity` or `weight_position` and `correlators`'
# complex kernel are written out in their own operation order, where z = 1 makes
# 4 z^2 the exact 4.0, so each product is theirs bit for bit without their calls.
_ROWS = {
    ("velocity", "x"): (
        lambda t, x: [2.0 * (t - u) * (-(u * u + 4.0) / (PI_SQ * d * d * d))
                      for u in x for d in (u * u - 4.0,)],
        lambda t, x: [2.0 * (t - u) * (-(u * u + 4.0) / (PI_SQ * d * d * d)) * du
                      for du in map(math.exp, x) for u in (2.0 + du,) for d in (u * u - 4.0,)]),
    ("velocity", "z"): (
        lambda t, x: [2.0 * (t - u) * (1.0 / (PI_SQ * d * d))
                      for u in x for d in (u * u - 4.0,)],
        lambda t, x: [2.0 * (t - u) * (1.0 / (PI_SQ * d * d)) * du
                      for du in map(math.exp, x) for u in (2.0 + du,) for d in (u * u - 4.0,)]),
    ("position", "x"): (
        lambda t, x: [g * g * (2.0 * t + u) / 3.0 * (-(u * u + 4.0) / (PI_SQ * d * d * d))
                      for u in x for g in (t - u,) for d in (u * u - 4.0,)],
        lambda t, x: [g * g * (2.0 * t + u) / 3.0 * (-(u * u + 4.0) / (PI_SQ * d * d * d)) * du
                      for du in map(math.exp, x) for u in (2.0 + du,) for g in (t - u,)
                      for d in (u * u - 4.0,)]),
    ("position", "z"): (
        lambda t, x: [g * g * (2.0 * t + u) / 3.0 * (1.0 / (PI_SQ * d * d))
                      for u in x for g in (t - u,) for d in (u * u - 4.0,)],
        lambda t, x: [g * g * (2.0 * t + u) / 3.0 * (1.0 / (PI_SQ * d * d)) * du
                      for du in map(math.exp, x) for u in (2.0 + du,) for g in (t - u,)
                      for d in (u * u - 4.0,)]),
}


def _plan(kind: str, p: EvalPoint) -> tuple[float, float]:
    """A point's (t/z, prefactor e^2/m^2 (/z^2)); refuses the point on the lightcone
    or with its prefactor outside the float range, as the closed form does."""
    check_lightcone(p.t, p.z, _LIGHTCONE_REFUSAL)
    return p.t / p.z, _prefactor(kind, p, 1.0)


def _scaled(kind: str, component: str,
            Ts: tuple[float, ...]) -> tuple[tuple[float, float], ...]:
    """Each scaled integral's (value, error estimate) at z = 1, t/z = T, in the
    order of Ts: T's `_contour` piece, one `_integrate` call on its row of
    `_ROWS`, plus, past the lightcone, Sum_j c_j(T) F_j of the `_MOMENTS`, with
    Sum_j |c_j| E_j in the estimate.  The first refused T is raised before any
    later T runs."""
    axis, tail = _ROWS[kind, component]
    coefficients = _weight(kind)[1]
    scaled = []
    for T in Ts:
        a, b, piece, sign = _contour(T)
        row = axis if piece == "axis" else tail
        value, error = _integrate(lambda x: row(T, x), a, b, _POLES[piece])
        parts, errs = [sign * value], [error]
        if piece == "tail":
            for c, (moment, moment_error) in zip(coefficients(T), _MOMENTS[component]):
                parts.append(c * moment)
                errs.append(abs(c) * moment_error)
        # fsum rounds once, alike on every Python (sum() compensates from 3.12 on)
        error_estimate = (math.fsum(errs) + _EPS * math.fsum(map(abs, parts))
                          * max(1.0, T / abs(T - 2.0)))
        scaled.append((math.fsum(parts), error_estimate))
    return tuple(scaled)


# `verify_grid`'s `_scaled`; see the module docstring
_grid_scaled = functools.lru_cache(maxsize=256)(_scaled)


def _results(plans: Sequence[tuple[float, float]],
             scaled: Sequence[tuple[float, float]]) -> list[OracleResult]:
    """Each plan's result from its scaled (value, error estimate), in order,
    refusing a value without a significant digit or outside the float range,
    and an error estimate below the smallest normal float, which covers nothing
    once it has lost its digits or underflowed to zero."""
    results = []
    for (T, prefactor), (value, error_estimate) in zip(plans, scaled):
        if not error_estimate < abs(value):
            raise ExtrapolationError(
                f"error estimate {error_estimate:.3e} is not below the magnitude "
                f"{abs(value):.3e} of the value at t/z = {T!r}: no significant digit"
            )
        value *= prefactor
        error_estimate *= prefactor
        if not math.isfinite(value):
            raise ValueError(f"value at t/z = {T!r} leaves the float range")
        if error_estimate < _TINY:
            raise ValueError(f"error estimate {error_estimate!r} at t/z = {T!r} is below "
                             "the smallest normal float")
        results.append(OracleResult(value, error_estimate, rungs=((0.0, value),)))
    return results


def dispersion_oracle(kind: str, component: str, p: EvalPoint) -> OracleResult:
    """Quadrature value of a dispersion: kind 'velocity'|'position', component 'x'|'z'.

    Evaluates the reduced integral at eps = 0 on the contour of the module
    docstring, below the pole beyond the lightcone, and rescales by e^2/m^2
    (velocities carry an extra 1/z^2).
    """
    _weight(kind)  # refuses an unknown kind before any other check
    if (kind, component) not in _ROWS:
        raise ValueError("component must be 'x' or 'z'")
    T, prefactor = _plan(kind, p)
    return _results([(T, prefactor)], _scaled(kind, component, (T,)))[0]


# --- generic weighted integrals for audits ---------------------------------------

def reduced_time_integral(f: Callable[[float], float], t: float, kind: str) -> float:
    """Int_0^t weight(tau, t) f(tau) dtau for a caller-supplied even kernel f.

    ``f`` is called once per node with a float; t must be finite and > 0.
    The integral starts from the one interval [0, t]; each pass halves one
    interval and rules its two halves.
    ``reduced_time_integral(math.cos, 1.0, "velocity")``, settled by one rule
    call, takes 0.011 ms (minimum of 20 calls in process, best of five sets,
    median of five such runs, 2-CPU Xeon, Python 3.11).
    """
    weight = _weight(kind)[0]  # refuses an unknown kind
    _check_time(t)
    return _integrate(lambda x: [weight(u, t) * float(f(u)) for u in x], 0.0, t)[0]


def direct_time_integral(f: Callable[[float], float], t: float, kind: str) -> float:
    """The unreduced double integral over [0, t]^2 for an even kernel f.

    Velocity: Int Int f(t' - t'').  Position: Int Int (t-t')(t-t'') f(t'-t'').
    Used to audit the stationarity weights.  At each outer node t' = u two
    `_integrate` calls run the inner integral split at the diagonal, over
    [0, u] and then [u, t], so kernels with a |u| kink stay piecewise smooth;
    the two halves' sum is the outer integrand at u.  A refusal therefore
    names the first failing inner integral in node order, left half before
    right.
    """
    _weight(kind)  # the unreduced integral has no weight; this refuses an unknown kind
    _check_time(t)

    def inner(u: float) -> float:
        def integrand(x: list[float]) -> list[float]:
            values = [float(f(u - s)) for s in x]
            return values if kind == "velocity" else [(t - u) * (t - s) * v
                                                      for s, v in zip(x, values)]

        left = _integrate(integrand, 0.0, u)[0]
        return left + _integrate(integrand, u, t)[0]

    return _integrate(lambda x: [inner(u) for u in x], 0.0, t)[0]


# --- verification grid -------------------------------------------------------------

class VerifyRow(FrozenRecord):
    """One oracle-vs-closed-form comparison.

    Fields, in constructor order: quantity, t_over_z, closed, oracle,
    rel_err, eps_estimate, passed.
    """

    __slots__ = ("quantity", "t_over_z", "closed", "oracle", "rel_err", "eps_estimate", "passed")


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
    exists; then each quantity's rows take their scaled integrals, as one
    tuple, from the cache of the module docstring, or compute them, one
    `_integrate` call per row, in row order.
    The four quantities share one `EvalPoint` per ratio, so their closed
    forms share its `dispersion._shared_terms`.
    """
    if tolerance is not None and not 0.0 <= tolerance < math.inf:
        raise ValueError(f"need a finite tolerance >= 0, got {tolerance!r}")
    if grid not in GRIDS:
        raise ValueError("grid must be 'full', 'pre-lightcone', or 'post-lightcone'")
    if math.isfinite(z) and not z > 0.0:  # else each point's t = ratio z is refused first
        raise ValueError("z must be positive")
    if particle is None:
        particle = unit_preset()

    cases, batches, points = [], [], {}
    for quantity in QUANTITIES.values():
        plans = []
        for ratio in _GRID_RATIOS[grid]:
            if ratio not in points:  # built at its first row, so refusals keep their order
                points[ratio] = EvalPoint(t=ratio * z, z=z, particle=particle)
            point = points[ratio]
            closed = quantity.value(point)
            if closed == 0.0:
                raise ValueError("value leaves the float range")
            cases.append((quantity, ratio, closed))
            plans.append(_plan(quantity.kind, point))
        batches.append((quantity, plans))
    results = [result for quantity, plans in batches for result in _results(
        plans, _grid_scaled(quantity.kind, quantity.component, tuple(T for T, _ in plans)))]

    rows: list[VerifyRow] = []
    for (quantity, ratio, closed), result in zip(cases, results):
        tier = TOL_PRE_LIGHTCONE if ratio < 2.0 else TOL_POST_LIGHTCONE
        rel_err = abs(result.value - closed) / abs(closed)
        passed = rel_err <= (tier if tolerance is None else tolerance)
        rows.append(VerifyRow(quantity.id, ratio, closed, result.value, rel_err,
                              result.error_estimate, passed))
    return rows
