"""Floating-point probes of the saddle-point asymptotics.

Everything runs in binary64, with one exception: :func:`eta_asym_residual`
measures a quantity far below double resolution and evaluates its two sides
in scratch arbitrary precision (returning the correctly rounded double).  It
is the module's one use of mpmath, which comes with the ``test`` extra, not
with the package: the function imports it on its first call, so importing
this module (and the ``hooklab`` command) needs the standard library alone.
The probes evaluate the Nahm sums (term by term, each rational factor
(numerator, periods) of a ``qseries._STREAMS`` stream taken by
:func:`_factor_at`) directly at q = e^(-z), z = eps(1 + iy), and compare
against their leading-order models; the Dedekind-eta log expansion residual
is measured against Euler's pentagonal series.

Growth models: each hook-count sequence grows like A n^(-1/4) e^(B sqrt(n))
with B = 2 pi / sqrt(15) for the Rogers-Ramanujan pair and B = pi / 2 for
the little Gollnitz pair; amplitudes A are pinned in :func:`growth_model`.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache

from .qseries import _STREAMS

PHI = (1.0 + math.sqrt(5.0)) / 2.0
LOG_PHI = math.log(PHI)
SQRT2 = math.sqrt(2.0)
LOG_SILVER = math.log(SQRT2 + 1.0)  # log(1 + sqrt(2))

_SERIES_CAP = 10**6
_ETA_GUARD_DPS = 20  # digits beyond the cancellation in eta_asym_residual's sum


class ComplexParam(namedtuple("ComplexParam", "epsilon y")):
    """Point q = e^(-z) near 1, parameterized by z = epsilon (1 + i y)."""

    __slots__ = ()

    def __new__(cls, epsilon: float, y: float = 0.0):
        # NaN fails every comparison, so each test is written to pass only
        # for a finite value
        if not 0 < epsilon < math.inf:
            raise ValueError("epsilon must be finite and > 0")
        if not math.isfinite(y):
            raise ValueError("y must be finite")
        return super().__new__(cls, epsilon, y)

    @classmethod
    def _make(cls, iterable) -> ComplexParam:
        # namedtuple's own _make, which _replace calls, builds the tuple
        # directly and would skip the checks in __new__
        return cls(*iterable)

    @property
    def z(self) -> complex:
        return complex(self.epsilon, self.epsilon * self.y)

    @property
    def q(self) -> complex:
        return cmath.exp(-self.z)


class AsymModel(namedtuple("AsymModel", "amplitude growth label")):
    """Growth model A n^(-1/4) e^(B sqrt(n)) for a coefficient sequence."""

    __slots__ = ()

    def value(self, n: float) -> float:
        return self.amplitude * n ** -0.25 * math.exp(self.growth * math.sqrt(n))


class SaddleProbe(namedtuple("SaddleProbe", "target epsilon direct_value main_term")):
    """Direct Nahm-sum value at q = e^(-eps) against its main term."""

    __slots__ = ()

    @property
    def ratio(self) -> float:
        return self.direct_value / self.main_term


# --------------------------------------------------------------------------
# polylogarithms
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _neg_polylog_numerator(k: int) -> tuple:
    """Integer coefficients of P_k with Li_(-k)(w) = P_k(w)/(1-w)^(k+1),
    from P_0 = w and P_(k+1) = w [(1-w) P_k' + (k+1) P_k]."""
    if k == 0:
        return (0, 1)
    prev = _neg_polylog_numerator(k - 1)
    deriv = [i * c for i, c in enumerate(prev)][1:] or [0]
    # (1-w) * deriv
    a = deriv + [0]
    for i in range(len(deriv)):
        a[i + 1] -= deriv[i]
    # + k * prev
    for i, c in enumerate(prev):
        a[i] += k * c
    # * w
    return tuple([0] + a)


def polylog(s: int, w: complex) -> complex:
    """Li_s(w) for integer s <= 2 and |w| < 1.

    For s >= 1 the defining series sum(w^n / n^s); for s <= 0 the closed
    rational form generated by Li_(s-1)(w) = w d/dw Li_s(w) from
    Li_0(w) = w/(1-w).
    """
    if not isinstance(s, int):
        raise TypeError("s must be an integer")
    if s > 2:
        raise ValueError("only s <= 2 is supported")
    if abs(w) >= 1.0:
        raise ValueError(f"|w| = {abs(w)} is outside the open unit disk")
    if s <= 0:
        coeffs = _neg_polylog_numerator(-s)
        num = 0.0 + 0.0j
        for c in reversed(coeffs):
            num = num * w + c
        return num / (1.0 - w) ** (1 - s)
    acc = 0.0 + 0.0j
    term_w = 1.0 + 0.0j
    for n in range(1, _SERIES_CAP + 1):
        term_w *= w
        term = term_w / n**s
        acc += term
        if abs(term) < 1e-17 * abs(acc) + 1e-300:
            break
    else:
        raise RuntimeError("polylog series did not converge")
    return acc


# --------------------------------------------------------------------------
# the Dedekind-eta expansion residual
# --------------------------------------------------------------------------


def eta_asym_residual(param: ComplexParam) -> complex:
    """-Log((q;q)_inf) computed exactly minus pi^2/(6z) + Log(z/2pi)/2 - z/24.

    The residual decays faster than every power of epsilon inside the cone
    (instantiated as |y| <= epsilon^(-1/4)); near the probe scales it sits
    hundreds of orders below binary64 resolution, where a double-precision
    difference of the two sides would only measure its own rounding noise
    (~1e-14, growing as epsilon shrinks).  Both sides are therefore evaluated
    in scratch arbitrary precision, deep enough that the returned complex is
    the correctly rounded double of the true residual; magnitudes below the
    subnormal range come back as an exact 0.

    (q;q)_inf is summed by Euler's pentagonal series
    sum_k (-1)^k q^(k(3k-1)/2), whose terms fall like e^(-3 eps k^2/2): a few
    hundred terms at eps = 0.01, where the Lambert series
    sum_k q^k/(k(1-q^k)) of -Log((q;q)_inf) needs ~10^5.  The sum has size
    about e^(-pi^2/(6 eps (1+y^2))) while its terms are of size 1, so the
    working precision is raised by the pi^2/(6 eps (1+y^2) ln 10) digits that
    cancel, plus a guard.  The principal Log of the sum can differ from
    -Log((q;q)_inf), the branch continuous from q = 0, by a multiple of
    2 pi i; the residual is far smaller than pi, so its imaginary part is
    reduced to the nearest multiple of 2 pi.

    Requires epsilon >= ``_EPS_MIN``: the cancelled digits grow like 1/eps.
    The arbitrary precision is mpmath's, from the ``test`` extra; it is
    imported here, once both guards have passed, so a rejected input never
    needs it and a missing mpmath raises ``ModuleNotFoundError``.
    """
    eps, y = param.epsilon, param.y
    if eps < _EPS_MIN:
        raise ValueError(f"epsilon must be >= {_EPS_MIN}")
    if abs(y) > eps**-0.25:
        raise ValueError("y outside the cone |y| <= epsilon^(-1/4)")
    # resolve down to the double underflow threshold (|res| ~ e^(-4pi^2/(eps(1+y^2))))
    need = 4.0 * math.pi**2 / (eps * (1.0 + y * y)) / math.log(10.0)
    dps = int(min(need, 370.0)) + 40
    cancel = math.pi**2 / (6.0 * eps * (1.0 + y * y)) / math.log(10.0)
    wp = dps + int(cancel) + _ETA_GUARD_DPS
    # |q^(k(3k-1)/2)| < 10^(-wp) once 3 eps k^2 / 2 > wp ln 10
    k_max = math.isqrt(int(2.0 * wp * math.log(10.0) / (3.0 * eps))) + 2
    import mpmath as mp

    with mp.workdps(wp):
        z = mp.mpc(eps, eps * y) if y else mp.mpf(eps)
        q = mp.exp(-z)
        q3 = q**3
        # terms k and -k: q^(k(3k-1)/2) and q^(k(3k+1)/2) = q^(k(3k-1)/2) q^k
        total = qk = a = mp.mpf(1)
        step = q  # q^(3k-2) = q^(k(3k-1)/2) / q^((k-1)(3k-4)/2)
        for k in range(1, k_max + 1):
            qk *= q
            a *= step
            step *= q3
            term = a * (1 + qk)
            total = total - term if k % 2 else total + term
        res = -mp.log(total) - (mp.pi**2 / (6 * z) + mp.log(z / (2 * mp.pi)) / 2 - z / 24)
        turns = mp.nint(mp.im(res) / (2 * mp.pi))
        if turns:
            res -= 2j * mp.pi * turns
        return complex(res)


# --------------------------------------------------------------------------
# saddle geometry along the arc z = eps (1 + iy)
# --------------------------------------------------------------------------


def saddle_functions(y: float, variant: str) -> tuple:
    """Saddle exponent and its normalized real-part deficit along the arc.

    For the Rogers-Ramanujan sum (``variant="RR"``, w = phi^(-(1+iy))):

        exponent(y) = pi^2/6 - log^2(phi) (1+iy)^2 - Li_2(w),
        deficit(y)  = Re(exponent(y)/(1+iy) - pi^2/15);

    for the little Gollnitz sum (``variant="LG"``, w = (sqrt(2)-1)^(1+iy)):

        exponent(y) = pi^2/4 - Li_2(w) + Li_2(-w) - (1+iy)^2 log^2(1+sqrt(2))/2,
        deficit(y)  = Re(exponent(y)/(2(1+iy)) - pi^2/16).

    The deficit is <= 0 everywhere, vanishing only at y = 0: off-axis arcs
    are exponentially suppressed against the y = 0 main term.

    Quadratic Taylor coefficients at y = 0.  Write u = 1 + iy and
    f(u) = exponent/u (RR) or exponent/(2u) (LG).  f is real on the real
    axis, so deficit(y) = -f''(1) y^2/2 + O(y^4).  For RR, with
    L = log(phi) and g(u) = Li_2(e^(-uL)),

        g'(1)  = L log(1 - 1/phi) = -2 L^2        (since 1 - 1/phi = phi^(-2)),
        g''(1) = L^2 (1/phi)/(1 - 1/phi) = phi L^2,

    so exponent'(1) = -2 L^2 - g'(1) = 0, exponent''(1) = -(2 + phi) L^2 and

        deficit(y) ~ (-pi^2/15 + (1 + phi/2) log^2(phi)) y^2   (~ -0.23907 y^2).

    For LG the same steps give exponent'(1) = 0 and
    exponent''(1) = -2 log^2(1+sqrt(2)), so

        deficit(y) ~ (-pi^2/16 + log^2(1+sqrt(2))/2) y^2   (~ -0.22844 y^2).
    """
    u = 1.0 + 1j * y
    if variant == "RR":
        w = cmath.exp(-u * LOG_PHI)
        lam = math.pi**2 / 6.0 - LOG_PHI**2 * u * u - polylog(2, w)
        s = (lam / u - math.pi**2 / 15.0).real
        return lam, s
    if variant == "LG":
        w = cmath.exp(-u * LOG_SILVER)
        lam = math.pi**2 / 4.0 - polylog(2, w) + polylog(2, -w) - 0.5 * u * u * LOG_SILVER**2
        s = (lam / (2.0 * u) - math.pi**2 / 16.0).real
        return lam, s
    raise ValueError(f"unknown variant {variant!r} (expected 'RR' or 'LG')")


_MODEL_GROWTH_RR = 2.0 * math.pi / math.sqrt(15.0)
_MODEL_GROWTH_LG = math.pi / 2.0

_MODELS = {
    "r11": (3**0.25 * PHI**0.5 * LOG_PHI / (2.0 * math.pi), _MODEL_GROWTH_RR),
    "r12": (3**0.25 * PHI**0.5 * LOG_PHI / (2.0 * math.pi), _MODEL_GROWTH_RR),
    "r21": (3**0.25 * PHI**0.5 / (5.0 * math.pi), _MODEL_GROWTH_RR),
    "r22": (3**1.25 * PHI**0.5 / (10.0 * math.pi), _MODEL_GROWTH_RR),
    "g11": (LOG_SILVER / (2**1.25 * math.pi), _MODEL_GROWTH_LG),
    "g12": (LOG_SILVER / (2**1.25 * math.pi), _MODEL_GROWTH_LG),
    "g21": (3.0 / (2**3.25 * math.pi), _MODEL_GROWTH_LG),
    "g22": (1.0 / (2**1.25 * math.pi), _MODEL_GROWTH_LG),
}


def growth_model(which: str) -> AsymModel:
    """The A n^(-1/4) e^(B sqrt(n)) model of one hook-count sequence;
    keys r11, r12, r21, r22, g11, g12, g21, g22 (r11/r12 share a model,
    as do g11/g12)."""
    try:
        amp, growth = _MODELS[which]
    except KeyError:
        raise ValueError(f"unknown model {which!r}; expected one of {sorted(_MODELS)}")
    return AsymModel(amp, growth, which)


# --------------------------------------------------------------------------
# direct evaluation near q = 1
# --------------------------------------------------------------------------

_EPS_MIN, _EPS_MAX = 0.003, 0.2  # keeps e^(pi^2/(15 eps)) inside binary64


_SADDLE_TARGETS = {
    # target -> (stream of qseries._STREAMS, peak index * eps,
    #            amplitude * eps, k in the exponential e^(pi^2/(k eps)))
    "S11": ("rr", LOG_PHI, (math.sqrt(PHI) / 5**0.25) * LOG_PHI, 15.0),
    "H11": ("lg", LOG_SILVER / 2.0, LOG_SILVER / 2**1.25, 16.0),
}


def _factor_at(factor, epsilon: float) -> float:
    """A rational factor (numerator, periods) of ``qseries._STREAMS`` at
    q = e^(-eps): e^(-low eps) sum c e^((low - e) eps) over the monomials
    (e, c), low the lowest e, divided by each 1 - q^d = -expm1(-d eps).
    With q^low factored out, q^s (1 + q^p) rounds as it is written; the
    plain sum of c e^(-e eps) moves the H11 probe by 1-2 ulps."""
    numerator, periods = factor
    low = min(e for e, _ in numerator)
    value = math.exp(-low * epsilon) * sum(c * math.exp((low - e) * epsilon) for e, c in numerator)
    for d in periods:
        value /= -math.expm1(-d * epsilon)
    return value


def saddle_probe(target: str, epsilon: float) -> SaddleProbe:
    """Termwise Nahm-sum value at q = e^(-eps) against the main term.

    ``S11``: sum n q^(n^2)/(q;q)_n  vs  (sqrt(phi)/5^(1/4)) log(phi) e^(pi^2/(15 eps))/eps;
    ``H11``: sum n q^(n^2+n)(-1/q;q^2)_n/(q^2;q^2)_n
             vs  (log(1+sqrt(2))/2^(5/4)) e^(pi^2/(16 eps))/eps.

    The terms are those of the sum's stream in ``qseries._STREAMS``, run in
    binary64: term n = term (n-1) F_n, each rational factor F_n taken at
    q = e^(-eps) by :func:`_factor_at`.  Terms are added
    until the next falls below 1e-18 of the running sum (only checked beyond
    the peak index, where terms decay), with a hard cap of 10x the peak index.
    """
    if not _EPS_MIN <= epsilon <= _EPS_MAX:
        raise ValueError(f"epsilon must lie in [{_EPS_MIN}, {_EPS_MAX}]")
    try:
        stream, peak_eps, amplitude, k = _SADDLE_TARGETS[target]
    except KeyError:
        raise ValueError(f"unknown target {target!r} (expected 'S11' or 'H11')")

    first, step = _STREAMS[stream]
    peak = peak_eps / epsilon
    cap = math.ceil(10 * peak)
    term, total, n = _factor_at(first, epsilon), 0.0, 0
    while True:
        n += 1
        if n > cap:
            raise RuntimeError("saddle sum did not converge within the term cap")
        term *= _factor_at(step(n), epsilon)
        total += n * term
        if n > peak and n * term < 1e-18 * total:
            break
    main = amplitude / epsilon * math.exp(math.pi**2 / (k * epsilon))
    return SaddleProbe(target, epsilon, total, main)
