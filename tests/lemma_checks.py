"""Lemma checks that only the tests call: the integer-order
polylogarithms, the little Gollnitz dilogarithm identity, the Bernoulli
numbers and polynomials, the Zagier q-Pochhammer expansion residual against
its exact log-Pochhammer series, the Euler-Maclaurin residual of a sampled
Gaussian, the leading-order probes of the class products, the
term-by-term run of a Nahm-sum stream and the mpmath evaluation of the
Dedekind-eta expansion residual, the reference for the fixed-point one.

They use ``hooklab.asym``'s dilogarithm, constants, main terms and epsilon
range, ``hooklab.qseries``'s term streams and :func:`_apply`, and mpmath
(from the ``test`` extra) for erfc off the real line and the eta residual.
The class-product probes read k and lambda_P of RR1 and LG1 from
``asym._MAIN_TERMS``, so they check those constants against the directly
evaluated products.
"""

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from hooklab.asym import (
    _EPS_MAX,
    _EPS_MIN,
    _ETA_GUARD_DPS,
    _MAIN_TERMS,
    _SERIES_CAP,
    LOG_SILVER,
    PHI,
    SQRT2,
    ComplexParam,
    dilog,
)
from hooklab.classes import RESIDUE_CLASSES, ClassId
from hooklab.qseries import _STREAMS, _apply


def param_z(param: ComplexParam) -> complex:
    """The point z = epsilon (1 + i y) of a :class:`ComplexParam`."""
    return complex(param.epsilon, param.epsilon * param.y)


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

    For s = 2 ``hooklab.asym.dilog``; for s = 1 -Log(1 - w); for s <= 0 the
    closed rational form generated by Li_(s-1)(w) = w d/dw Li_s(w) from
    Li_0(w) = w/(1-w).
    """
    if not isinstance(s, int):
        raise TypeError("s must be an integer")
    if s > 2:
        raise ValueError("only s <= 2 is supported")
    if s == 2:
        return dilog(w)
    if abs(w) >= 1.0:
        raise ValueError(f"|w| = {abs(w)} is outside the open unit disk")
    if s == 1:
        return -cmath.log(1.0 - w)
    coeffs = _neg_polylog_numerator(-s)
    num = 0.0 + 0.0j
    for c in reversed(coeffs):
        num = num * w + c
    return num / (1.0 - w) ** (1 - s)


def _cexpm1(u: complex) -> complex:
    """exp(u) - 1 without cancellation for small complex |u|."""
    a, b = u.real, u.imag
    # e^(a+ib) - 1 = (expm1(a) cos b - 2 sin^2(b/2)) + i e^a sin b
    return complex(
        math.expm1(a) * math.cos(b) - 2.0 * math.sin(b / 2.0) ** 2,
        math.exp(a) * math.sin(b),
    )


def dilog_gollnitz_identity_check() -> float:
    """Residual of Li_2(sqrt(2)-1) - Li_2(1-sqrt(2)) = pi^2/8 - log^2(1+sqrt(2))/2."""
    w = SQRT2 - 1.0
    lhs = polylog(2, w) - polylog(2, -w)
    rhs = math.pi**2 / 8.0 - LOG_SILVER**2 / 2.0
    return abs(lhs - rhs)


_BERNOULLI_MAX = 20


@lru_cache(maxsize=None)
def _bernoulli_fraction(r: int) -> Fraction:
    # B_0 = 1; sum_{k<m} C(m+1,k) B_k = -C(m+1,m) B_m  (B_1 = -1/2 convention)
    if r == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(r):
        acc += math.comb(r + 1, k) * _bernoulli_fraction(k)
    return -acc / (r + 1)


def bernoulli_number(r: int) -> float:
    """Bernoulli number B_r (B_1 = -1/2), table-backed for r <= 20."""
    if not 0 <= r <= _BERNOULLI_MAX:
        raise ValueError(f"r must be in [0, {_BERNOULLI_MAX}]")
    return float(_bernoulli_fraction(r))


def bernoulli_polynomial(r: int, x) -> complex | float:
    """Bernoulli polynomial B_r(x) = sum C(r,k) B_k x^(r-k), r <= 20."""
    if not 0 <= r <= _BERNOULLI_MAX:
        raise ValueError(f"r must be in [0, {_BERNOULLI_MAX}]")
    acc = 0.0
    for k in range(r + 1):
        acc = acc + math.comb(r, k) * float(_bernoulli_fraction(k)) * x ** (r - k)
    return acc


def log_pochhammer_shifted_exact(w: complex, nu: complex, param: ComplexParam) -> complex:
    """Log((w e^(-nu z) q; q)_inf) by the exact double series.

    Log prod_{m>=1} (1 - a q^m) = -sum_{k>=1} a^k q^k / (k (1 - q^k)) with
    a = w e^(-nu z); requires |a q| < 1.
    """
    z = param_z(param)
    a = w * cmath.exp(-nu * z)
    if abs(a * cmath.exp(-z)) >= 1.0:
        raise ValueError("|w e^(-nu z) q| >= 1: series diverges")
    if a == 0:
        return 0.0 + 0.0j
    acc = 0.0 + 0.0j
    ak = 1.0 + 0.0j
    for k in range(1, _SERIES_CAP + 1):
        ak *= a
        denom = -_cexpm1(-k * z)  # 1 - q^k, cancellation-free
        term = ak * cmath.exp(-k * z) / (k * denom)
        acc -= term
        if abs(term) < 1e-18 * abs(acc) + 1e-300:
            break
    else:
        raise RuntimeError("log-Pochhammer series did not converge")
    return acc


def zagier_expansion_residual(w: complex, nu: complex, param: ComplexParam, R: int) -> complex:
    """Exact Log((w e^(-nu z) q; q)_inf) minus its truncated expansion

        -Li_2(w)/z - (nu + 1/2) Log(1-w) - nu^2 z w / (2(1-w)) + psi,
        psi = -sum_{r=2}^{R-1} (B_r(-nu) - [r=2] nu^2) Li_(2-r)(w) z^(r-1)/r!

    The residual shrinks like z^(R-1) as z -> 0.
    """
    if not 2 <= R <= 8:
        raise ValueError("R must be in [2, 8]")
    z = param_z(param)
    exact = log_pochhammer_shifted_exact(w, nu, param)
    if w == 0:
        return exact
    expansion = (
        -polylog(2, w) / z
        - (nu + 0.5) * cmath.log(1.0 - w)
        - nu * nu * z / 2.0 * w / (1.0 - w)
    )
    for r in range(2, R):
        coef = bernoulli_polynomial(r, -nu)
        if r == 2:
            coef -= nu * nu
        expansion -= coef * polylog(2 - r, w) * z ** (r - 1) / math.factorial(r)
    return exact - expansion


def _erfc(a: complex) -> complex | float:
    """erfc of a complex argument: mpmath off the real line, at binary64
    precision whatever mpmath's global precision, and math.erfc on it."""
    if a.imag != 0.0:
        with mp.workprec(53):
            return complex(mp.erfc(a))
    return math.erfc(a.real)


def _hermite(m: int, x) -> complex | float:
    # physicists' Hermite polynomial H_m
    h0, h1 = 1.0, 2.0 * x
    if m == 0:
        return h0
    for k in range(1, m):
        h0, h1 = h1, 2.0 * x * h1 - 2.0 * k * h0
    return h1


def euler_maclaurin_gaussian_check(a, step, R: int) -> float:
    """Euler-Maclaurin residual for f(x) = e^(-x^2) sampled at a + n step.

    |sum_{n>=0} f(a + n step)
      - [ (1/step) Int_a^inf f + f(a)/2
          - sum_{r=1}^R B_2r step^(2r-1) f^(2r-1)(a) / (2r)! ]|

    The bracket omits terms of order step^(2R); halving the step shrinks the
    residual accordingly.  Requires |arg(step)| < pi/4 so the Gaussian decays
    along the sampling ray (then the ray integral equals sqrt(pi)/2 erfc(a)).
    """
    if R < 1 or 2 * R > _BERNOULLI_MAX:
        raise ValueError(f"R must be in [1, {_BERNOULLI_MAX // 2}]")
    step_c = complex(step)
    if step_c.real <= 0 or abs(step_c.imag) >= step_c.real:
        raise ValueError("need |arg(step)| < pi/4 for convergence")
    total = 0.0 + 0.0j
    x = complex(a)
    for n in range(_SERIES_CAP):
        term = cmath.exp(-x * x)
        total += term
        if n > 2 and abs(term) < 1e-22 * abs(total) + 1e-300:
            break
        x += step_c
    else:
        raise RuntimeError("Gaussian sum did not converge")

    bracket = (math.sqrt(math.pi) / 2.0) * _erfc(complex(a)) / step_c
    bracket += cmath.exp(-complex(a) ** 2) / 2.0
    for r in range(1, R + 1):
        m = 2 * r - 1
        deriv = (-1) ** m * _hermite(m, complex(a)) * cmath.exp(-complex(a) ** 2)
        bracket -= bernoulli_number(2 * r) * step_c**m * deriv / math.factorial(2 * r)
    return abs(total - bracket)


def _product_main(class_id: ClassId, identity: str) -> tuple:
    """A class product's row of ``_PRODUCT_MAINS``, its amplitude and k
    read from ``hooklab.asym._MAIN_TERMS``."""
    k, lam, _ = _MAIN_TERMS[identity]
    return RESIDUE_CLASSES[class_id], math.log(lam), math.pi**2 / k


_PRODUCT_MAINS = {
    # (residues, modulus), log-amplitude, exponential rate coefficient c in e^(c/eps)
    "RR14": _product_main(ClassId.R2, "RR1"),
    "RR23": ((frozenset({2, 3}), 5), -0.5 * math.log(PHI) - 0.25 * math.log(5.0), math.pi**2 / 15.0),
    "LG": _product_main(ClassId.G2, "LG1"),
}


def product_asym_probe(which: str, epsilon: float) -> float:
    """Ratio of a restricted inverse Pochhammer product at q = e^(-eps) to
    its leading term.

    ``RR14``: 1/(q,q^4;q^5)_inf   vs (phi^(1/2)/5^(1/4)) e^(pi^2/(15 eps)),
    ``RR23``: 1/(q^2,q^3;q^5)_inf vs (phi^(-1/2) 5^(-1/4)) e^(pi^2/(15 eps)),
    ``LG``:   1/(q,q^5,q^6;q^8)_inf vs 2^(-1/4) e^(pi^2/(16 eps)).

    Factors with exponent*eps <= 50 enter the log-product; the omitted tail
    is below 1e-20.
    """
    if not _EPS_MIN <= epsilon <= _EPS_MAX:
        raise ValueError(f"epsilon must lie in [{_EPS_MIN}, {_EPS_MAX}]")
    try:
        (residues, modulus), log_amp, rate = _PRODUCT_MAINS[which]
    except KeyError:
        raise ValueError(f"unknown product {which!r}; expected one of {sorted(_PRODUCT_MAINS)}")
    log_direct = 0.0
    n_max = int(50.0 / epsilon)
    for n in range(1, n_max + 1):
        if n % modulus in residues:
            log_direct -= math.log(-math.expm1(-n * epsilon))
    log_main = log_amp + rate / epsilon
    return math.exp(log_direct - log_main)


def _nahm_terms(stream: str, order: int):
    """(n, term n) for n = 0, 1, ... over a stream of ``qseries._STREAMS``,
    up to its first zero term (the lowest exponent rises with n, and each
    later term is a multiple of it).  Each term is a fresh coefficient list
    of order + 1 entries, and the next is built before it is handed out, so
    the caller may mutate it.

    Every term is run at the full order: the plain sum of the terms, which
    ``qseries._nahm_sum`` never forms, is what its Horner evaluation and
    the gap-class bivariate tables are tested against."""
    first, step = _STREAMS[stream]
    term, n = _apply([1] + [0] * order, first), 0
    while any(term):
        after = _apply(term, step(n + 1))
        yield n, term
        term, n = after, n + 1


def mpmath_eta_asym_residual(param: ComplexParam) -> complex:
    """The mpmath evaluation of ``asym.eta_asym_residual``, kept as its
    reference: the same guards, precision plan, pentagonal sum and branch
    step, at mpmath's working precision of wp digits.  The fixed-point
    evaluation must return equal doubles."""
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
