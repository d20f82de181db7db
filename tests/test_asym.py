"""Floating-point asymptotics: polylogarithms, Bernoulli values, expansion
residuals, saddle functions and direct probes near q = 1."""

import cmath
import math
import sys

import mpmath as mp
import pytest

from hooklab.asym import (
    LOG_PHI,
    LOG_SILVER,
    PHI,
    AsymModel,
    ComplexParam,
    _main_term,
    cross_limit,
    dilog,
    eta_asym_residual,
    growth_model,
    saddle_functions,
    saddle_probe,
)
from lemma_checks import (
    bernoulli_number,
    bernoulli_polynomial,
    dilog_gollnitz_identity_check,
    euler_maclaurin_gaussian_check,
    log_pochhammer_shifted_exact,
    param_z,
    polylog,
    product_asym_probe,
    zagier_expansion_residual,
)

GOLDEN_INV = 1.0 / PHI


# --------------------------------------------------------------------------
# polylogarithms
# --------------------------------------------------------------------------


def test_polylog_trivial_values():
    assert polylog(2, 0) == 0
    assert abs(polylog(0, 0.5) - 1.0) < 1e-15  # w/(1-w)
    assert abs(polylog(1, 0.5) - math.log(2)) < 1e-15
    assert abs(polylog(-1, 0.5) - 2.0) < 1e-14  # w/(1-w)^2


@pytest.mark.parametrize("s", [2, 1, 0, -1, -2, -3, -5])
@pytest.mark.parametrize("w", [0.3, -0.55, GOLDEN_INV, 0.3 + 0.4j, -0.2 - 0.6j])
def test_polylog_against_mpmath(s, w):
    with mp.workdps(30):
        expected = complex(mp.polylog(s, mp.mpc(w)))
    got = polylog(s, w)
    assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))


def test_polylog_domain_errors():
    with pytest.raises(ValueError):
        polylog(2, 1.0)
    with pytest.raises(ValueError):
        polylog(2, -1.2)
    with pytest.raises(ValueError):
        polylog(3, 0.5)
    with pytest.raises(TypeError):
        polylog(1.5, 0.5)


def test_golden_dilog_identity():
    # pi^2/6 - Li_2(1/phi) == pi^2/15 + log^2(phi)
    lhs = math.pi**2 / 6 - polylog(2, GOLDEN_INV).real
    rhs = math.pi**2 / 15 + LOG_PHI**2
    assert abs(lhs - rhs) < 1e-12


def test_gollnitz_dilog_identity():
    assert dilog_gollnitz_identity_check() < 1e-12
    # Li_2(w) - Li_2(-w) keeps only odd powers: its even part vanishes
    g = lambda w: polylog(2, w) - polylog(2, -w)
    assert abs(g(0.3) + g(-0.3)) / 2 < 1e-14
    # the swapped-sign variant must not vanish
    w = math.sqrt(2) - 1
    swapped = abs(
        (polylog(2, w) + polylog(2, -w)) - (math.pi**2 / 8 - LOG_SILVER**2 / 2)
    )
    assert swapped > 0.1


# --------------------------------------------------------------------------
# Bernoulli polynomials
# --------------------------------------------------------------------------


def test_bernoulli_values():
    assert abs(bernoulli_polynomial(2, 0.0) - 1 / 6) < 1e-15
    assert abs(bernoulli_polynomial(1, 0.0) + 0.5) < 1e-15
    assert bernoulli_number(0) == 1.0
    assert abs(bernoulli_number(2) - 1 / 6) < 1e-16
    assert bernoulli_number(3) == 0.0
    assert abs(bernoulli_number(4) + 1 / 30) < 1e-16


def test_bernoulli_difference_equation():
    # B_r(x + 1) - B_r(x) == r x^(r-1)
    r, x = 3, 0.7
    diff = bernoulli_polynomial(r, x + 1) - bernoulli_polynomial(r, x)
    assert abs(diff - r * x ** (r - 1)) < 1e-12


def test_bernoulli_table_bound():
    with pytest.raises(ValueError):
        bernoulli_polynomial(21, 0.0)
    with pytest.raises(ValueError):
        bernoulli_number(-1)


# --------------------------------------------------------------------------
# expansion residuals
# --------------------------------------------------------------------------


def test_log_pochhammer_empty_product():
    assert log_pochhammer_shifted_exact(0, 1.0, ComplexParam(0.01)) == 0


def test_log_pochhammer_against_mpmath():
    param = ComplexParam(0.1, 0.2)
    w, nu = GOLDEN_INV, 0.3
    got = log_pochhammer_shifted_exact(w, nu, param)
    with mp.workdps(30):
        q = mp.exp(-mp.mpc(param_z(param)))
        a = mp.mpf(w) * mp.exp(-mp.mpf(nu) * mp.mpc(param_z(param)))
        expected = complex(mp.log(mp.qp(a * q, q)))
    assert abs(got - expected) < 1e-12 * max(1.0, abs(expected))


def test_log_pochhammer_leading_terms():
    # at nu = 0 the first two expansion terms dominate, error O(z)
    param = ComplexParam(0.01)
    value = log_pochhammer_shifted_exact(GOLDEN_INV, 0.0, param)
    lead = -polylog(2, GOLDEN_INV) / param_z(param) - 0.5 * cmath.log(1 - GOLDEN_INV)
    assert abs(value - lead) < 0.05


def test_log_pochhammer_conjugation_symmetry():
    v1 = log_pochhammer_shifted_exact(0.4 + 0.1j, 0.2 + 0.3j, ComplexParam(0.02, 0.7))
    v2 = log_pochhammer_shifted_exact(0.4 - 0.1j, 0.2 - 0.3j, ComplexParam(0.02, -0.7))
    assert abs(v1 - v2.conjugate()) < 1e-13 * max(1.0, abs(v1))


def test_log_pochhammer_divergence_guard():
    with pytest.raises(ValueError):
        log_pochhammer_shifted_exact(0.99, -800.0, ComplexParam(0.01))


def test_zagier_residual_scaling():
    # residual shrinks like z^(R-1): halving epsilon scales by ~2^(R-1) = 4
    r_big = abs(zagier_expansion_residual(GOLDEN_INV, 0.3, ComplexParam(0.02), 3))
    r_small = abs(zagier_expansion_residual(GOLDEN_INV, 0.3, ComplexParam(0.01), 3))
    assert 2.0 < r_big / r_small < 8.0


def test_zagier_residual_refinement():
    # adding expansion terms shrinks the residual
    r2 = abs(zagier_expansion_residual(GOLDEN_INV, 0.3, ComplexParam(0.01), 2))
    r4 = abs(zagier_expansion_residual(GOLDEN_INV, 0.3, ComplexParam(0.01), 4))
    assert r4 < r2


def test_zagier_residual_zero_weight():
    assert zagier_expansion_residual(0, 0.3, ComplexParam(0.01), 3) == 0
    with pytest.raises(ValueError):
        zagier_expansion_residual(GOLDEN_INV, 0.3, ComplexParam(0.01), 9)
    with pytest.raises(ValueError):
        zagier_expansion_residual(GOLDEN_INV, 0.3, ComplexParam(0.01), 1)


def test_eta_residual_probe_scales():
    # true residuals (~1e-343 and ~1e-858) round to exactly zero in binary64
    r_05 = abs(eta_asym_residual(ComplexParam(0.05)))
    r_02 = abs(eta_asym_residual(ComplexParam(0.02)))
    assert r_05 < 1e-8
    assert r_02 <= r_05


def test_eta_residual_representable_regime():
    # at eps = 1.5 the residual is ~ e^(-4 pi^2 / eps), inside double range
    got = abs(eta_asym_residual(ComplexParam(1.5)))
    predicted = math.exp(-4 * math.pi**2 / 1.5)
    assert abs(got - predicted) < 1e-2 * predicted


def test_eta_residual_conjugation_symmetry():
    # at eps(1 + y^2) large enough the residual is representable and nonzero
    r_pos = eta_asym_residual(ComplexParam(0.05, 2.0))
    r_neg = eta_asym_residual(ComplexParam(0.05, -2.0))
    assert r_pos != 0
    assert abs(r_pos - r_neg.conjugate()) <= 1e-13 * abs(r_pos)


def test_eta_residual_cone_guard():
    with pytest.raises(ValueError):
        eta_asym_residual(ComplexParam(0.05, 5.0))
    with pytest.raises(ValueError):
        ComplexParam(-0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_complex_param_rejects_non_finite_values(bad):
    # refused on construction: an infinite epsilon would give a nan
    # residual, and a NaN would fail only deep inside a series
    with pytest.raises(ValueError, match="epsilon must be finite"):
        ComplexParam(bad)
    with pytest.raises(ValueError, match="y must be finite"):
        ComplexParam(0.05, bad)
    # and on the paths that namedtuple builds without calling the class
    param = ComplexParam(0.05)
    for eps in (bad, 0.0, -1.0):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            param._replace(epsilon=eps)
        with pytest.raises(ValueError, match="epsilon must be finite"):
            ComplexParam._make([eps, 0.0])
    with pytest.raises(ValueError, match="y must be finite"):
        param._replace(y=bad)
    with pytest.raises(ValueError, match="y must be finite"):
        ComplexParam._make([0.05, bad])


def test_eta_residual_epsilon_floor(monkeypatch):
    from hooklab import asym

    assert eta_asym_residual(ComplexParam(asym._EPS_MIN)) == 0
    # rejected before any mpmath work: with the import blocked only the
    # guards can answer, and an input they pass needs mpmath
    monkeypatch.setitem(sys.modules, "mpmath", None)
    for eps in (1e-4, 0.0029):
        with pytest.raises(ValueError, match="epsilon"):
            eta_asym_residual(ComplexParam(eps))
    with pytest.raises(ValueError, match="cone"):
        eta_asym_residual(ComplexParam(0.05, 5.0))
    with pytest.raises(ModuleNotFoundError, match="mpmath"):
        eta_asym_residual(ComplexParam(0.05))


def _lambert_eta_residual(eps, y):
    # -Log((q;q)_inf) = sum_k q^k / (k (1 - q^k)), summed term by term at the
    # precision that resolves the residual down to the double underflow
    # threshold; this series is continuous from q = 0, so it needs no branch step
    need = 4.0 * math.pi**2 / (eps * (1.0 + y * y)) / math.log(10.0)
    dps = int(min(need, 370.0)) + 40
    with mp.workdps(dps):
        z = mp.mpc(eps, eps * y) if y else mp.mpf(eps)
        q = mp.exp(-z)
        acc, qk = z * 0, mp.mpf(1)
        for k in range(1, int((dps + 12) * math.log(10.0) / eps) + 11):
            qk *= q
            acc += qk / (k * (1 - qk))
        return complex(acc - (mp.pi**2 / (6 * z) + mp.log(z / (2 * mp.pi)) / 2 - z / 24))


@pytest.mark.parametrize(
    "eps,y",
    [(0.05, 0.0), (0.5, 0.0), (1.5, 0.0), (0.05, 2.0), (0.05, -2.0),
     (0.03, 2.4), (0.03, -2.4), (0.2, 1.4), (1.0, 0.5), (3.0, 0.5)],
)
def test_eta_residual_matches_the_lambert_series(eps, y):
    # equal doubles; off the real axis the principal Log of the pentagonal
    # sum is 2 pi i (0.2, 1.4), 4 pi i (0.05, +-2) or 6 pi i (0.03, +-2.4)
    # away, so those points need the branch step
    assert eta_asym_residual(ComplexParam(eps, y)) == _lambert_eta_residual(eps, y)


def test_euler_maclaurin_at_origin():
    # all odd derivatives of the Gaussian vanish at 0: residual is tiny
    assert euler_maclaurin_gaussian_check(0.0, 0.1, 1) < 1e-6


def test_euler_maclaurin_halving_scaling():
    r_big = euler_maclaurin_gaussian_check(1.2, 0.4, 1)
    r_half = euler_maclaurin_gaussian_check(1.2, 0.2, 1)
    assert 2.0 < r_big / r_half < 8.0  # within a factor 2 of 2^(2R) = 4
    assert r_big > 1e-9  # well above the noise floor


def test_euler_maclaurin_guards():
    with pytest.raises(ValueError):
        euler_maclaurin_gaussian_check(0.0, 0.1, 0)
    with pytest.raises(ValueError):
        euler_maclaurin_gaussian_check(0.0, -0.1, 1)
    with pytest.raises(ValueError):
        euler_maclaurin_gaussian_check(0.0, 0.1 + 0.2j, 1)


def test_euler_maclaurin_complex_step():
    # inside the pi/4 cone complex steps are fine
    res = euler_maclaurin_gaussian_check(0.5, 0.2 + 0.05j, 2)
    assert res < 1e-6


@pytest.mark.parametrize("a", [0.3 + 0.2j, -0.4 + 0.3j])
def test_euler_maclaurin_complex_start(a):
    # a complex start takes erfc off the real line, on both sides of Re a = 0;
    # a wrong erfc leaves an O(1/step) error that grows as the step halves
    r_big = euler_maclaurin_gaussian_check(a, 0.4, 1)
    r_half = euler_maclaurin_gaussian_check(a, 0.2, 1)
    assert r_big / r_half > 6.0
    with mp.workdps(5):  # mpmath's global precision must not leak in
        assert euler_maclaurin_gaussian_check(a, 0.2, 1) == r_half


# --------------------------------------------------------------------------
# saddle functions and growth models
# --------------------------------------------------------------------------

# quadratic Taylor coefficients of the deficit at y = 0, verified against
# high-precision evaluation and the cosine-series form of the deficit
RR_QUAD_COEF = -math.pi**2 / 15 + (1 + PHI / 2) * LOG_PHI**2
LG_QUAD_COEF = -math.pi**2 / 16 + 0.5 * LOG_SILVER**2


@pytest.mark.parametrize("variant", ["RR", "LG"])
def test_saddle_deficit_vanishes_only_at_zero(variant):
    _, s0 = saddle_functions(0.0, variant)
    assert abs(s0) < 1e-13
    for k in range(1, 301):
        _, s_pos = saddle_functions(k / 100, variant)
        _, s_neg = saddle_functions(-k / 100, variant)
        assert s_pos < 0
        assert abs(s_pos - s_neg) < 1e-14  # even function


def test_saddle_exponent_at_zero():
    lam_rr, _ = saddle_functions(0.0, "RR")
    assert abs(lam_rr - math.pi**2 / 15) < 1e-14
    lam_lg, _ = saddle_functions(0.0, "LG")
    assert abs(lam_lg - math.pi**2 / 8) < 1e-14


def test_saddle_quadratic_coefficients():
    y = 1e-3
    _, s_rr = saddle_functions(y, "RR")
    assert abs(s_rr / y**2 - RR_QUAD_COEF) < 1e-4
    _, s_lg = saddle_functions(y, "LG")
    assert abs(s_lg / y**2 - LG_QUAD_COEF) < 1e-4
    with pytest.raises(ValueError):
        saddle_functions(0.1, "XX")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dilog_and_saddle_functions_reject_non_finite_values(bad):
    # refused before any sum: a NaN fails every comparison, so a guard that
    # asks only for the bad case lets it run the series to its cap
    for w in (bad, complex(bad, 0.0), complex(0.0, bad)):
        with pytest.raises(ValueError, match="outside the open unit disk"):
            dilog(w)
    for variant in ("RR", "LG"):
        with pytest.raises(ValueError, match="y must be finite"):
            saddle_functions(bad, variant)


# the growth models' closed forms, A n^(-1/4) e^(B sqrt(n)) as (A, B)
_MODEL_CLOSED_FORMS = {
    "r11": (3**0.25 * PHI**0.5 * LOG_PHI / (2.0 * math.pi), 2.0 * math.pi / math.sqrt(15.0)),
    "r12": (3**0.25 * PHI**0.5 * LOG_PHI / (2.0 * math.pi), 2.0 * math.pi / math.sqrt(15.0)),
    "r21": (3**0.25 * PHI**0.5 / (5.0 * math.pi), 2.0 * math.pi / math.sqrt(15.0)),
    "r22": (3**1.25 * PHI**0.5 / (10.0 * math.pi), 2.0 * math.pi / math.sqrt(15.0)),
    "g11": (LOG_SILVER / (2**1.25 * math.pi), math.pi / 2.0),
    "g12": (LOG_SILVER / (2**1.25 * math.pi), math.pi / 2.0),
    "g21": (3.0 / (2**3.25 * math.pi), math.pi / 2.0),
    "g22": (1.0 / (2**1.25 * math.pi), math.pi / 2.0),
}


def test_growth_model_constants():
    r21 = growth_model("r21")
    assert abs(r21.amplitude - 3**0.25 * PHI**0.5 / (5 * math.pi)) < 1e-16
    assert abs(r21.growth - 2 * math.pi / math.sqrt(15)) < 1e-16
    g22 = growth_model("g22")
    assert abs(g22.amplitude - 1 / (2**1.25 * math.pi)) < 1e-16
    assert abs(g22.growth - math.pi / 2) < 1e-16
    assert growth_model("r11").amplitude == growth_model("r12").amplitude
    assert growth_model("g11").amplitude == growth_model("g12").amplitude
    with pytest.raises(ValueError):
        growth_model("r13")
    # every model, derived from its series' weight and its identity's main
    # term, against its closed form
    for key, (amplitude, growth) in _MODEL_CLOSED_FORMS.items():
        model = growth_model(key)
        assert abs(model.amplitude - amplitude) <= 1e-15 * amplitude, key
        assert abs(model.growth - growth) <= 1e-15 * growth, key


def test_congruence_weights():
    # the sum of N(1)/d over each product side's rational factors, exact
    assert {name: _main_term(name)[3] for name in ("S21", "S22", "H21", "H22")} == {
        "S21": (2, 5), "S22": (3, 5), "H21": (3, 8), "H22": (1, 2),
    }


def test_cross_limit_refuses_pairs_without_a_limit():
    # RR1's series grow like e^(2 pi sqrt(n/15)), LG1's like e^(2 pi sqrt(n/16)),
    # so a ratio across the identities diverges and has no limit to report
    for num, den in (("S11", "H11"), ("S21", "H22"), ("H12", "S12")):
        with pytest.raises(ValueError, match="different identities"):
            cross_limit(num, den)
    for num, den in (("S13", "S21"), ("S21", "r21"), ("", "H11")):
        with pytest.raises(ValueError, match="unknown hook series"):
            cross_limit(num, den)
    assert cross_limit("S22", "S21") == 1.5 and cross_limit("H21", "H22") == 0.75


def test_growth_model_cross_ratios():
    assert abs(growth_model("r22").amplitude / growth_model("r21").amplitude - 1.5) < 1e-14
    assert abs(growth_model("g21").amplitude / growth_model("g22").amplitude - 0.75) < 1e-14
    assert abs(growth_model("r11").amplitude / growth_model("r21").amplitude - 2.5 * LOG_PHI) < 1e-14
    assert (
        abs(growth_model("g11").amplitude / growth_model("g21").amplitude - 4 / 3 * LOG_SILVER)
        < 1e-14
    )


def test_growth_model_value():
    model = AsymModel(2.0, 1.0, "demo")
    assert abs(model.value(16.0) - 2.0 * 16**-0.25 * math.exp(4.0)) < 1e-12


# --------------------------------------------------------------------------
# direct probes near q = 1
# --------------------------------------------------------------------------


def test_saddle_probe_guards():
    with pytest.raises(ValueError):
        saddle_probe("S11", 0.002)
    with pytest.raises(ValueError):
        saddle_probe("S11", 0.25)
    with pytest.raises(ValueError):
        saddle_probe("X11", 0.05)


@pytest.mark.parametrize("target", ["S11", "H11"])
def test_saddle_probe_sane(target):
    probe = saddle_probe(target, 0.05)
    assert probe.direct_value > 0 and probe.main_term > 0
    assert 0.9 < probe.ratio < 1.1


@pytest.mark.parametrize("which", ["RR14", "RR23", "LG"])
def test_product_probe_monotone(which):
    ratios = [product_asym_probe(which, eps) for eps in (0.05, 0.02, 0.01, 0.005)]
    deviations = [abs(r - 1) for r in ratios]
    assert all(a > b for a, b in zip(deviations, deviations[1:]))
    assert abs(product_asym_probe(which, 0.01) - 1) < 0.1
    with pytest.raises(ValueError):
        product_asym_probe(which, 0.5)


def test_polylog_derivative_matches_closed_form():
    # d/dw Li_2(w) == -log(1-w)/w, probed by a central difference
    w, h = 0.4, 1e-6
    fd = (polylog(2, w + h) - polylog(2, w - h)) / (2 * h)
    assert abs(fd - (-math.log(1 - w) / w)) < 1e-8


def _nahm_sum_mp(target, eps):
    # S11 and H11 from their closed forms at 40 digits, term by term, summed
    # past the peak index (< 1/eps for both) until a term falls below 1e-45
    with mp.workdps(40):
        q = mp.exp(-mp.mpf(eps))
        total, poch, num, n = mp.mpf(0), mp.mpf(1), mp.mpf(1), 0
        while True:
            n += 1
            if target == "S11":  # n q^(n^2)/(q;q)_n
                poch *= 1 - q**n
                term = n * q ** (n * n) / poch
            else:  # n q^(n^2+n) (-1/q;q^2)_n/(q^2;q^2)_n
                poch *= 1 - q ** (2 * n)
                num *= 1 + q ** (2 * n - 3)
                term = n * q ** (n * n + n) * num / poch
            total += term
            if n > 1 / eps and term < total * mp.mpf(10) ** -45:
                return total


@pytest.mark.parametrize("target", ["S11", "H11"])
@pytest.mark.parametrize("eps", [0.05, 0.01, 0.003])
def test_saddle_probe_matches_closed_form_sum(target, eps):
    # the probe runs the stream table of qseries in binary64; this sums the
    # closed forms in mpmath, independently of that table
    direct = saddle_probe(target, eps).direct_value
    exact = _nahm_sum_mp(target, eps)
    assert abs(direct - exact) < 1e-11 * exact


def test_saddle_probe_matches_exact_coefficients():
    # the same analytic object evaluated in two ways, both from the stream
    # table of qseries and differing only in arithmetic: the termwise Nahm
    # sum at q = e^(-eps) in binary64 vs sum(coefficient * e^(-eps n)) over
    # the exact integer series; eps = 0.2 keeps the n <= ceil(30/eps)
    # truncation tail below the 1e-6 relative tolerance
    from hooklab.qseries import series_S

    eps = 0.2
    order = math.ceil(30 / eps)
    series = series_S(1, 1, order)
    coeff_sum = sum(c * math.exp(-eps * n) for n, c in enumerate(series.coeffs))
    direct = saddle_probe("S11", eps).direct_value
    assert abs(coeff_sum - direct) < 1e-6 * direct


def test_product_probe_amplitude_product():
    # the two mod-5 product amplitudes multiply to 1/sqrt(5)
    eps = 0.05
    scale = math.exp(math.pi**2 / (15 * eps))
    d14 = product_asym_probe("RR14", eps) * (PHI**0.5 / 5**0.25) * scale
    d23 = product_asym_probe("RR23", eps) * (1 / (PHI**0.5 * 5**0.25)) * scale
    combined = d14 * d23 / ((1 / math.sqrt(5)) * scale**2)
    assert abs(combined - 1) < 0.05
    with pytest.raises(ValueError):
        product_asym_probe("RR55", 0.05)
