"""Exact series engine: arithmetic, products, the eight hook generating
functions against brute-force censuses, bivariate refinements, identities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hooklab.classes import ClassId, iter_class
from hooklab.hooks import census, t_hook_count
from hooklab.qseries import (
    BivariateSeries,
    NegativeExponentError,
    OrderMismatchError,
    TruncatedSeries,
    XDegreeOverflowError,
    bivariate_G,
    bivariate_R,
    counting_series,
    identity_check_sum_product,
    inv_pochhammer_product,
    rational_factor,
    series_H,
    series_S,
    series_add,
    series_mul,
    series_scale,
)

coeff_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=12)


# --------------------------------------------------------------------------
# arithmetic core
# --------------------------------------------------------------------------


def test_mul_basic():
    a = TruncatedSeries(2, [1, 1, 0])       # 1 + q
    b = TruncatedSeries(2, [1, -1, 0])      # 1 - q
    assert series_mul(a, b).coeffs == [1, 0, -1]
    one = TruncatedSeries.one(2)
    assert series_mul(a, one) == a
    # (1 - q) * sum q^n == 1 at any order
    for order in (0, 3, 17):
        geo = TruncatedSeries(order, [1] * (order + 1))
        omq = TruncatedSeries.from_terms(order, {0: 1, 1: -1} if order else {0: 1})
        assert series_mul(omq, geo) == TruncatedSeries.one(order)


def test_strict_order_policy():
    a = TruncatedSeries.one(4)
    b = TruncatedSeries.one(5)
    with pytest.raises(OrderMismatchError):
        series_add(a, b)
    with pytest.raises(OrderMismatchError):
        series_mul(a, b)
    assert series_add(a, b, allow_truncation=True).order == 4
    assert series_mul(a, b, allow_truncation=True) == TruncatedSeries.one(4)


def test_series_constructors():
    with pytest.raises(ValueError):
        TruncatedSeries(3, [1, 2])
    with pytest.raises(ValueError):
        TruncatedSeries.from_terms(3, {5: 1})
    assert TruncatedSeries.from_terms(3, {5: 1}, clip=True).is_zero()
    with pytest.raises(NegativeExponentError):
        TruncatedSeries.from_terms(3, {-1: 1})
    s = TruncatedSeries.from_terms(4, {1: 3, 2: -1})
    assert s[1] == 3 and s[2] == -1
    with pytest.raises(IndexError):
        s[5]


@given(coeff_lists, coeff_lists)
@settings(max_examples=150, deadline=None)
def test_mul_commutes_random(xs, ys):
    order = max(len(xs), len(ys)) - 1
    a = TruncatedSeries(order, (xs + [0] * order)[: order + 1])
    b = TruncatedSeries(order, (ys + [0] * order)[: order + 1])
    assert series_mul(a, b) == series_mul(b, a)
    # distributivity over addition
    c = series_add(a, b)
    lhs = series_mul(c, a)
    rhs = series_add(series_mul(a, a), series_mul(b, a))
    assert lhs == rhs


def test_scale_and_shift():
    s = TruncatedSeries(3, [1, 2, 0, 4])
    assert series_scale(s, -2).coeffs == [-2, -4, 0, -8]
    assert s.shifted(2).coeffs == [0, 0, 1, 2]
    assert s.shifted(0) == s


# --------------------------------------------------------------------------
# products and rational factors
# --------------------------------------------------------------------------


def _restricted_partition_counts(values, order):
    # independent coin-change DP oracle
    c = [0] * (order + 1)
    c[0] = 1
    for v in values:
        for k in range(v, order + 1):
            c[k] += c[k - v]
    return c


@pytest.mark.parametrize(
    "residues,modulus",
    [({1, 4}, 5), ({2, 3}, 5), ({1, 5, 6}, 8), ({1}, 1), ({1, 2}, 4)],
)
def test_inv_pochhammer_vs_dp(residues, modulus):
    order = 80
    series = inv_pochhammer_product(residues, modulus, order)
    keys = {r % modulus for r in residues}
    values = [v for v in range(1, order + 1) if v % modulus in keys]
    assert series.coeffs == _restricted_partition_counts(values, order)


def test_inv_pochhammer_examples():
    assert inv_pochhammer_product({1, 4}, 5, 5).coeffs == [1, 1, 1, 1, 2, 2]
    assert inv_pochhammer_product({1, 5, 6}, 8, 4).coeffs == [1, 1, 1, 1, 1]
    assert inv_pochhammer_product({2, 3}, 5, 0).coeffs == [1]
    with pytest.raises(ValueError):
        inv_pochhammer_product(set(), 5, 10)
    with pytest.raises(ValueError):
        inv_pochhammer_product({0, 6}, 5, 10)


def test_rational_factor():
    rf = rational_factor([(1, 1), (4, 1)], 5, 9)
    assert [n for n, c in enumerate(rf.coeffs) if c] == [1, 4, 6, 9]
    assert all(c in (0, 1) for c in rf.coeffs)
    rf2 = rational_factor([(2, 1), (10, 1), (11, -1), (12, 1)], 16, 12)
    assert rf2.coeffs[2] == rf2.coeffs[10] == rf2.coeffs[12] == 1
    assert rf2.coeffs[11] == -1
    assert rational_factor([], 7, 6).is_zero()


# --------------------------------------------------------------------------
# the eight series vs the hook censuses (oracle equivalence)
# --------------------------------------------------------------------------

SMALL_SERIES = {
    # frozen from the brute-force hook census
    ("S", 1, 1): [0, 1, 1, 1, 3, 3, 5],
    ("S", 2, 1): [0, 1, 1, 1, 2, 3],
    ("S", 1, 2): [0, 0, 1, 1, 2],
    ("S", 2, 2): [0, 0, 1, 1, 2, 2],
    ("H", 1, 1): [0, 1, 1, 1, 1, 3],
    ("H", 1, 2): [0, 0, 1, 1, 1, 2, 4],
    ("H", 2, 1): [0, 1, 1, 1, 1, 2, 4],
    ("H", 2, 2): [0, 0, 1, 1, 1, 2, 3],
}


@pytest.mark.parametrize("family,j,t", sorted(SMALL_SERIES))
def test_series_small_values(family, j, t):
    build = series_S if family == "S" else series_H
    frozen = SMALL_SERIES[(family, j, t)]
    assert build(j, t, len(frozen) - 1).coeffs == frozen
    # regenerate the oracle: total t-hooks over the class members of each size
    cid = {("S", 1): ClassId.R1, ("S", 2): ClassId.R2,
           ("H", 1): ClassId.G1, ("H", 2): ClassId.G2}[(family, j)]
    oracle = [
        sum(t_hook_count(p, t) for p in iter_class(cid, n)) for n in range(len(frozen))
    ]
    assert oracle == frozen


@pytest.mark.parametrize(
    "family,j,t,class_id",
    [
        ("S", 1, 1, ClassId.R1), ("S", 1, 2, ClassId.R1),
        ("S", 2, 1, ClassId.R2), ("S", 2, 2, ClassId.R2),
        ("H", 1, 1, ClassId.G1), ("H", 1, 2, ClassId.G1),
        ("H", 2, 1, ClassId.G2), ("H", 2, 2, ClassId.G2),
    ],
)
def test_series_match_census_to_40(family, j, t, class_id):
    build = series_S if family == "S" else series_H
    series = build(j, t, 40)
    table = census(class_id, 40, 2, workers=1)
    assert series.coeffs == table.series(t)


def test_series_rejects_unknown_indices():
    with pytest.raises(ValueError):
        series_S(3, 1, 10)
    with pytest.raises(ValueError):
        series_H(1, 3, 10)


def test_s12_cross_form():
    # S(1,2) == S(1,1) - 1/(q,q^4;q^5)_inf + 1/(q^2,q^3;q^5)_inf
    order = 500
    lhs = series_S(1, 2, order)
    rhs = series_add(
        series_add(series_S(1, 1, order), series_scale(inv_pochhammer_product({1, 4}, 5, order), -1)),
        inv_pochhammer_product({2, 3}, 5, order),
    )
    assert lhs == rhs


@pytest.mark.parametrize(
    "family,j,t",
    [("S", 1, 1), ("S", 1, 2), ("S", 2, 1), ("S", 2, 2),
     ("H", 1, 1), ("H", 1, 2), ("H", 2, 1), ("H", 2, 2)],
)
def test_coefficients_weakly_increasing_to_500(family, j, t):
    # (1 - q) times each series has non-negative coefficients
    build = series_S if family == "S" else series_H
    s = build(j, t, 500)
    assert all(s[n] >= s[n - 1] for n in range(1, 501))
    assert all(c >= 0 for c in s.coeffs)


@pytest.mark.parametrize("family,j,t", sorted(SMALL_SERIES))
def test_truncation_stability(family, j, t):
    build = series_S if family == "S" else series_H
    low, high = build(j, t, 30), build(j, t, 75)
    assert low.coeffs == high.coeffs[:31]


def test_identity_checks():
    for which in ("RR1", "LG1"):
        chk = identity_check_sum_product(which, 200)
        assert chk.ok and chk.first_mismatch is None
        assert "agree" in str(chk)
    assert identity_check_sum_product("RR1", 0).ok
    assert identity_check_sum_product("LG1", 0).ok
    with pytest.raises(ValueError):
        identity_check_sum_product("RR2", 10)


def test_identity_report_on_mismatch():
    chk = identity_check_sum_product("RR1", 40)
    bad = type(chk)(chk.which, chk.order, False, 7, 5, 6)
    msg = str(bad)
    assert "q^7" in msg and "5" in msg and "6" in msg


# --------------------------------------------------------------------------
# bivariate refinements
# --------------------------------------------------------------------------

BIVARIATE_BUILDERS = [
    (bivariate_R, 1, 1, ClassId.R1), (bivariate_R, 1, 2, ClassId.R1),
    (bivariate_R, 2, 1, ClassId.R2), (bivariate_R, 2, 2, ClassId.R2),
    (bivariate_G, 1, 1, ClassId.G1), (bivariate_G, 1, 2, ClassId.G1),
    (bivariate_G, 2, 1, ClassId.G2), (bivariate_G, 2, 2, ClassId.G2),
]


@pytest.mark.parametrize("build,j,t,class_id", BIVARIATE_BUILDERS)
def test_bivariate_table_vs_enumeration(build, j, t, class_id):
    # full (n, k) table == distribution of the t-hook statistic over members
    bound = 16
    table = build(j, t, bound)
    for n in range(bound + 1):
        dist = {}
        for p in iter_class(class_id, n):
            k = t_hook_count(p, t)
            dist[k] = dist.get(k, 0) + 1
        for k in range(table.order_x + 1):
            assert table.coefficient(n, k) == dist.get(k, 0), (n, k)


@pytest.mark.parametrize("build,j,t,class_id", BIVARIATE_BUILDERS)
def test_bivariate_marginal_and_derivative(build, j, t, class_id):
    order = 40
    table = build(j, t, order)
    assert table.at_x_one() == counting_series(class_id, order)
    expected = (series_S if build is bivariate_R else series_H)(j, t, order)
    assert table.x_derivative_at_one() == expected
    assert all(c >= 0 for col in table.cols for c in col.coeffs)


def test_bivariate_examples():
    table = bivariate_R(1, 1, 10)
    assert table.coefficient(4, 1) == 1   # (4)
    assert table.coefficient(4, 2) == 1   # (3, 1)
    assert table.coefficient(4, 0) == 0
    gtable = bivariate_G(1, 1, 10)
    assert gtable.coefficient(4, 1) == 1  # only (4)
    assert sum(gtable.coefficient(4, k) for k in range(gtable.order_x + 1)) == 1


def test_bivariate_x_overflow():
    with pytest.raises(XDegreeOverflowError):
        bivariate_R(1, 1, 25, x_order=2)  # members with 3+ parts exist by n=9
    b = BivariateSeries.one(6, 1)
    piece = TruncatedSeries.from_terms(6, {1: 1})
    b.imul_factor([(0, TruncatedSeries.one(6)), (1, piece)])
    with pytest.raises(XDegreeOverflowError):
        b.imul_factor([(0, TruncatedSeries.one(6)), (1, piece)])


def test_bivariate_rejects_unknown_indices():
    with pytest.raises(ValueError):
        bivariate_R(0, 1, 5)
    with pytest.raises(ValueError):
        bivariate_G(2, 3, 5)
