"""Exact series engine: list kernels, products, the eight hook
generating functions against brute-force censuses, bivariate refinements,
identities."""

import hashlib
import inspect
import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hooklab import classes, qseries
from hooklab.classes import ClassId, iter_class
from hooklab.hooks import census, t_hook_count
from hooklab.qseries import (
    BivariateSeries,
    TruncatedSeries,
    _add,
    _apply,
    _running_sums,
    _part_factor,
    bivariate_G,
    bivariate_R,
    counting_series,
    identity_check_sum_product,
    inv_pochhammer_product,
    series_H,
    series_S,
)
from lemma_checks import _nahm_terms


# --------------------------------------------------------------------------
# list kernels
# --------------------------------------------------------------------------


def test_series_constructors():
    with pytest.raises(ValueError):
        TruncatedSeries(3, [1, 2])
    s = TruncatedSeries(4, [0, 3, -1, 0, 0])
    assert s[1] == 3 and s[2] == -1
    with pytest.raises(IndexError):
        s[5]


def test_scale_and_shift():
    s = [1, 2, 0, 4]
    assert _apply(s, ([(0, -2)], [])) == [-2, -4, 0, -8]
    # a shift is one monomial over no periods; past the order it leaves
    # nothing, and never lengthens the list
    assert _apply(s, ([(2, 1)], [])) == [0, 0, 1, 2]
    assert _apply(s, ([(0, 1)], [])) == s
    assert _apply(s, ([(4, 1)], [])) == _apply(s, ([(6, 1)], [])) == [0] * 4


# The slice kernels against the per-coefficient loops they replaced.


def _coeffs(seed: int, size: int) -> list:
    """Coefficients mixing small values with ones beyond 64 bits of either
    sign; drawn from a seeded generator, since hypothesis draws hundreds of
    list elements slowly."""
    rng = random.Random(seed)
    return [
        rng.choice((rng.randint(-3, 3), rng.randint(2**64, 2**70), -rng.randint(2**64, 2**70)))
        for _ in range(size)
    ]


@st.composite
def _series_and_exponent(draw):
    """The coefficient list of a series of order 0..300 and an exponent in
    1..order+2, drawn from either side of sqrt(order + 1), where
    _running_sums changes method."""
    order = draw(st.integers(0, 300))
    root = isqrt(order + 1)
    exp = draw(st.one_of(st.integers(1, root), st.integers(root + 1, order + 2)))
    return _coeffs(draw(st.integers(0, 2**32)), order + 1), exp


@given(_series_and_exponent(), st.integers(0, 302))
@settings(max_examples=200, deadline=None)
def test_running_sums_matches_the_loop(case, start):
    # from the first stride, and from a later start, which may lie past the end
    s, period = case
    for begin in (0, start):
        got, c = list(s), list(s)
        for k in range(begin + period, len(s)):
            c[k] += c[k - period]
        _running_sums(got, period, begin)
        assert got == c, begin


@given(
    _series_and_exponent(),
    st.lists(st.tuples(st.integers(0, 302), st.sampled_from([1, -1, -2])), max_size=5),
    st.lists(st.integers(1, 302), max_size=3),
    st.integers(0, 302),
)
@settings(max_examples=200, deadline=None)
def test_apply_matches_the_loop(case, numerator, periods, grow):
    # exponents reach past the order, the first monomial's included, and the
    # window grows by at most the numerator's lowest exponent
    src, _ = case
    before = list(src)
    numerator = [(min(e, len(src) + 1), c) for e, c in numerator]
    periods = [min(d, len(src) + 1) for d in periods]
    size = len(src) + min([grow, *(e for e, _ in numerator)])
    c = [0] * size
    for exp, sign in numerator:
        for k in range(exp, size):
            c[k] += sign * src[k - exp]
    for d in periods:
        for k in range(d, size):
            c[k] += c[k - d]
    assert _apply(src, (numerator, periods), size) == c
    assert _apply(src, (numerator, periods)) == c[: len(src)]
    assert src == before


@given(_series_and_exponent(), st.integers(0, 2**32), st.sampled_from([0, 1, -1, 7]))
@settings(max_examples=200, deadline=None)
def test_add_matches_the_loop(case, seed, k):
    s, _ = case
    other = _coeffs(seed, len(s))
    expected = [a + k * b for a, b in zip(s, other)]
    assert _add(s, [k * b for b in other]) == expected
    assert _add(s, s, other) == [2 * a + b for a, b in zip(s, other)]
    assert _add(s) == s and _add(s) is not s
    # a list one entry longer or shorter is refused, not cut to the shorter
    for wrong in (other + [1], other[:-1]):
        with pytest.raises(ValueError):
            _add(s, wrong)


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
    # every order to 40 puts each part value on both sides of the order/2
    # band of single parts, at odd and even orders; 81, 120, 121 and 300
    # run both branches of _running_sums, slice sums and block walk, over
    # several strides past each period's skipped first one
    keys = {r % modulus for r in residues}
    for order in (*range(41), 80, 81, 120, 121, 300):
        series = inv_pochhammer_product(residues, modulus, order)
        values = [v for v in range(1, order + 1) if v % modulus in keys]
        assert series.coeffs == _restricted_partition_counts(values, order), order


def test_inv_pochhammer_examples():
    assert inv_pochhammer_product({1, 4}, 5, 5).coeffs == [1, 1, 1, 1, 2, 2]
    assert inv_pochhammer_product({1, 5, 6}, 8, 4).coeffs == [1, 1, 1, 1, 1]
    assert inv_pochhammer_product({2, 3}, 5, 0).coeffs == [1]
    with pytest.raises(ValueError):
        inv_pochhammer_product(set(), 5, 10)
    with pytest.raises(ValueError):
        inv_pochhammer_product({0, 6}, 5, 10)


def test_rational_factor():
    # _apply to 1 expands (sum c q^exp) / prod (1 - q^d)
    rf = _apply([1] + [0] * 9, ([(1, 1), (4, 1)], [5]))
    assert [n for n, c in enumerate(rf) if c] == [1, 4, 6, 9]
    assert all(c in (0, 1) for c in rf)
    rf2 = _apply([1] + [0] * 12, ([(2, 1), (10, 1), (11, -1), (12, 1)], [16]))
    assert rf2[2] == rf2[10] == rf2[12] == 1
    assert rf2[11] == -1
    assert _apply([1] + [0] * 6, ([], [7])) == [0] * 7
    # on a general series: (1 + q)(q + q^4)/(1 - q^5) to q^9
    s = [1, 1] + [0] * 8
    assert _apply(s, ([(1, 1), (4, 1)], [5])) == [0, 1, 1, 0, 1, 1, 1, 1, 0, 1]
    # a negative exponent is rejected in any position, and so is a period
    # below 1, before anything is built
    for numerator in ([(-1, 1)], [(1, 1), (-1, 1)], [(-1, 1), (1, 1)]):
        with pytest.raises(ValueError):
            _apply(s, (numerator, [5]))
    for periods in ([0], [5, -1]):
        with pytest.raises(ValueError, match="periods must be >= 1"):
            _apply(s, ([(1, 1)], periods))
    assert s == [1, 1] + [0] * 8


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


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty series memo for the test, the process's own restored after."""
    monkeypatch.setattr(qseries, "_MEMO", {})


@pytest.mark.parametrize(
    "family,j,t,class_id",
    [
        ("S", 1, 1, ClassId.R1), ("S", 1, 2, ClassId.R1),
        ("S", 2, 1, ClassId.R2), ("S", 2, 2, ClassId.R2),
        ("H", 1, 1, ClassId.G1), ("H", 1, 2, ClassId.G1),
        ("H", 2, 1, ClassId.G2), ("H", 2, 2, ClassId.G2),
    ],
)
def test_series_match_census_to_40(family, j, t, class_id, empty_memo):
    # each order of 0..12 is above the last, so each is a fresh build: every
    # sum side's stream must end at the right term even at the tiniest orders
    build = series_S if family == "S" else series_H
    table = census(class_id, 40, 2)
    for order in range(13):
        assert build(j, t, order).coeffs == table.series(t)[: order + 1], order
    assert build(j, t, 40).coeffs == table.series(t)


def test_series_rejects_unknown_indices():
    with pytest.raises(ValueError):
        series_S(3, 1, 10)
    with pytest.raises(ValueError):
        series_H(1, 3, 10)


def test_s12_cross_form():
    # S(1,2) == S(1,1) - 1/(q,q^4;q^5)_inf + 1/(q^2,q^3;q^5)_inf
    order = 500
    lhs = series_S(1, 2, order)
    rhs = [s - a + b for s, a, b in zip(series_S(1, 1, order).coeffs,
                                        inv_pochhammer_product({1, 4}, 5, order).coeffs,
                                        inv_pochhammer_product({2, 3}, 5, order).coeffs)]
    assert lhs.coeffs == rhs


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
def test_truncation_stability(family, j, t, empty_memo):
    # with an empty memo both orders are built, not served from one build
    build = series_S if family == "S" else series_H
    low, high = build(j, t, 30), build(j, t, 75)
    assert low.coeffs == high.coeffs[:31]


# --------------------------------------------------------------------------
# the per-process memo
# --------------------------------------------------------------------------

# the two identities, each holding the (count, t = 1, t = 2) fields of its
# pass, and the four congruence-class series
MEMO_KEYS = {"RR1", "LG1", "S21", "S22", "H21", "H22"}

MEMOIZED = [
    *((f"S{j}{t}", lambda n, j=j, t=t: series_S(j, t, n)) for j in (1, 2) for t in (1, 2)),
    *((f"H{j}{t}", lambda n, j=j, t=t: series_H(j, t, n)) for j in (1, 2) for t in (1, 2)),
    ("count-r", lambda n: counting_series(ClassId.R1, n)),
    ("count-g", lambda n: counting_series(ClassId.G2, n)),
]


def _unmemoized(build, order):
    # a build into a memo of its own, so nothing is served from an earlier one
    saved = qseries._MEMO
    qseries._MEMO = {}
    try:
        return build(order)
    finally:
        qseries._MEMO = saved


def _held_lengths() -> list:
    """The length of every coefficient list the memo holds."""
    return [len(coeffs) for held in qseries._MEMO.values() for coeffs in held]


def test_memo_serves_lower_orders_by_truncation(empty_memo):
    for _, build in MEMOIZED:
        build(2000)
    assert set(qseries._MEMO) == MEMO_KEYS
    assert _held_lengths() == [2001] * 10
    for name, build in MEMOIZED:
        for order in (0, 1, 57, 400):
            assert build(order) == _unmemoized(build, order), (name, order)
    assert _held_lengths() == [2001] * 10


def test_memo_rebuilds_at_a_higher_order(empty_memo):
    for name, build in MEMOIZED:
        assert build(40).order == 40
        assert build(300) == _unmemoized(build, 300), name
        assert build(120) == _unmemoized(build, 120), name
    assert counting_series(ClassId.G1, 300) == inv_pochhammer_product({1, 5, 6}, 8, 300)
    assert _held_lengths() == [301] * 10


def test_memo_returns_copies(empty_memo):
    from hooklab.cli import verify_report

    for name, build in MEMOIZED:
        first = build(60)
        first.coeffs[7] += 1
        first.coeffs.append(0)
        assert build(60) == _unmemoized(build, 60), name
        assert build(60) is not build(60)
    # verify's planted fault mutates the series it was handed, not the memo
    assert not all(r.ok for r in verify_report(16, _corrupt=("S21", 5, 1)))
    assert all(r.ok for r in verify_report(16))


def test_memo_key_bound(empty_memo):
    for order in (0, 3, 80, 10, 150):
        for _, build in MEMOIZED:
            build(order)
        for cid in ClassId:
            counting_series(cid, order)
        identity_check_sum_product("RR1", order)
        identity_check_sum_product("LG1", order)
        for build, j, t, _ in BIVARIATE_BUILDERS:
            build(j, t, order)
        with pytest.raises(ValueError):
            series_S(3, 1, order)
        assert set(qseries._MEMO) <= MEMO_KEYS
    assert set(qseries._MEMO) == MEMO_KEYS


@pytest.mark.parametrize(
    "build",
    [pytest.param(build, id=name) for name, build in MEMOIZED]
    + [
        pytest.param(lambda n: inv_pochhammer_product({1, 4}, 5, n), id="inv_pochhammer_product"),
        pytest.param(lambda n: bivariate_R(1, 1, n), id="bivariate_R-gap"),
        pytest.param(lambda n: bivariate_G(2, 2, n), id="bivariate_G-congruence"),
        pytest.param(lambda n: identity_check_sum_product("RR1", n), id="identity-RR1"),
        pytest.param(lambda n: identity_check_sum_product("LG1", n), id="identity-LG1"),
    ],
)
def test_builders_refuse_orders_above_the_ceiling(empty_memo, build):
    # refused before anything is allocated: the memo gains no key, not even
    # the counting series that sizes a bivariate table's digits
    with pytest.raises(ValueError, match=f"order must be <= {qseries.SERIES_CEILING}"):
        build(qseries.SERIES_CEILING + 1)
    assert not qseries._MEMO


def test_each_identity_pairs_a_gap_class_with_a_congruence_class():
    # the one statement of the class pairs: every class is counted by the
    # identity of its row, and each row pairs one class of each kind
    assert {which: pair for which, (_, *pair) in qseries._IDENTITIES.items()} == {
        "RR1": [ClassId.R1, ClassId.R2], "LG1": [ClassId.G1, ClassId.G2]}
    for _, gap, cong in qseries._IDENTITIES.values():
        assert gap in classes.GAP_RULES and cong in classes.RESIDUE_CLASSES
    assert qseries._COUNTED_BY == {
        ClassId.R1: "RR1", ClassId.R2: "RR1", ClassId.G1: "LG1", ClassId.G2: "LG1"}


def test_counting_series_looks_up_each_class(empty_memo):
    # a ClassId's value string is not a class, and neither is None
    for bad in ("r1", None):
        with pytest.raises(ValueError):
            counting_series(bad, 10)
    assert qseries._MEMO == {}
    rr1, lg1 = [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6], [1, 1, 1, 1, 1, 2, 3, 3, 3, 4, 5]
    for cid, coeffs in ((ClassId.R1, rr1), (ClassId.R2, rr1), (ClassId.G1, lg1), (ClassId.G2, lg1)):
        assert counting_series(cid, 10).coeffs == coeffs, cid
        assert coeffs == [len(list(iter_class(cid, n))) for n in range(11)], cid


def test_only_the_identity_check_builds_the_class_product(monkeypatch, empty_memo):
    # a table's digits are sized by its pair's counting series, so no table
    # builds the class product; the identity check builds both of its sides
    # afresh every time, even with both counting series held in the memo
    built, summed = [], []
    real_product, real_sum = qseries.inv_pochhammer_product, qseries._nahm_sum

    def counted_product(residues, modulus, order):
        built.append((tuple(sorted(residues)), modulus, order))
        return real_product(residues, modulus, order)

    def counted_sum(streams, order, x=1):
        summed.append((tuple(streams), order, x))
        return real_sum(streams, order, x)

    monkeypatch.setattr(qseries, "inv_pochhammer_product", counted_product)
    for build, j, t, _ in BIVARIATE_BUILDERS:
        for order in (150, 40, 0):
            build(j, t, order)
    assert built == []
    assert set(qseries._MEMO) == {"RR1", "LG1"}
    monkeypatch.setattr(qseries, "_nahm_sum", counted_sum)
    for _ in range(2):
        for which, product in (("RR1", ((1, 4), 5)), ("LG1", ((1, 5, 6), 8))):
            identity_check_sum_product(which, 100)
            assert built[-1] == (*product, 100)
            rows, order, x = summed[-1]
            assert ({row[0] for row in rows}, order, x) == ({qseries._IDENTITIES[which][0]}, 100, 1)
    assert len(built) == len(summed) == 4


# the streams the eight series and the two counting series read: the stream
# of each identity, whose one pass makes its gap class's series too
UNIVARIATE_STREAMS = sorted(stream for stream, _, _ in qseries._IDENTITIES.values())


def _counted_passes(monkeypatch) -> list:
    """Wrap ``qseries._nahm_sum`` to record (the sorted streams its rows
    read, order) of each call, one Horner pass per stream."""
    passes = []
    real_sum = qseries._nahm_sum

    def counted_sum(rows, order, x=1):
        passes.append((sorted({row[0] for row in rows}), order))
        return real_sum(rows, order, x)

    monkeypatch.setattr(qseries, "_nahm_sum", counted_sum)
    return passes


def test_one_pass_per_stream_per_order(monkeypatch, empty_memo):
    # the eight series and both counting series at one order run one packed
    # pass per identity, over its stream alone; a repeat or a lower order
    # runs none, a higher order one per identity again, and an identity
    # check one of its own
    assert UNIVARIATE_STREAMS == ["lg", "rr"]
    passes = _counted_passes(monkeypatch)

    def build_all(order):
        for _, build in MEMOIZED:
            build(order)
        for cid in ClassId:
            counting_series(cid, order)

    for order, fresh in ((300, True), (300, False), (120, False), (0, False), (301, True)):
        build_all(order)
        expected = [([stream], order) for stream in UNIVARIATE_STREAMS] if fresh else []
        assert sorted(passes) == expected, order
        passes.clear()
    for which in ("RR1", "LG1", "RR1"):
        identity_check_sum_product(which, 200)
        assert passes == [([qseries._IDENTITIES[which][0]], 200)], which
        passes.clear()


class _Unwalkable(dict):
    """A stream table that fails the test when any stream is looked up."""

    def __getitem__(self, stream):
        raise AssertionError(f"stream {stream!r} walked")


@pytest.mark.parametrize("memo", ["empty", "held"])
def test_negative_order_rejected_before_any_work(monkeypatch, empty_memo, memo):
    if memo == "held":
        for _, build in MEMOIZED:
            build(10)
    monkeypatch.setattr(qseries, "_STREAMS", _Unwalkable(qseries._STREAMS))
    calls = [
        lambda: qseries._nahm_sum([("rr", 0, 1)], -1),
        *(lambda cid=cid: counting_series(cid, -1) for cid in ClassId),
        *(lambda j=j, t=t: series_S(j, t, -1) for j in (1, 2) for t in (1, 2)),
        *(lambda j=j, t=t: series_H(j, t, -1) for j in (1, 2) for t in (1, 2)),
        lambda: identity_check_sum_product("RR1", -1),
        lambda: identity_check_sum_product("LG1", -1),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


# --------------------------------------------------------------------------
# the Nahm sums against their term streams
# --------------------------------------------------------------------------


def _sum_weights() -> dict:
    """stream -> the weights (a, b) to check: (1, 0) and (0, 1) for every
    stream, and each one that a hook series or an identity sums it with."""
    weights = {stream: {(1, 0), (0, 1)} for stream in qseries._STREAMS}
    for _, _, form, gap_rows in qseries._HOOK_SERIES.values():
        if gap_rows is not None:  # a sum side
            for stream, a, b in form:
                weights[stream].add((a, b))
    for stream, _, _ in qseries._IDENTITIES.values():
        weights[stream].add((0, 1))
    return weights


def _window_edges(stream: str, top: int) -> set:
    """The lowest exponent of each term of ``stream`` up to q^top, and the
    orders one either side of it: where a term enters the sum."""
    edges = set()
    for _, term in _nahm_terms(stream, top):
        low = next(e for e, c in enumerate(term) if c)
        edges |= {low - 1, low, low + 1}
    return {e for e in edges if 0 <= e <= top}


@pytest.mark.parametrize("stream", sorted(qseries._STREAMS))
def test_nahm_terms_at_every_small_order(stream):
    # a stream run at a low order is its run at order 200, truncated term by
    # term: the terms that still reach q^order, each of length order + 1.
    # Every lowest exponent rises with n, so those terms are a prefix.
    full = [term for _, term in _nahm_terms(stream, 200)]
    for order in range(81):
        got = list(_nahm_terms(stream, order))
        expected = [t[: order + 1] for t in full]
        expected = expected[: next(n for n, t in enumerate(expected) if not any(t))]
        assert [n for n, _ in got] == list(range(len(expected))), order
        for (n, term), want in zip(got, expected):
            assert len(term) == order + 1, (order, n)
            assert term == want, (order, n)


def _times(coeffs: list, monomials) -> list:
    """``coeffs`` times the polynomial sum of c q^e over the (e, c)
    monomials, e >= 0, cut to the length of ``coeffs``: the plain loop."""
    out = [0] * len(coeffs)
    for e, c in monomials:
        for n in range(e, len(coeffs)):
            out[n] += c * coeffs[n - e]
    return out


def test_t2_streams_are_q_shifts_of_the_identity_streams():
    # the termwise relations that let one pass over rr or lg make S12 or
    # H12: rr_shifted_k = q^(2k+1) rr_k for every k, and (1 + q) lg12_k =
    # q (1 + q^(2k-1))(1 + q^(2k+1)) lg_k for k >= 1, with lg12_0 = 1 + q;
    # a term missing from a run is a term past the order, all zero
    order = 200
    terms = {s: dict(_nahm_terms(s, order)) for s in ("rr", "rr_shifted", "lg", "lg12")}
    zero = [0] * (order + 1)
    assert len(terms["rr"]) > 10 and len(terms["lg"]) > 10
    for k, rr_k in terms["rr"].items():
        assert terms["rr_shifted"].get(k, zero) == _times(rr_k, [(2 * k + 1, 1)]), k
    assert set(terms["rr_shifted"]) <= set(terms["rr"])
    assert terms["lg12"][0] == [1, 1] + [0] * (order - 1)
    for k, lg_k in terms["lg"].items():
        if k:
            rhs = _times(lg_k, [(1, 1), (2 * k, 1), (2 * k + 2, 1), (4 * k + 1, 1)])
            assert _times(terms["lg12"].get(k, zero), [(0, 1), (1, 1)]) == rhs, k
    assert set(terms["lg12"]) <= set(terms["lg"])


@pytest.mark.parametrize("stream", sorted(qseries._STREAMS))
def test_nahm_sum_matches_its_terms(stream):
    # the Horner evaluation against the terms run one by one at full order;
    # a lower order of the oracle is its truncation
    top = 2000
    terms = list(_nahm_terms(stream, top))
    for a, b in _sum_weights()[stream]:
        expected = [0] * (top + 1)
        for n, term in terms:
            expected = [e + (a * n + b) * c for e, c in zip(expected, term)]
        for order in sorted(set(range(81)) | _window_edges(stream, top)):
            assert qseries._nahm_sum([(stream, a, b)], order) == expected[: order + 1], (a, b, order)
    # a weight monomial below q^0 would index the level from its far end
    for c, d in ((0, -1), (-1, 3)):
        with pytest.raises(ValueError, match="weight exponents"):
            qseries._nahm_sum([(stream, 1, 0, c, d)], 10)


@pytest.mark.parametrize("stream", ["lg", "lg12", "rr", "rr_shifted"])
def test_packed_halves_are_the_count_and_the_weighted_sum(stream):
    # one pass weighting term n by n 2^W + 1 (Kronecker substitution, as
    # _identity_pass packs its fields) against the two sums run one
    # weighting at a time: at every small order, where terms enter the sum,
    # and at the ceiling, where the largest count must still fit below 2^W
    top = qseries.SERIES_CEILING
    for order in sorted(set(range(81)) | _window_edges(stream, 2000) | {top}):
        width = qseries._count_digit_width(order)
        packed = qseries._nahm_sum([(stream, 1 << width, 1)], order)
        count = [c & (1 << width) - 1 for c in packed]
        assert count == qseries._nahm_sum([(stream, 0, 1)], order), order
        assert [c >> width for c in packed] == qseries._nahm_sum([(stream, 1, 0)], order), order
    assert max(count).bit_length() <= qseries._count_digit_width(top)


# identity -> its pass's fields as unfused sums, each row run on its own
# stream: the count, the t = 1 series and the paper's t = 2 sum side
UNFUSED = {
    "RR1": ([("rr", 0, 1)], [("rr", 1, 0)], [("rr", 1, 0), ("rr_shifted", 0, -1)]),
    "LG1": ([("lg", 0, 1)], [("lg", 1, 0)], [("lg12", 1, 0)]),
}


@pytest.mark.parametrize("which", sorted(UNFUSED))
def test_identity_pass_fields_are_the_unfused_sums(monkeypatch, which):
    # the three fields of one packed pass against the three sums run one at
    # a time: at every small order, where a term of either stream enters the
    # sum, and at the ceiling, where the count must still fit below 2^W and
    # the t = 1 series below 2^W2.  Below 2000 the unfused sums are cut from
    # their run at 2000, which test_nahm_sum_matches_its_terms holds equal
    # to their run at each of these orders.
    forms = UNFUSED[which]
    mid = 2000
    reference = [qseries._nahm_sum(form, mid) for form in forms]
    edges = set().union(*(_window_edges(stream, mid) for stream in {row[0] for form in forms for row in form}))
    for order in sorted(set(range(81)) | edges):
        fields = qseries._identity_pass(which, order)
        assert list(fields) == [r[: order + 1] for r in reference], order
    top = qseries.SERIES_CEILING
    count, t1, t2 = qseries._identity_pass(which, top)
    assert [count, t1, t2] == [qseries._nahm_sum(form, top) for form in forms]
    width = qseries._count_digit_width(top)
    assert max(count).bit_length() <= width
    assert max(t1).bit_length() <= width + isqrt(top).bit_length() + 1
    # W cut to the least that holds the counts: then W2's margin over W is
    # what keeps the t = 1 series out of the t = 2 field
    monkeypatch.setattr(qseries, "_count_digit_width", lambda n: max(count[: n + 1]).bit_length())
    for order in (80, mid, top):
        assert list(qseries._identity_pass(which, order)) == [f[: order + 1] for f in (count, t1, t2)]


@pytest.mark.parametrize("name", ["S12", "H12"])
def test_bivariate_gap_rows_are_not_the_pass_stream(monkeypatch, empty_memo, name):
    # the S12 and H12 tables' d/dx at x = 1 is held to the series
    # (_check_marginal_and_derivative, criterion 4); that compares two
    # constructions only while the table's streams are not the one the
    # series' pass reads
    passes = _counted_passes(monkeypatch)
    (series_S if name[0] == "S" else series_H)(int(name[1]), int(name[2]), 60)
    [(pass_streams, _)] = passes
    class_id, _, _, gap_rows = qseries._HOOK_SERIES[name]
    assert pass_streams == [qseries._IDENTITIES[qseries._COUNTED_BY[class_id]][0]]
    assert not set(pass_streams) & set(gap_rows), name


def test_count_digit_width_holds_every_partition_count():
    # the width's bound is p(n), the number of all partitions of n, which
    # every class's count at n, and so every stream's, stays below: W must
    # hold p(n) at every order, not only the counts of the streams here
    top = qseries.SERIES_CEILING
    p = inv_pochhammer_product({1}, 1, top).coeffs
    for n in range(top + 1):
        assert p[n].bit_length() <= qseries._count_digit_width(n), n


# sha256 of the comma-joined decimal coefficients at order 5000, recorded
# from the per-coefficient loop engine that built the class products as
# products, before the slice kernels and the Nahm-sum counting series
DIGESTS_5000 = {
    "S11": "205bfe8958bf99082875c8b274f7f53fc2c23ecd7560aaa46b4e699e963799b2",
    "S12": "87846c57b654887d83791683350e5267108ec53a90b02c2f4968516db0d822c9",
    "S21": "60fdfc51392d7ca376b19b16d9316b5277aa2974352287eaf13689d3dbe70232",
    "S22": "d81e57f875a8d8af2d084ca0821eb2c24d90112cc1c33c3af0ea949a1f1ba6af",
    "H11": "151a3ded30cc5620329ec01ac14cf90934482564bfabb1c5971b21c5d521b38b",
    "H12": "9504cbd28ca2ddedc8bfe4b33f8a0984f2d45bcb635142ad2ac5f695b35e9b72",
    "H21": "4999051095d75d5b619f7a913c2c5dd3144df3e00397a639099a2515e6b974a7",
    "H22": "d5a9a851da0857ef8539f44919143801863c618a7b1ddb67101bab416e1b26f3",
    "count-r": "6826d4add3586de19170e9dd835ebf4e0b1add690648b304661fe1ee5acfbfd7",
    "count-g": "fed18c52b47297551429ecec24658e4721564e95b29b433ed0a49b9a1001cdd5",
}


def test_series_digests_at_5000(empty_memo):
    for name, build in MEMOIZED:
        coeffs = build(5000).coeffs
        digest = hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()
        assert digest == DIGESTS_5000[name], name
    # the Nahm sums against the product side, past the identity checks' 500
    assert counting_series(ClassId.R1, 1000) == inv_pochhammer_product({1, 4}, 5, 1000)
    assert counting_series(ClassId.G2, 1000) == inv_pochhammer_product({1, 5, 6}, 8, 1000)


def test_identity_checks():
    for which in ("RR1", "LG1"):
        chk = identity_check_sum_product(which, 200)
        assert chk.ok and chk.first_mismatch is None
        assert "agree" in str(chk)
    assert identity_check_sum_product("RR1", 0).ok
    assert identity_check_sum_product("LG1", 0).ok
    with pytest.raises(ValueError):
        identity_check_sum_product("RR2", 10)


def _raised_at_7(coeffs: list) -> list:
    coeffs[7] += 1
    return coeffs


def test_identity_report_on_mismatch(monkeypatch):
    # each side corrupted in turn at q^7 must be seen, so the check cannot
    # be comparing one computation (say counting_series) with itself
    products = {"RR1": ((1, 4), 5), "LG1": ((1, 5, 6), 8)}
    streams = {"RR1": "rr", "LG1": "lg"}
    true = {w: inv_pochhammer_product(*products[w], 40)[7] for w in products}
    assert true == {"RR1": 3, "LG1": 3}
    real_product = qseries.inv_pochhammer_product
    for which in ("RR1", "LG1"):
        with monkeypatch.context() as m:
            m.setattr(qseries, "inv_pochhammer_product",
                      lambda *args: TruncatedSeries(40, _raised_at_7(real_product(*args).coeffs)))
            chk = identity_check_sum_product(which, 40)
        assert not chk.ok
        assert (chk.first_mismatch, chk.sum_value, chk.product_value) == (
            7, true[which], true[which] + 1)
        msg = str(chk)
        assert "q^7" in msg and f"sum side {true[which]}" in msg
        assert f"product side {true[which] + 1}" in msg

        real_sum = qseries._nahm_sum

        def corrupted(rows, order, planted={streams[which]}):
            # the fault goes into the count-only pass over the identity's
            # own stream
            out = real_sum(rows, order)
            return _raised_at_7(out) if {row[0] for row in rows} == planted else out

        with monkeypatch.context() as m:
            m.setattr(qseries, "_nahm_sum", corrupted)
            chk = identity_check_sum_product(which, 40)
        assert not chk.ok
        assert (chk.first_mismatch, chk.sum_value, chk.product_value) == (
            7, true[which] + 1, true[which])
        msg = str(chk)
        assert "q^7" in msg and f"sum side {true[which] + 1}" in msg
        assert f"product side {true[which]}" in msg
    assert identity_check_sum_product("RR1", 40).ok
    assert identity_check_sum_product("LG1", 40).ok


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
    # full (n, k) table == distribution of the t-hook statistic over members;
    # the table ends at its top nonzero column, so a statistic value at or
    # above len(cols) means a column was lost
    bound = 16
    dists = []
    for n in range(bound + 1):
        dist = {}
        for p in iter_class(class_id, n):
            k = t_hook_count(p, t)
            dist[k] = dist.get(k, 0) + 1
        dists.append(dist)
    for order in (0, 1, 2, bound):
        table = build(j, t, order)
        for n in range(order + 1):
            assert max(dists[n]) <= len(table.cols) - 1, (order, n)
            for k in range(len(table.cols)):
                assert table.cols[k][n] == dists[n].get(k, 0), (order, n, k)


def _check_marginal_and_derivative(build, j, t, class_id, order):
    table = build(j, t, order)
    assert table.at_x_one() == counting_series(class_id, order)
    expected = (series_S if build is bivariate_R else series_H)(j, t, order)
    assert table.x_derivative_at_one() == expected
    assert all(c >= 0 for col in table.cols for c in col)


@pytest.mark.parametrize("build,j,t,class_id", BIVARIATE_BUILDERS)
def test_bivariate_marginal_and_derivative(build, j, t, class_id):
    for order in (40, 150, 1000):
        _check_marginal_and_derivative(build, j, t, class_id, order)


def test_digit_width_exceeds_the_partition_numbers(monkeypatch):
    # a coefficient of x^k q^n counts class members of size n, so the width
    # must hold the class's count at every size up to the order, here from
    # the sum side, and every entry of a table packed with digits too wide
    # to carry
    real = qseries._degree_digit_width
    for class_id in ClassId:
        for order in (0, 1, 2, 40, 150, 1000):
            counts = counting_series(class_id, order).coeffs
            assert max(counts).bit_length() <= real(class_id, order), (class_id, order)
    monkeypatch.setattr(qseries, "_degree_digit_width", lambda class_id, order: 2 * real(class_id, order) + 8)
    for build, j, t, class_id in BIVARIATE_BUILDERS:
        for order in (0, 40, 150, 400):
            entries = [c for col in build(j, t, order).cols for c in col]
            assert max(entries).bit_length() <= real(class_id, order), (build.__name__, j, t, order)


@pytest.mark.parametrize("build,j,t,class_id", BIVARIATE_BUILDERS)
def test_narrow_digits_break_the_product_side_tables(monkeypatch, build, j, t, class_id):
    # the largest coefficients of all eight tables at order 150 take 19 or
    # 20 bits, so 18-bit digits carry into the next x-degree and the checks
    # that pass at the real width must fail
    monkeypatch.setattr(qseries, "_degree_digit_width", lambda class_id, order: 18)
    with pytest.raises(AssertionError):
        _check_marginal_and_derivative(build, j, t, class_id, 150)


@pytest.mark.parametrize("build,j,t,class_id", [case for case in BIVARIATE_BUILDERS if case[1] == 1])
def test_gap_tables_match_their_term_rows(build, j, t, class_id):
    # a gap-class table is the sum of x^n times term n over its gap-row
    # streams: here each term is run one by one at full order and added into
    # its column, the oracle for the packed Horner sum above order 16, where
    # the enumeration test stops
    name = f"{'S' if build is bivariate_R else 'H'}{j}{t}"
    gap_rows = qseries._HOOK_SERIES[name][3]
    for order in [*range(61), 150, 400]:
        cols = []
        for stream in gap_rows:
            for n, term in _nahm_terms(stream, order):
                cols.extend([0] * (order + 1) for _ in range(len(cols), n + 1))
                cols[n] = [a + b for a, b in zip(cols[n], term)]
        table = build(j, t, order)
        assert table.cols == cols, (name, order)


def test_bivariate_examples():
    table = bivariate_R(1, 1, 10)
    assert table.cols[1][4] == 1   # (4)
    assert table.cols[2][4] == 1   # (3, 1)
    assert table.cols[0][4] == 0
    gtable = bivariate_G(1, 1, 10)
    assert gtable.cols[1][4] == 1  # only (4)
    assert sum(col[4] for col in gtable.cols) == 1


@pytest.mark.parametrize("lone,repeated", [(1, 1), (0, 1), (1, 2)])
def test_part_factor_is_its_definition(lone, repeated):
    # a part e at multiplicity m contributes x^(h_m) q^(e m), with h_0 = 0,
    # h_1 = lone and h_m = repeated for m >= 2; the numerator keeps only
    # nonzero monomials, so at x = 1 it is the constant 1 alone
    order = 40
    for e in range(1, 7):
        for x in (1, 2, 3, 2**20):
            numerator, periods = factor = _part_factor(e, lone, repeated, x)
            assert all(c for _, c in numerator), (e, x, numerator)
            assert periods == [e]
            expected = [0] * (order + 1)
            for m in range(order // e + 1):
                expected[e * m] = x ** (0 if m == 0 else lone if m == 1 else repeated)
            assert _apply([1] + [0] * order, factor) == expected, (e, lone, repeated, x)


def test_bivariate_series_keeps_its_own_column_list():
    # trimming the zero top columns must not shorten the caller's list, and
    # a later change to that list must not reach the table
    one, zero = [1, 0, 0, 0], [0] * 4
    cols = [one, zero, zero]
    table = BivariateSeries(3, cols)
    assert len(cols) == 3
    assert table.cols is not cols
    assert table.cols == [one]
    cols.append(one)
    assert table.cols == [one]


def test_bivariate_series_refuses_a_column_of_another_order():
    # a column of 6 entries in an order-3 table would let cols[1][5] read
    # q^5 past order_q, and one of 3 would drop q^3; a table without
    # columns has no x-degree 0
    for cols in ([[1, 0, 0, 0], [0, 1, 0, 0, 0, 7]], [[1, 0, 0, 0, 0, 0]], [[1, 0, 0]],
                 [[1, 0, 0, 0], [0, 1, 0]], []):
        with pytest.raises(ValueError, match="each of order 3"):
            BivariateSeries(3, cols)
    # an empty column has the length order_q + 1 of order_q = -1, which is
    # refused in its own words
    for cols in ([[]], [[], []]):
        with pytest.raises(ValueError, match="order_q must be >= 0"):
            BivariateSeries(-1, cols)


# what the package, bench/child.py and the README read of each series type:
# a series' order, its coefficient list, its [n] and ==; a table's q-order,
# its column lists and its two reductions
_SERIES_SURFACE = {
    TruncatedSeries: {"order", "coeffs", "__getitem__", "__eq__"},
    BivariateSeries: {"order_q", "cols", "at_x_one", "x_derivative_at_one"},
}


def test_series_types_expose_what_is_read_and_tables_hold_plain_lists():
    # a method, property or slot that no reader reads is surface to keep
    # for nothing; every column of a table is a list of order + 1 ints
    for cls, surface in _SERIES_SURFACE.items():
        own = {name for name, value in vars(cls).items()
               if callable(value) or inspect.isdatadescriptor(value)}
        assert own - {"__init__"} == surface, cls.__name__
    for build, j, t, _ in BIVARIATE_BUILDERS:
        for order in (0, 1, 40):
            cols = build(j, t, order).cols
            assert type(cols) is list, (build.__name__, j, t, order)
            for col in cols:
                assert type(col) is list and len(col) == order + 1, (build.__name__, j, t, order)
                assert all(type(c) is int for c in col), (build.__name__, j, t, order)


def test_bivariate_rejects_unknown_indices():
    with pytest.raises(ValueError):
        bivariate_R(0, 1, 5)
    with pytest.raises(ValueError):
        bivariate_G(2, 3, 5)


@pytest.mark.parametrize("build,j,t,class_id", BIVARIATE_BUILDERS)
def test_bivariate_order_bounds(build, j, t, class_id):
    # a negative order is refused with the series' own message, before the
    # digit width is taken; order 0 is the empty partition alone, with no
    # hooks
    with pytest.raises(ValueError, match="order must be >= 0"):
        build(j, t, -1)
    table = build(j, t, 0)
    assert table.order_q == 0
    assert table.cols == [[1]]


@pytest.mark.parametrize(
    "build,class_id,which,patched",
    [
        (bivariate_R, ClassId.R2, "RR1", (frozenset({1, 2}), 5)),
        (bivariate_G, ClassId.G2, "LG1", (frozenset({1, 3, 4}), 8)),
    ],
)
def test_product_sides_read_the_class_table(monkeypatch, build, class_id, which, patched):
    # a congruence class is defined once, in classes.RESIDUE_CLASSES: the
    # product-side tables' factors and the identity check follow a change
    # there, while the sum side (a Nahm sum) does not, so the identity fails.
    # The digit width is the sum side's count, which bounds the table only
    # while the identity holds, so here it is the patched class's own count
    monkeypatch.setitem(classes.RESIDUE_CLASSES, class_id, patched)
    order = 20
    members = [sum(1 for _ in iter_class(class_id, n)) for n in range(order + 1)]
    assert members != counting_series(class_id, order).coeffs
    monkeypatch.setattr(qseries, "_degree_digit_width", lambda cid, n: max(members).bit_length())
    for t in (1, 2):
        assert build(2, t, order).at_x_one().coeffs == members, t
    assert not identity_check_sum_product(which, order).ok


# sha256 of each bivariate table's columns (comma-joined decimal
# coefficients, one line per x-degree) and of the two class products,
# recorded from the column-by-column product-side tables and the
# smallest-part-first product; at order 1000 every table packs wider
# digits than at any smaller order here
BIVARIATE_DIGESTS = {
    ("R", 1, 1, 150): "679736731b4f4fb943e987b046327df8d9cc01f799e35b86b7a61cb2a0a2f6a6",
    ("R", 1, 2, 150): "462196f0249e3d78ce5692dfdc9241a8786db560ff4c2c797f96898ae64e25d5",
    ("R", 2, 1, 150): "e9e91664ce052fae2fac814fbb79b20d89e136467839f44a78d3a36515851fa2",
    ("R", 2, 2, 150): "ce8cc5bcf7028db131c261ba71ffaef314956131cf14791d042407da337a6fd2",
    ("G", 1, 1, 150): "bac3a1a1da124db2c8b6dec26aa8890f0c809bfc3d93ae944aa939f6455f9b82",
    ("G", 1, 2, 150): "66fb6a0d4079c29ef824435bf473b995e6ec6dc63fe89f77a229a48a346a4b65",
    ("G", 2, 1, 150): "c44ac07f760695c153cecda270f9183f37aa2be347e2dfe37ac4b63629491783",
    ("G", 2, 2, 150): "3b7276540e295f471c58471ad2d7e7a1a18a7283a50a11a092e1720117466fa7",
    ("R", 2, 1, 400): "9a1e948fedd306065ed3477f24fdbda7bc2770f482f3be81ecb43a5104c3a696",
    ("R", 2, 2, 400): "51ec43883c742c589e908c3fa70cee99fd56957b766a00e41d5788622be3805c",
    ("G", 2, 1, 400): "a25957c5d1db2045f93eceae37b519b081deacd0ea94be86a09f22d718abb4e9",
    ("G", 2, 2, 400): "5accc7a4962132f40ac01eaefe9276a6aa659bfb36a89eaa99971a5182f02338",
    ("R", 1, 1, 1000): "b2875f7e5cb17674ac03d5010dcb717ecc31a2c240c895453889f7aab281a59b",
    ("R", 1, 2, 1000): "41ee42a5080af694a28848ce6192d003965be34d45f3830a89af81dc3a137e8f",
    ("R", 2, 1, 1000): "11c504fb7e63e60970de962d4be32711b05c3ffd1ca9a2b8096d1392d4dbfd27",
    ("R", 2, 2, 1000): "9b283b1651548a030cc1e87d1b10aefd84419eb10155a09efe83f3cdd8069254",
    ("G", 1, 1, 1000): "86b4d3e72468fcaca288babdd4b477c3293a7fdecf5ca17fcfd29eb633e048cd",
    ("G", 1, 2, 1000): "8b6503034c101f588ff9ea1a151697b4c1991fcaa485a7eb08e2006ea359bef9",
    ("G", 2, 1, 1000): "30d7335fa297b9b19de8705acf00335f1ae73084b7df03298583d71b5336551c",
    ("G", 2, 2, 1000): "08fda012270dc7191e6292d6a7c5648a5aed6b6d823a451def3de2b56689c58b",
}
PRODUCT_DIGESTS_2000 = {
    ((1, 4), 5): "54785e710467e9adb4be67d0bb8948f746591eec11d15f8700f93a7775fd9e2b",
    ((1, 5, 6), 8): "2dfdf60d5657426c5958c0cc745151b653ea0b1ac17f3157754f7a3003250fe5",
}


def _sha(lines) -> str:
    text = "\n".join(",".join(map(str, coeffs)) for coeffs in lines)
    return hashlib.sha256(text.encode()).hexdigest()


def test_bivariate_and_product_digests():
    builders = {"R": bivariate_R, "G": bivariate_G}
    for (family, j, t, order), digest in BIVARIATE_DIGESTS.items():
        table = builders[family](j, t, order)
        assert _sha(table.cols) == digest, (family, j, t, order)
    for (residues, modulus), digest in PRODUCT_DIGESTS_2000.items():
        series = inv_pochhammer_product(set(residues), modulus, 2000)
        assert _sha([series.coeffs]) == digest, (residues, modulus)
