"""Exact truncated power series for the class generating functions.

Everything here is integer-exact: a :class:`TruncatedSeries` holds the
coefficients of sum(c_n q^n) + O(q^(N+1)) as Python ints, and the engine is
division-free -- dividing by (1 - q^p) is realized as multiplication by the
truncated geometric series of period p, an O(N) in-place pass.  Each
in-place primitive works on whole list slices (``map``/``accumulate`` over
them), so its per-coefficient loop runs in C, not in Python bytecode.

The eight univariate series:

* ``series_S(1, 1)``  sum of n q^(n^2) / (q;q)_n                (1-hooks, gap-2 class)
* ``series_S(2, 1)``  [1/(q,q^4;q^5)_inf] (q+q^4)/(1-q^5)       (1-hooks, mod-5 class)
* ``series_S(1, 2)``  sum n q^(n^2)/(q;q)_n - sum q^(n^2)/(q;q)_(n-1)
* ``series_S(2, 2)``  [1/(q,q^4;q^5)_inf] ((q^4+q^6)/(1-q^5) + (q^2+q^8)/(1-q^10))
* ``series_H(1, 1)``  sum n q^(n^2+n) (-1/q;q^2)_n / (q^2;q^2)_n
* ``series_H(2, 1)``  [1/(q,q^5,q^6;q^8)_inf] (q+q^5+q^6)/(1-q^8)
* ``series_H(1, 2)``  sum n q^(n^2+n) (-q;q^2)_(n+1) / (q^2;q^2)_n
* ``series_H(2, 2)``  [1/(q,q^5,q^6;q^8)_inf]
                      ((q^5+q^6+q^9)/(1-q^8) + (q^2+q^10-q^11+q^12)/(1-q^16))

Two tables define them.  ``_STREAMS`` holds each Nahm-sum term stream as
one recurrence from n = 0, term n = term (n-1) q^s (1 + q^p)/(1 - q^d)
with s, p, d depending on n, run by :func:`_nahm_terms`.  ``_HOOK_SERIES``
holds each series as a sum side, a weighted sum over streams, or a
product side, a class counting series times short rational terms.

One builder, :func:`_build_bivariate`, makes the eight bivariate
refinements sum_lambda x^(statistic) q^|lambda|.  A gap-class table takes
its rows from the same streams; a congruence-class table is a product of
one factor per part value that ``classes.RESIDUE_CLASSES`` allows, as is
the product side of :func:`identity_check_sum_product`, so each congruence
class is defined there alone.

:func:`counting_series` is the Nahm (sum) side of each pair's first
identity; the product side, :func:`inv_pochhammer_product`, is kept as its
oracle and is what :func:`identity_check_sum_product` compares it with.

The eight series and the two class counting series are memoized per
process, ten fixed keys whatever the input.  Each key holds the series
built at the highest order requested so far: a lower order is served by
truncation, a higher one rebuilds the entry.  Every call returns a fresh
:class:`TruncatedSeries`, which the caller may mutate without touching the
memo.  :func:`inv_pochhammer_product` and the bivariate builders are not
memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import add, mul

from .classes import RESIDUE_CLASSES, ClassId


class OrderMismatchError(ValueError):
    """Two series of different truncation orders were combined."""


# --------------------------------------------------------------------------
# univariate series
# --------------------------------------------------------------------------


class TruncatedSeries:
    """Power series mod q^(order+1) with exact integer coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: list | None = None):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        if coeffs is None:
            self.coeffs = [0] * (order + 1)
        else:
            if len(coeffs) != order + 1:
                raise ValueError("coeffs must have exactly order+1 entries")
            self.coeffs = list(coeffs)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        s = cls(order)
        s.coeffs[0] = 1
        return s

    def copy(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, self.coeffs)

    def truncated(self, order: int) -> "TruncatedSeries":
        """New series holding this one's coefficients up to q^order."""
        if order > self.order:
            raise ValueError(f"order {order} exceeds truncation order {self.order}")
        return TruncatedSeries(order, self.coeffs[: order + 1])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[: min(8, self.order + 1)])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"

    # -- in-place exact primitives (used by the series builders) ----------

    def imul_geometric(self, period: int) -> "TruncatedSeries":
        """Multiply by 1/(1 - q^period) in place.

        The recurrence c[k] += c[k - period] is a running sum along each
        residue class mod ``period``.  A short period takes those sums slice
        by slice; a long one walks blocks of length ``period``, each adding
        the block before it, which is already updated."""
        if period < 1:
            raise ValueError("period must be >= 1")
        c, size = self.coeffs, self.order + 1
        if period * period <= size:
            for r in range(period):
                c[r::period] = accumulate(c[r::period])
        else:
            for lo in range(period, size, period):
                c[lo : lo + period] = map(add, c[lo : lo + period], c[lo - period : lo])
        return self

    def imul_one_plus(self, exp: int) -> "TruncatedSeries":
        """Multiply by (1 + q^exp) in place, exp >= 1."""
        if exp < 1:
            raise ValueError("exp must be >= 1")
        c = self.coeffs
        # the right-hand slices are copies, so every term reads an old value
        c[exp:] = map(add, c[exp:], c[: max(self.order + 1 - exp, 0)])
        return self

    def shifted(self, exp: int) -> "TruncatedSeries":
        """New series equal to q^exp times this one (exp >= 0)."""
        if exp < 0:
            raise ValueError("exp must be >= 0")
        out = TruncatedSeries(self.order)
        if exp <= self.order:
            out.coeffs[exp:] = self.coeffs[: self.order + 1 - exp]
        return out

    def iadd_scaled(self, other: "TruncatedSeries", k: int = 1) -> "TruncatedSeries":
        if other.order != self.order:
            raise OrderMismatchError(f"orders differ: {self.order} != {other.order}")
        scaled = other.coeffs if k == 1 else map(mul, other.coeffs, repeat(k))
        # slice assignment drains the map before it writes, so other may be self
        self.coeffs[:] = map(add, self.coeffs, scaled)
        return self


def _mul_sparse(series: TruncatedSeries, terms, out: TruncatedSeries) -> TruncatedSeries:
    """Add series times sum(sign q^exp), over (exp, sign) pairs with
    exponents >= 0, into ``out`` (of the same order) and return it."""
    src, dst = series.coeffs, out.coeffs
    for exp, sign in terms:
        if exp < 0:
            raise ValueError("numerator exponents must be >= 0")
        # map stops at the end of dst[exp:], so it reads src[: order + 1 - exp]
        dst[exp:] = map(add, dst[exp:], src if sign == 1 else map(mul, src, repeat(sign)))
    return out


def apply_rational(series: TruncatedSeries, terms, period: int) -> TruncatedSeries:
    """series times (sum of signed monomials)/(1 - q^period)."""
    return _mul_sparse(series, terms, TruncatedSeries(series.order)).imul_geometric(period)


def inv_pochhammer_product(residues, modulus: int, order: int) -> TruncatedSeries:
    """Expansion of 1 / prod_{n >= 1, n = r (mod m) for some r} (1 - q^n).

    Only factors with exponent <= order contribute; this is the partition
    counting series for parts restricted to the given residue classes.
    """
    residues = set(residues)
    if not residues:
        raise ValueError("residues must be nonempty")
    if any(not 1 <= r <= modulus for r in residues):
        raise ValueError(f"residues must lie in [1, {modulus}]")
    keys = {r % modulus for r in residues}
    out = TruncatedSeries.one(order)
    for e in range(1, order + 1):
        if e % modulus in keys:
            out.imul_geometric(e)
    return out


# key -> the series built at the highest order requested so far; the keys are
# the eight hook series and the two class products, ten in all
_MEMO: dict = {}


def _memoized(key, order: int, build) -> TruncatedSeries:
    """A fresh copy of ``build(order)``, truncated from the memo entry for
    ``key`` when that was built at ``order`` or above, else rebuilt there."""
    held = _MEMO.get(key)
    if held is None or held.order < order:
        held = _MEMO[key] = build(order)
    return held.truncated(order)


# identity -> (the term stream of its sum side, the congruence class whose
# parts its product side allows)
_IDENTITIES = {"RR1": ("rr", ClassId.R2), "LG1": ("lg", ClassId.G2)}


def counting_series(class_id: ClassId, order: int) -> TruncatedSeries:
    """Partition-count series of a class, built as the Nahm sum of its
    pair's identity: sum q^(n^2)/(q;q)_n for R1 and R2, and
    sum q^(n^2+n)(-1/q;q^2)_n/(q^2;q^2)_n for G1 and G2.  Both classes of a
    pair are equinumerous, so they share one series.

    :func:`identity_check_sum_product` compares these sums with the product
    side.  Memoized per process, one entry per pair, keyed by the product
    side's (residues, modulus); a fresh series is returned on every call."""
    stream, cong = _IDENTITIES["RR1" if class_id in (ClassId.R1, ClassId.R2) else "LG1"]
    residues, modulus = RESIDUE_CLASSES[cong]
    key = tuple(sorted(residues)), modulus
    return _memoized(key, order, lambda n: _nahm_sum([(stream, 0, 1)], n))


# --------------------------------------------------------------------------
# Nahm-sum term streams
# --------------------------------------------------------------------------

# stream -> ((shift, plus), n -> (shift, plus, period)): term 0 is
# q^shift (1 + q^plus), and term n is term n-1 times
# q^shift (1 + q^plus)/(1 - q^period); a plus of None drops (1 + q^plus).
_STREAMS = {
    # q^(n^2)/(q;q)_n
    "rr": ((0, None), lambda n: (2 * n - 1, None, n)),
    # q^((n+1)^2)/(q;q)_n
    "rr_shifted": ((1, None), lambda n: (2 * n + 1, None, n)),
    # q^(n^2+n)/(q;q)_n
    "rr_second": ((0, None), lambda n: (2 * n, None, n)),
    # q^(n^2+n) (-1/q;q^2)_n/(q^2;q^2)_n, step numerator q^(2n) + q^(4n-3)
    "lg": ((0, None), lambda n: (min(2 * n, 4 * n - 3), abs(2 * n - 3), 2 * n)),
    # q^(n^2+n) (-q;q^2)_(n+1)/(q^2;q^2)_n, whose term 0 is 1 + q
    "lg12": ((0, 1), lambda n: (2 * n, 2 * n + 1, 2 * n)),
}


def _times_binomial(series: TruncatedSeries, shift: int, plus) -> TruncatedSeries:
    """New series q^shift (1 + q^plus) times ``series`` (q^shift if plus is None)."""
    out = series.shifted(shift)
    return out if plus is None else out.imul_one_plus(plus)


def _nahm_terms(stream: str, order: int):
    """(n, term n) for n = 0, 1, ... over a stream of :data:`_STREAMS`, up to
    its first zero term (the lowest exponent rises with n, and each later
    term is a multiple of it).  Each term is a fresh series and the next is
    built before it is handed out, so the caller may mutate it."""
    (shift, plus), step = _STREAMS[stream]
    term, n = _times_binomial(TruncatedSeries.one(order), shift, plus), 0
    while not term.is_zero():
        shift, plus, period = step(n + 1)
        after = _times_binomial(term, shift, plus).imul_geometric(period)
        yield n, term
        term, n = after, n + 1


def _nahm_sum(streams, order: int) -> TruncatedSeries:
    """Sum over (stream, a, b) in ``streams`` of (a*n + b) times term n of
    that stream, to the given order."""
    acc = TruncatedSeries.zero(order)
    for stream, a, b in streams:
        for n, term in _nahm_terms(stream, order):
            if a * n + b:
                acc.iadd_scaled(term, a * n + b)
    return acc


# --------------------------------------------------------------------------
# the eight hook generating functions
# --------------------------------------------------------------------------

# ("S"|"H", j, t) -> the closed form of series_S(j, t) or series_H(j, t).
# A sum side is a list of (stream, a, b) for :func:`_nahm_sum`.  A product
# side is (class, [(numerator, period), ...]): the class's counting series
# times the sum of numerator/(1 - q^period), each as in apply_rational.
_HOOK_SERIES = {
    ("S", 1, 1): [("rr", 1, 0)],
    ("S", 1, 2): [("rr", 1, 0), ("rr_shifted", 0, -1)],
    ("S", 2, 1): (ClassId.R2, [([(1, 1), (4, 1)], 5)]),
    ("S", 2, 2): (ClassId.R2, [([(4, 1), (6, 1)], 5), ([(2, 1), (8, 1)], 10)]),
    ("H", 1, 1): [("lg", 1, 0)],
    ("H", 1, 2): [("lg12", 1, 0)],
    ("H", 2, 1): (ClassId.G2, [([(1, 1), (5, 1), (6, 1)], 8)]),
    ("H", 2, 2): (ClassId.G2, [([(5, 1), (6, 1), (9, 1)], 8),
                               ([(2, 1), (10, 1), (11, -1), (12, 1)], 16)]),
}


def _checked_key(name: str, family: str, j: int, t: int) -> tuple:
    """The hook-series key (family, j, t), or ValueError naming ``name``."""
    if (family, j, t) not in _HOOK_SERIES:
        raise ValueError(f"{name} undefined for (j, t) = ({j}, {t})")
    return family, j, t


def _build_hook_series(key: tuple, order: int) -> TruncatedSeries:
    form = _HOOK_SERIES[key]
    if isinstance(form, list):
        return _nahm_sum(form, order)
    class_id, terms = form
    prod = counting_series(class_id, order)
    acc = TruncatedSeries.zero(order)
    for numerator, period in terms:
        acc.iadd_scaled(apply_rational(prod, numerator, period))
    return acc


def series_S(j: int, t: int, order: int) -> TruncatedSeries:
    """Generating function of the t-hook counts of the Rogers-Ramanujan
    class pair: j = 1 the gap-2 class, j = 2 the mod-5 class; t in {1, 2}.

    Memoized per process (see the module docstring): a request at or below
    the highest order built so far is served by truncation, and a fresh
    series is returned on every call."""
    key = _checked_key("series_S", "S", j, t)
    return _memoized(key, order, lambda n: _build_hook_series(key, n))


def series_H(j: int, t: int, order: int) -> TruncatedSeries:
    """Generating function of the t-hook counts of the little Gollnitz class
    pair: j = 1 the gap class, j = 2 the mod-8 class; t in {1, 2}.

    Memoized per process like :func:`series_S`."""
    key = _checked_key("series_H", "H", j, t)
    return _memoized(key, order, lambda n: _build_hook_series(key, n))


# --------------------------------------------------------------------------
# bivariate refinements
# --------------------------------------------------------------------------


def _trimmed(cols: list) -> list:
    """cols without its zero top columns, keeping at least one."""
    while len(cols) > 1 and cols[-1].is_zero():
        cols.pop()
    return cols


class BivariateSeries:
    """Series in q and x, stored as one TruncatedSeries per x-degree.

    ``cols[k]`` is the coefficient of x^k.  The list ends at the highest
    x-degree with a nonzero coefficient (a lone zero column for the zero
    table), so it grows with the statistic, not with the q-order.
    """

    __slots__ = ("order_q", "cols")

    def __init__(self, order_q: int, cols: list):
        self.order_q = order_q
        self.cols = _trimmed(cols)

    @classmethod
    def from_rows(cls, order_q: int, rows) -> "BivariateSeries":
        """Table of the sum of x^k s(q) over the (k, s) pairs in ``rows``."""
        cols = [TruncatedSeries.zero(order_q)]
        for k, s in rows:
            cols.extend(TruncatedSeries.zero(order_q) for _ in range(len(cols), k + 1))
            cols[k].iadd_scaled(s)
        return cls(order_q, cols)

    @property
    def order_x(self) -> int:
        """Highest x-degree stored."""
        return len(self.cols) - 1

    def coefficient(self, n: int, k: int) -> int:
        """Coefficient of x^k q^n."""
        if not 0 <= k <= self.order_x:
            raise IndexError(f"x-degree {k} outside table")
        return self.cols[k][n]

    def imul_factor(self, numerator: dict, periods) -> "BivariateSeries":
        """Multiply in place by sum_p x^p N_p(q) / prod_{d in periods} (1 - q^d).

        ``numerator`` maps each x-power p to the (exp, sign) monomials of
        N_p; the factor is applied with the primitives of
        :func:`apply_rational`, column by column.
        """
        cols = [
            TruncatedSeries.zero(self.order_q)
            for _ in range(len(self.cols) + max(numerator))
        ]
        for k, col in enumerate(self.cols):
            for p, terms in numerator.items():
                _mul_sparse(col, terms, cols[k + p])
        for col in cols:
            for d in periods:
                col.imul_geometric(d)
        self.cols = _trimmed(cols)
        return self

    def at_x_one(self) -> TruncatedSeries:
        """Marginalize the statistic: substitute x = 1."""
        acc = TruncatedSeries.zero(self.order_q)
        for col in self.cols:
            acc.iadd_scaled(col)
        return acc

    def x_derivative_at_one(self) -> TruncatedSeries:
        """d/dx at x = 1: weights each column by its x-degree."""
        acc = TruncatedSeries.zero(self.order_q)
        for k, col in enumerate(self.cols):
            if k:
                acc.iadd_scaled(col, k)
        return acc


# Product-side factors, one per part value, as (numerator, periods) for
# BivariateSeries.imul_factor.


def _one_part_factor(e: int):
    """1 + x q^e/(1 - q^e): a part e, at any multiplicity, is one 1-hook."""
    return {0: [(0, 1), (e, -1)], 1: [(e, 1)]}, [e]


def _part_one_factor():
    """1 + q + x q^2/(1 - q): parts 1 give a 2-hook only when repeated."""
    return {0: [(0, 1), (2, -1)], 1: [(2, 1)]}, [1]


def _two_part_factor(e: int):
    """1 + x q^e + x^2 q^(2e)/(1 - q^e): a part e > 1 gives one 2-hook, and
    a second one when repeated."""
    return {0: [(0, 1), (e, -1)], 1: [(e, 1), (2 * e, -1)], 2: [(2 * e, 1)]}, [e]


def _pair_factor(a: int):
    """Adjacent parts a > 1 and b = a + 1 together: each absent or alone as
    in the two-part factor, or both present, which merges one pair of their
    2-hooks into the cross term x q^s (1 - (1-x) q^a)/(1 - q^a)
    (1 - (1-x) q^b)/(1 - q^b), s = a + b; over (1 - q^a)(1 - q^b)."""
    b, s = a + 1, 2 * a + 1
    den = [(0, 1), (a, -1), (b, -1), (s, 1)]
    return {
        0: den,
        1: [(e + f, sign) for e in (a, b, s) for f, sign in den],
        2: [(2 * a, 1), (2 * b, 1), (2 * s, -2)],
        3: [(2 * s, 1)],
    }, [a, b]


def _part_factors(class_id: ClassId, t: int, order: int):
    """The factors of a congruence class's product-side table: one for each
    part value up to ``order`` that :data:`RESIDUE_CLASSES` allows.  For
    t = 2, part 1 and each pair e, e + 1 of adjacent allowed values take
    their own factors; residue 1 is allowed in both classes, 2 in neither,
    and no three allowed values are consecutive."""
    residues, modulus = RESIDUE_CLASSES[class_id]
    allowed = [e % modulus in residues for e in range(order + 2)]
    if t == 1:
        for e in range(1, order + 1):
            if allowed[e]:
                yield _one_part_factor(e)
        return
    yield _part_one_factor()
    e = 2
    while e <= order:
        if allowed[e]:
            paired = allowed[e + 1]
            yield _pair_factor(e) if paired else _two_part_factor(e)
            e += paired
        e += 1


# ("S"|"H", 1, t) -> the streams whose term n, in turn, is a row x^n of the
# gap-class table
_GAP_ROWS = {
    ("S", 1, 1): ["rr"],
    ("S", 1, 2): ["rr_shifted", "rr_second"],
    ("H", 1, 1): ["lg"],
    ("H", 1, 2): ["lg12"],
}


def _build_bivariate(key: tuple, order: int) -> BivariateSeries:
    """The table of a hook-series key: a gap class's rows from its term
    streams, a congruence class's as the product of its part factors."""
    if key in _GAP_ROWS:
        rows = chain.from_iterable(_nahm_terms(stream, order) for stream in _GAP_ROWS[key])
        return BivariateSeries.from_rows(order, rows)
    class_id, _ = _HOOK_SERIES[key]
    out = BivariateSeries(order, [TruncatedSeries.one(order)])
    for factor in _part_factors(class_id, key[2], order):
        out.imul_factor(*factor)
    return out


def bivariate_R(j: int, t: int, order: int) -> BivariateSeries:
    """Bivariate refinement sum_lambda x^(statistic) q^|lambda| over the
    Rogers-Ramanujan class pair; statistics as in :func:`series_S`."""
    return _build_bivariate(_checked_key("bivariate_R", "S", j, t), order)


def bivariate_G(j: int, t: int, order: int) -> BivariateSeries:
    """Bivariate refinement over the little Gollnitz class pair; statistics
    as in :func:`series_H`.  In the mod-8 class two adjacent values merge a
    pair of their 2-hooks when both occur, which :func:`_pair_factor`
    encodes."""
    return _build_bivariate(_checked_key("bivariate_G", "H", j, t), order)


# --------------------------------------------------------------------------
# sum-product identity checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of a coefficientwise sum-side vs product-side comparison."""

    which: str
    order: int
    ok: bool
    first_mismatch: int | None = None
    sum_value: int | None = None
    product_value: int | None = None

    def __str__(self) -> str:
        if self.ok:
            return f"{self.which}: sum and product sides agree to order {self.order}"
        return (
            f"{self.which}: first mismatch at q^{self.first_mismatch}: "
            f"sum side {self.sum_value}, product side {self.product_value}"
        )


def identity_check_sum_product(which: str, order: int) -> IdentityCheck:
    """Verify a sum-product identity coefficientwise to the given order.

    ``which`` is ``"RR1"`` (first Rogers-Ramanujan identity,
    sum q^(n^2)/(q;q)_n = 1/(q,q^4;q^5)_inf) or ``"LG1"`` (first little
    Gollnitz identity, sum q^(n^2+n)(-1/q;q^2)_n/(q^2;q^2)_n =
    1/(q,q^5,q^6;q^8)_inf).  Both sides are computed here, unmemoized and
    independently: the sum side from its term stream, the product side by
    :func:`inv_pochhammer_product`.  :func:`counting_series` serves the sum
    side, so this check is what ties it to the product.
    """
    if which not in _IDENTITIES:
        raise ValueError(f"unknown identity {which!r} (expected 'RR1' or 'LG1')")
    stream, cong = _IDENTITIES[which]
    lhs = _nahm_sum([(stream, 0, 1)], order)
    rhs = inv_pochhammer_product(*RESIDUE_CLASSES[cong], order)
    for n in range(order + 1):
        if lhs.coeffs[n] != rhs.coeffs[n]:
            return IdentityCheck(which, order, False, n, lhs.coeffs[n], rhs.coeffs[n])
    return IdentityCheck(which, order, True)
