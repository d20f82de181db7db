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

and the matching bivariate refinements sum_lambda x^(statistic) q^|lambda|
are built from the same primitives.

:func:`counting_series` is the Nahm (sum) side of each pair's first
identity; the product side, :func:`inv_pochhammer_product`, is kept as its
oracle and is what :func:`identity_check_sum_product` compares it with.

The eight series and the two class counting series are memoized per
process.  Each of those ten keys holds the series built at the highest
order requested so far: a request at or below that order is served by
truncation, one above it rebuilds the entry.  The key set is fixed, so the
memo never holds more than ten entries whatever the input.
Every call returns a fresh :class:`TruncatedSeries`, which the caller may
mutate without touching the memo.  :func:`inv_pochhammer_product` and the
bivariate builders are not memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import add, mul

from .classes import ClassId


class OrderMismatchError(ValueError):
    """Two series of different truncation orders were combined."""


class NegativeExponentError(ValueError):
    """A series term was given a negative exponent."""


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

    @classmethod
    def from_terms(cls, order: int, terms: dict, *, clip: bool = False) -> "TruncatedSeries":
        """Series from {exponent: coefficient}; exponents above order are an
        error unless ``clip`` is set (they then truncate away silently)."""
        s = cls(order)
        for e, c in terms.items():
            if e < 0:
                raise NegativeExponentError(f"exponent {e} < 0")
            if e > order:
                if clip:
                    continue
                raise ValueError(f"exponent {e} exceeds order {order}")
            s.coeffs[e] += c
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


def counting_series(class_id: ClassId, order: int) -> TruncatedSeries:
    """Partition-count series of a class, built as the Nahm sum of its
    pair's identity: sum q^(n^2)/(q;q)_n for R1 and R2, and
    sum q^(n^2+n)(-1/q;q^2)_n/(q^2;q^2)_n for G1 and G2.  Both classes of a
    pair are equinumerous, so they share one series.

    :func:`identity_check_sum_product` compares these sums with the product
    side.  Memoized per process (one entry per pair); a fresh series is
    returned on every call."""
    if class_id in (ClassId.R1, ClassId.R2):
        key, stream = ((1, 4), 5), _rr_terms
    else:
        key, stream = ((1, 5, 6), 8), _lg_terms
    return _memoized(key, order, lambda n: _nahm_sum(stream, n))


def _nahm_sum(stream, order: int) -> TruncatedSeries:
    """Sum of the terms of a Nahm-sum term stream, to the given order."""
    acc = TruncatedSeries.zero(order)
    for _, term in stream(order):
        acc.iadd_scaled(term)
    return acc


def _monomial(exp: int, order: int) -> TruncatedSeries:
    return TruncatedSeries.from_terms(order, {exp: 1}, clip=True)


# --------------------------------------------------------------------------
# Nahm-sum term streams
# --------------------------------------------------------------------------


def _rr_terms(order: int):
    """(n, q^(n^2)/(q;q)_n) for n = 0, 1, ... while n^2 <= order."""
    term = TruncatedSeries.one(order)
    yield 0, term.copy()
    n = 1
    while n * n <= order:
        term = term.shifted(2 * n - 1).imul_geometric(n)
        yield n, term.copy()
        n += 1


def _rr_shifted_terms(order: int):
    """(n, q^(n^2)/(q;q)_(n-1)) for n = 1, 2, ... while n^2 <= order."""
    if order < 1:
        return
    term = _monomial(1, order)
    yield 1, term.copy()
    n = 2
    while n * n <= order:
        term = term.shifted(2 * n - 1)
        term.imul_geometric(n - 1)
        yield n, term.copy()
        n += 1


def _rr_second_terms(order: int):
    """(n, q^(n^2+n)/(q;q)_n) for n = 0, 1, ... while n^2 + n <= order."""
    term = TruncatedSeries.one(order)
    yield 0, term.copy()
    n = 1
    while n * n + n <= order:
        term = term.shifted(2 * n).imul_geometric(n)
        yield n, term.copy()
        n += 1


def _lg_terms(order: int):
    """(n, q^(n^2+n) (-1/q;q^2)_n / (q^2;q^2)_n) while n^2 + n - 1 <= order.

    For n >= 1, (-1/q;q^2)_n = q^(-1) (1+q) (-q;q^2)_(n-1), so the term is
    q^(n^2+n-1) (1+q) (-q;q^2)_(n-1) / (q^2;q^2)_n: no negative exponent."""
    yield 0, TruncatedSeries.one(order)
    if order < 1:
        return
    term = _monomial(1, order).imul_one_plus(1).imul_geometric(2)
    n = 1
    while n * n + n - 1 <= order:
        if n > 1:
            term = term.shifted(2 * n)
            term.imul_one_plus(2 * n - 3)
            term.imul_geometric(2 * n)
        yield n, term.copy()
        n += 1


def _lg12_terms(order: int):
    """(n, q^(n^2+n) (-q;q^2)_(n+1) / (q^2;q^2)_n) while n^2 + n - 1 <= order.

    The n = 0 term is (-q;q^2)_1 = 1 + q, not 1."""
    zeroth = TruncatedSeries.one(order)
    if order >= 1:
        zeroth.imul_one_plus(1)
    yield 0, zeroth
    if order < 2:
        return
    term = _monomial(2, order).imul_one_plus(1).imul_one_plus(3).imul_geometric(2)
    n = 1
    while n * n + n - 1 <= order:
        if n > 1:
            term = term.shifted(2 * n)
            term.imul_one_plus(2 * n + 1)
            term.imul_geometric(2 * n)
        yield n, term.copy()
        n += 1


# --------------------------------------------------------------------------
# the eight hook generating functions
# --------------------------------------------------------------------------


def series_S(j: int, t: int, order: int) -> TruncatedSeries:
    """Generating function of the t-hook counts of the Rogers-Ramanujan
    class pair: j = 1 the gap-2 class, j = 2 the mod-5 class; t in {1, 2}.

    Memoized per process (see the module docstring): a request at or below
    the highest order built so far is served by truncation, and a fresh
    series is returned on every call."""
    if (j, t) not in {(1, 1), (1, 2), (2, 1), (2, 2)}:
        raise ValueError(f"series_S undefined for (j, t) = ({j}, {t})")
    return _memoized(("S", j, t), order, lambda n: _build_S(j, t, n))


def _build_S(j: int, t: int, order: int) -> TruncatedSeries:
    if j == 1:
        acc = TruncatedSeries.zero(order)
        for n, term in _rr_terms(order):
            if n:
                acc.iadd_scaled(term, n)
        if t == 1:
            return acc
        for _, term in _rr_shifted_terms(order):
            acc.iadd_scaled(term, -1)
        return acc
    prod = counting_series(ClassId.R2, order)
    if t == 1:
        return apply_rational(prod, [(1, 1), (4, 1)], 5)
    return apply_rational(prod, [(4, 1), (6, 1)], 5).iadd_scaled(
        apply_rational(prod, [(2, 1), (8, 1)], 10)
    )


def series_H(j: int, t: int, order: int) -> TruncatedSeries:
    """Generating function of the t-hook counts of the little Gollnitz class
    pair: j = 1 the gap class, j = 2 the mod-8 class; t in {1, 2}.

    Memoized per process like :func:`series_S`."""
    if (j, t) not in {(1, 1), (1, 2), (2, 1), (2, 2)}:
        raise ValueError(f"series_H undefined for (j, t) = ({j}, {t})")
    return _memoized(("H", j, t), order, lambda n: _build_H(j, t, n))


def _build_H(j: int, t: int, order: int) -> TruncatedSeries:
    if j == 1:
        acc = TruncatedSeries.zero(order)
        stream = _lg_terms(order) if t == 1 else _lg12_terms(order)
        for n, term in stream:
            if n:
                acc.iadd_scaled(term, n)
        return acc
    prod = counting_series(ClassId.G2, order)
    if t == 1:
        return apply_rational(prod, [(1, 1), (5, 1), (6, 1)], 8)
    return apply_rational(prod, [(5, 1), (6, 1), (9, 1)], 8).iadd_scaled(
        apply_rational(prod, [(2, 1), (10, 1), (11, -1), (12, 1)], 16)
    )


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


def _g2_pair_factor(a: int):
    """Parts a and b = a + 1 of the mod-8 class together: each absent or
    alone as in the two-part factor, or both present, which merges one pair
    of their 2-hooks into the cross term x q^s (1 - (1-x) q^a)/(1 - q^a)
    (1 - (1-x) q^b)/(1 - q^b), s = a + b; over (1 - q^a)(1 - q^b)."""
    b, s = a + 1, 2 * a + 1
    den = [(0, 1), (a, -1), (b, -1), (s, 1)]
    return {
        0: den,
        1: [(e + f, sign) for e in (a, b, s) for f, sign in den],
        2: [(2 * a, 1), (2 * b, 1), (2 * s, -2)],
        3: [(2 * s, 1)],
    }, [a, b]


def bivariate_R(j: int, t: int, order: int) -> BivariateSeries:
    """Bivariate refinement sum_lambda x^(statistic) q^|lambda| over the
    Rogers-Ramanujan class pair; statistics as in :func:`series_S`."""
    if (j, t) not in {(1, 1), (1, 2), (2, 1), (2, 2)}:
        raise ValueError(f"bivariate_R undefined for (j, t) = ({j}, {t})")
    if j == 1:
        if t == 1:
            return BivariateSeries.from_rows(order, _rr_terms(order))
        shifted = ((n - 1, term) for n, term in _rr_shifted_terms(order))
        return BivariateSeries.from_rows(order, chain(shifted, _rr_second_terms(order)))
    out = BivariateSeries(order, [TruncatedSeries.one(order)])
    if t == 1:
        for e in range(1, order + 1):
            if e % 5 in (1, 4):
                out.imul_factor(*_one_part_factor(e))
        return out
    out.imul_factor(*_part_one_factor())
    for e in range(2, order + 1):
        if e % 5 in (1, 4):
            out.imul_factor(*_two_part_factor(e))
    return out


def bivariate_G(j: int, t: int, order: int) -> BivariateSeries:
    """Bivariate refinement over the little Gollnitz class pair.

    The mod-8 two-hook table couples each residue pair (8m+5, 8m+6): both
    values present merge their corner contributions, which the pair factor
    encodes with the cross term x q^(16m+11) (1-(1-x)q^(8m+5))/(1-q^(8m+5))
    (1-(1-x)q^(8m+6))/(1-q^(8m+6)).
    """
    if (j, t) not in {(1, 1), (1, 2), (2, 1), (2, 2)}:
        raise ValueError(f"bivariate_G undefined for (j, t) = ({j}, {t})")
    if j == 1:
        stream = _lg_terms(order) if t == 1 else _lg12_terms(order)
        return BivariateSeries.from_rows(order, stream)
    out = BivariateSeries(order, [TruncatedSeries.one(order)])
    if t == 1:
        for e in range(1, order + 1):
            if e % 8 in (1, 5, 6):
                out.imul_factor(*_one_part_factor(e))
        return out
    out.imul_factor(*_part_one_factor())
    for e in range(9, order + 1, 8):
        out.imul_factor(*_two_part_factor(e))
    for a in range(5, order + 1, 8):
        out.imul_factor(*_g2_pair_factor(a))
    return out


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
    if which == "RR1":
        lhs = _nahm_sum(_rr_terms, order)
        rhs = inv_pochhammer_product((1, 4), 5, order)
    elif which == "LG1":
        lhs = _nahm_sum(_lg_terms, order)
        rhs = inv_pochhammer_product((1, 5, 6), 8, order)
    else:
        raise ValueError(f"unknown identity {which!r} (expected 'RR1' or 'LG1')")
    for n in range(order + 1):
        if lhs.coeffs[n] != rhs.coeffs[n]:
            return IdentityCheck(which, order, False, n, lhs.coeffs[n], rhs.coeffs[n])
    return IdentityCheck(which, order, True)
