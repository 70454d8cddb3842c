"""Exact truncated formal series in a fractional power of q.

A :class:`FormalSeries` carries coefficients on the lattice of exponents
``k / denom`` together with an explicit truncation bound.  Coefficients
are exact rationals with one representation, decided here: a Python
``int`` when the value is an integer and a ``Fraction`` only when it is
not; a ``float`` is refused.  A request for a coefficient beyond the
provable truncation raises :class:`TruncationError` instead of silently
returning zero.  The truncation bound shrinks conservatively under
arithmetic (min rule for addition, product rule for multiplication).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import floor, gcd, lcm
from operator import add, sub
from typing import Iterable, Sequence, Tuple, Union

from ._backend import convolve, divide, reciprocal

# perfbench/run.py records these two names in every run record
COEFF_BACKEND = "fractions"
Rational = Fraction

RationalLike = Union[int, str, Fraction]


class SeriesError(ValueError):
    pass


class TruncationError(SeriesError):
    """A coefficient beyond the provable truncation order was requested."""


def _frac(x) -> Fraction:
    """Exact rational from an int, Fraction or decimal/ratio string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not an exact rational")
    return Fraction(x)


def _coeff(x):
    """The coefficient representation: int if integral, else Fraction."""
    if type(x) is int:
        return x
    x = _frac(x)
    return x.numerator if x.denominator == 1 else x


class FormalSeries:
    """Truncated series ``sum c_k q^((lead+k)/denom)``.

    Exponent numerators run over ``lead .. lead+len(coeffs)-1``; every
    lattice exponent up to the truncation ``(lead+len(coeffs)-1)/denom``
    is known exactly (including known zeros).  The canonical zero series
    has empty ``coeffs`` and ``lead = trunc_num + 1`` on the lattice of
    its truncation's reduced denominator.
    """

    __slots__ = ("denom", "lead", "coeffs")

    def __init__(self, denom: int, lead: int, coeffs: Sequence):
        if denom <= 0:
            raise SeriesError("denom must be positive")
        coeffs = [c if type(c) is int else _coeff(c) for c in coeffs]
        # strip leading zeros so that coeffs[0] != 0 for nonzero series
        k = 0
        while k < len(coeffs) and not coeffs[k]:
            k += 1
        lead += k
        coeffs = coeffs[k:]
        if not coeffs:
            # canonical zero: remember only the truncation
            self.denom = denom
            self.lead = lead
            self.coeffs = ()
            self._reduce_zero()
            return
        self.denom = denom
        self.lead = lead
        self.coeffs = tuple(coeffs)
        self._reduce()

    # -- canonical form -------------------------------------------------

    def _reduce(self):
        """Shrink denom so the lattice is minimal for the actual support."""
        g = self.denom
        for i, c in enumerate(self.coeffs):
            if c:
                g = gcd(g, abs(self.lead + i))
                if g == 1:
                    return
        if g == 1:
            return
        trunc = self.lead + len(self.coeffs) - 1
        new_lead = self.lead // g
        new_trunc = trunc // g  # conservative floor onto the coarse lattice
        new = [0] * (new_trunc - new_lead + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                new[(self.lead + i) // g - new_lead] = c
        self.denom //= g
        self.lead = new_lead
        self.coeffs = tuple(new)

    def _reduce_zero(self):
        trunc = Fraction(self.lead - 1, self.denom)
        self.denom = trunc.denominator
        self.lead = trunc.numerator + 1

    # -- basic queries --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def order(self) -> int:
        """Relative truncation order N (coeffs are c_0..c_N)."""
        return len(self.coeffs) - 1

    @property
    def trunc(self) -> Fraction:
        """Highest exponent whose coefficient is known."""
        return Fraction(self.lead + len(self.coeffs) - 1, self.denom)

    @property
    def lead_exponent(self) -> Fraction:
        if self.is_zero:
            raise SeriesError("zero series has no leading exponent")
        return Fraction(self.lead, self.denom)

    def coeff(self, exponent: RationalLike):
        """Exact coefficient at ``exponent``; TruncationError beyond trunc."""
        e = _frac(exponent)
        if e > self.trunc:
            raise TruncationError(
                f"coefficient at {e} beyond truncation {self.trunc}")
        num = e * self.denom
        if num.denominator != 1:
            return 0
        i = int(num) - self.lead
        if i < 0 or i >= len(self.coeffs):
            return 0
        return self.coeffs[i]

    def terms(self) -> Iterable[Tuple[Fraction, object]]:
        """(exponent, coefficient) pairs with nonzero coefficient."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield Fraction(self.lead + i, self.denom), c

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return (self.denom == other.denom and self.lead == other.lead
                and list(self.coeffs) == list(other.coeffs))

    def __hash__(self):
        return hash((self.denom, self.lead, tuple(self.coeffs)))

    # -- rendering ------------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return f"0 + O(q^({self.lead}/{self.denom}))"
        body = _signed_sum((c, f"q^({i}/{self.denom})" if i else "")
                           for i, c in enumerate(self.coeffs))
        head = f"q^({self.lead}/{self.denom}) * ({body})"
        tail = f"O(q^({self.lead + len(self.coeffs)}/{self.denom}))"
        return f"{head} + {tail}"

    def __repr__(self):
        return (f"FormalSeries(denom={self.denom}, lead={self.lead}, "
                f"order={self.order})")

    # -- lattice helpers ------------------------------------------------

    def rebased(self, denom: int) -> "FormalSeries":
        """Exact copy on the finer lattice ``denom`` (a multiple of ours)."""
        if denom == self.denom:
            return self
        if denom % self.denom:
            raise SeriesError(f"{denom} is not a multiple of {self.denom}")
        m = denom // self.denom
        if self.is_zero:
            out = FormalSeries.__new__(FormalSeries)
            out.denom = denom
            out.lead = (self.lead - 1) * m + 1  # trunc scales exactly
            out.coeffs = ()
            return out
        n = (len(self.coeffs) - 1) * m + 1
        new = [0] * n
        for i, c in enumerate(self.coeffs):
            new[i * m] = c
        out = FormalSeries.__new__(FormalSeries)
        out.denom = denom
        out.lead = self.lead * m
        out.coeffs = tuple(new)
        return out

    def _aligned(self, other: "FormalSeries"):
        d = self.denom * other.denom // gcd(self.denom, other.denom)
        return self.rebased(d), other.rebased(d), d

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _as_series(other, like=self)
        a, b, d = self._aligned(other)
        ta = a.lead + len(a.coeffs) - 1
        tb = b.lead + len(b.coeffs) - 1
        trunc = min(ta, tb)
        lead = min(a.lead if a.coeffs else trunc + 1,
                   b.lead if b.coeffs else trunc + 1)
        n = trunc - lead + 1
        if n <= 0:
            return FormalSeries(d, trunc + 1, ())
        out = [0] * n
        for x in (a, b):
            j = x.lead - lead
            m = min(len(x.coeffs), n - j)
            out[j:j + m] = map(add, out[j:j + m], x.coeffs[:m])
        return FormalSeries(d, lead, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        out = FormalSeries.__new__(FormalSeries)
        out.denom = self.denom
        out.lead = self.lead
        out.coeffs = tuple(-c for c in self.coeffs)
        return out

    def __sub__(self, other):
        return self + (-_as_series(other, like=self))

    def __rsub__(self, other):
        return _as_series(other, like=self) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FormalSeries(self.denom, self.lead,
                                [other * x for x in self.coeffs])
        other = _as_series(other, like=self)
        a, b, d = self._aligned(other)
        if a.is_zero or b.is_zero:
            # zero to the best provable order
            return FormalSeries(d, a.lead + b.lead, ())
        n = min(len(a.coeffs), len(b.coeffs))
        out = convolve(a.coeffs, b.coeffs, n)
        return FormalSeries(d, a.lead + b.lead, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / _frac(other))
        other = _as_series(other, like=self)
        if other.is_zero:
            raise SeriesError("division by zero series")
        a, b, d = self._aligned(other)
        n = min(len(a.coeffs), len(b.coeffs))
        return FormalSeries(d, a.lead - b.lead, divide(a.coeffs, b.coeffs, n))

    def __rtruediv__(self, other):
        return _as_series(other, like=self) / self

    def inverse(self) -> "FormalSeries":
        if self.is_zero:
            raise SeriesError("division by zero series")
        inv = reciprocal(self.coeffs, len(self.coeffs))
        return FormalSeries(self.denom, -self.lead, inv)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise SeriesError("pow exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            # known as far as s**k * s**-k: the relative order of s
            if self.is_zero:
                return constant(1, self.trunc)
            return constant(1, self.trunc - self.lead_exponent)
        base = self
        result = None
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- structural operations ------------------------------------------

    def substitute_power(self, m: RationalLike) -> "FormalSeries":
        """Replace q by q**m (m a positive rational); exact."""
        m = _frac(m)
        if m <= 0:
            raise SeriesError("substitution power must be positive")
        d = self.denom * m.denominator
        step = m.numerator
        if self.is_zero:
            # O(q^L) becomes O(q^(L*m)) exactly, so that substitution
            # commutes with multiplication of zero series
            return FormalSeries(d, self.lead * step, ())
        n = (len(self.coeffs) - 1) * step + 1
        new = [0] * n
        for i, c in enumerate(self.coeffs):
            new[i * step] = c
        return FormalSeries(d, self.lead * step, new)

    def shifted(self, e: RationalLike) -> "FormalSeries":
        """Multiply by q^e exactly; the truncation moves with the terms."""
        e = _frac(e)
        s = self.rebased(lcm(self.denom, e.denominator))
        return FormalSeries(s.denom, s.lead + int(e * s.denom), s.coeffs)

    def q_derivative(self) -> "FormalSeries":
        """The theta operator q*d/dq: c*q^e -> c*e*q^e."""
        out = [c * Fraction(self.lead + i, self.denom) if c else c
               for i, c in enumerate(self.coeffs)]
        return FormalSeries(self.denom, self.lead, out)

    def truncated(self, order: RationalLike) -> "FormalSeries":
        """Forget coefficients beyond ``order`` (shrinks the truncation)."""
        bound = _frac(order)
        if bound >= self.trunc:
            return self
        t = (bound.numerator * self.denom) // bound.denominator
        n = t - self.lead + 1
        if n <= 0:
            return FormalSeries(self.denom, t + 1, ())
        return FormalSeries(self.denom, self.lead, list(self.coeffs[:n]))


def _signed_sum(pairs) -> str:
    """``c1*m1 + c2*m2 - ...`` from (coefficient, monomial text) pairs.

    Zero terms are skipped, a unit coefficient is not printed, and the
    monomial 1 is the empty text, which prints the coefficient alone.
    """
    parts = []
    for c, mono in pairs:
        if not c:
            continue
        mag = abs(c)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + body)
    return " ".join(parts)


def _as_series(x, like: FormalSeries) -> FormalSeries:
    if isinstance(x, FormalSeries):
        return x
    # constant known to the same absolute truncation as ``like``
    trunc = max(like.lead + len(like.coeffs) - 1, 0)
    out = [0] * (trunc + 1)
    out[0] = x
    return FormalSeries(like.denom, 0, out)


# -- public constructors ------------------------------------------------

def make_series(terms, order: RationalLike) -> FormalSeries:
    """Series from (exponent, coefficient) pairs, truncated at ``order``.

    Exponents must be distinct and not exceed ``order``.
    """
    order = _frac(order)
    pairs = [(_frac(e), _coeff(c)) for e, c in terms]
    exps = [e for e, _ in pairs]
    if len(set(exps)) != len(exps):
        raise SeriesError("duplicate exponents")
    if any(e > order for e in exps):
        raise SeriesError("exponent beyond requested order")
    if not pairs:
        return zero(order)
    d = 1
    for e in exps + [order]:
        d = d * e.denominator // gcd(d, e.denominator)
    trunc = (order.numerator * d) // order.denominator
    lead = min(int(e * d) for e in exps)
    out = [0] * (trunc - lead + 1)
    for e, c in pairs:
        out[int(e * d) - lead] += c
    return FormalSeries(d, lead, out)


def constant(value, order: RationalLike) -> FormalSeries:
    return make_series([(0, value)], order) if _coeff(value) else zero(order)


def zero(order: RationalLike) -> FormalSeries:
    order = _frac(order)
    d = order.denominator
    return FormalSeries(d, order.numerator + 1, ())


def _pochhammer_product(starts, p: Fraction, order) -> FormalSeries:
    """prod over a in ``starts`` of (q^a; q^p)_inf, exact to floor(order)."""
    d = lcm(p.denominator, *(a.denominator for a in starts))
    n = _whole_steps(order, d)
    mult = Counter(e for a in starts
                   for e in range(int(a * d), n + 1, int(p * d)))
    return FormalSeries(d, 0, _euler_product(mult, n))


def _euler_product(mult, n: int) -> list:
    """``int`` coefficients at 0..n of prod_e (1 - q^e)^mult[e].

    Each factor is one in-place pass over a single coefficient list, so
    no factor costs a convolution.  Multiplying by (1 - q^e) is the
    descending pass c_k <- c_k - c_(k-e); dividing by it is the ascending
    pass c_k <- c_k + c_(k-e), a running sum along each residue class.
    """
    out = [1] + [0] * n
    for e, k in mult.items():
        for _ in range(k):
            # the slice assignment consumes the map before it writes
            out[e:] = map(sub, out[e:], out)
        for _ in range(-k):
            for i in range(e, n + 1):
                out[i] += out[i - e]
    return out


def _whole_steps(order, d: int) -> int:
    """Steps of 1/d up to the last whole power of q at or below ``order``.

    This is how far a product built up from ``constant(1, order)`` is
    known, because the constant 1 sits on the integer lattice.
    """
    order = _frac(order)
    if order < 0:
        raise SeriesError("exponent beyond requested order")
    return floor(order) * d
