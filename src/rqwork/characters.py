"""Period-p characters, divisor sums tau, and the tau-relation scanner.

The character assigns +1 to the residues a and p-a, -1 to b and p-b, and
0 elsewhere; tau(n) is the divisor sum of X(d)*d.  The scanner looks for
rational vectors c with sum_j c[j] tau(j n) = 0 for all sampled n, the
machine version of solving that linear system over a table of tau values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional

from .errors import EngineError
from .linalg import _annihilates, nullspace_rational
from .series import _frac, _signed_sum

TAU_REVERIFY_FACTOR = 4


class SpecError(EngineError):
    pass


@dataclass(frozen=True)
class RQSpec:
    """The triple (a, b, p) of positive rationals defining a quantity.

    The derived exponent Q = -(a-b)/2 + (a^2-b^2)/(2p) is the power of q
    in front of the agile quotient; the sign convention is pinned so that
    the (1,2,5) spec gives the classical q^(1/5) prefactor.
    """

    a: Fraction
    b: Fraction
    p: Fraction

    def __init__(self, a, b, p):
        a, b, p = _frac(a), _frac(b), _frac(p)
        if a <= 0 or b <= 0 or p <= 0:
            raise SpecError("spec entries must be positive")
        if a == b:
            raise SpecError("degenerate spec a == b (quantity is constant 1)")
        if a >= p or b >= p:
            raise SpecError("spec requires a < p and b < p")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "p", p)

    @cached_property
    def Q(self) -> Fraction:
        return -(self.a - self.b) / 2 + (self.a ** 2 - self.b ** 2) / (2 * self.p)

    @property
    def is_integer(self) -> bool:
        return all(x.denominator == 1 for x in (self.a, self.b, self.p))

    def as_ints(self):
        if not self.is_integer:
            raise SpecError(f"integer spec required, got {self}")
        return int(self.a), int(self.b), int(self.p)

    def __str__(self):
        return f"({self.a},{self.b},{self.p})"

    @classmethod
    def parse(cls, text: str) -> "RQSpec":
        parts = text.split(",")
        if len(parts) != 3:
            raise SpecError(f"spec must be 'a,b,p', got {text!r}")
        return cls(*(Fraction(part.strip()) for part in parts))


def _residues(spec: RQSpec):
    a, b, p = spec.as_ints()
    plus = {a % p, (p - a) % p}
    minus = {b % p, (p - b) % p}
    clash = plus & minus
    if clash:
        raise SpecError(
            f"character residues collide mod {p}: {sorted(clash)} appear with "
            f"both signs for spec {spec}")
    # a == p-a (or b == p-b) mod p is allowed and counts once, matching the
    # piecewise definition of the character.
    return plus, minus, p


@dataclass
class TauTable:
    """Character values and divisor sums tau(n) for an integer spec.

    ``fill(n_max)`` sieves tau into the list ``values`` (``values[n]`` is
    tau(n) for n <= n_max); every reader of tau reads that list.
    """

    spec: RQSpec
    chi_row: tuple = field(init=False, repr=False)
    values: List[int] = field(init=False, default_factory=list, repr=False)

    def __post_init__(self):
        plus, minus, p = _residues(self.spec)
        row = [0] * p
        for r in plus:
            row[r] = 1
        for r in minus:
            row[r] = -1
        self.chi_row = tuple(row)

    def chi(self, n: int) -> int:
        p = len(self.chi_row)
        return self.chi_row[n % p]

    def fill(self, n_max: int):
        """Sieve tau to n_max, one pass per divisor d with chi(d) != 0."""
        totals = [0] * (n_max + 1)
        row, p = self.chi_row, len(self.chi_row)
        for r, x in enumerate(row):
            if not x:
                continue
            # the divisors d = r (mod p), where chi(d) = x
            for d in range(r or p, n_max + 1, p):
                step = x * d
                for m in range(d, n_max + 1, d):
                    totals[m] += step
        self.values = totals
        return self


@dataclass
class TauRelation:
    """One empirically mined relation sum_j coeffs[j-1] * tau(j n) = 0."""

    spec: RQSpec
    J: int
    n_max: int
    coeffs: List[int]
    status: str  # "empirical" or "re-verified"

    def __str__(self):
        return _signed_sum(
            (c, f"tau({j}n)" if j > 1 else "tau(n)")
            for j, c in enumerate(self.coeffs, start=1)) + " = 0"

    def to_json(self) -> dict:
        return {
            "spec": str(self.spec),
            "J": self.J,
            "n_max": self.n_max,
            "coeffs": self.coeffs,
            "status": self.status,
        }


def tau_relation_scan(spec: RQSpec, J: int, n_max: int) -> List[TauRelation]:
    """Mine a basis of empirically valid tau relations up to multiplier J.

    Solves sum_{j<=J} c[j] tau(j n) = 0 over n <= n_max exactly, then
    re-checks every basis vector on n_max < n <= hi, with
    hi = TAU_REVERIFY_FACTOR*max(n_max, J), so that the window holds
    multiples of every prime j <= J.  One sieve to J*hi serves both the
    matrix and the window.  The matrix has n_max rows but rank at most J;
    ``nullspace_rational`` eliminates only as many leading rows as the
    rank needs and checks its basis on the rest.  The window, one column
    per multiplier j, gets the solver's own exact check
    ``linalg._annihilates``.  Returned vectors are primitive integers
    with positive leading entry.
    """
    hi = TAU_REVERIFY_FACTOR * max(n_max, J)
    values = TauTable(spec).fill(J * hi).values
    # row n holds tau(n), tau(2n), ..., tau(J n)
    basis = nullspace_rational(
        [values[n:J * n + 1:n] for n in range(1, n_max + 1)])
    # column j - 1 holds tau(j n) for n_max < n <= hi
    window = [values[j * (n_max + 1):j * hi + 1:j] for j in range(1, J + 1)]
    return [TauRelation(spec, J, n_max, list(vec),
                        "re-verified" if _annihilates(window, vec)
                        else "empirical")
            for vec in basis]


@dataclass
class DivisorCombination:
    """X written as an integer combination of divisibility indicators.

    ``coeffs[d]`` multiplies the indicator of d | n; the matching product
    representation is prod_d f(-q^d)**coeffs[d].
    """

    spec: RQSpec
    modulus: int
    coeffs: Dict[int, int]

    def eta_exponents(self) -> Dict[int, int]:
        return {d: c for d, c in self.coeffs.items() if c}


def _divisors(n: int) -> List[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def decompose_character(spec: RQSpec, G: int) -> Optional[DivisorCombination]:
    """Write X as sum over d | G of b_d * [d divides n], if possible.

    The equations at n = d for the divisors d of G determine the b_d by
    the recursion b_d = X(d) - sum_{e | d, e < d} b_e; the result is
    checked back on the full period, and characters that are genuine
    Legendre-type twists (for example (1,3,5)) admit no such combination
    and yield None.
    """
    a, b, p = spec.as_ints()
    if p != G:
        raise SpecError(f"period mismatch: spec has p={p}, requested G={G}")
    table = TauTable(spec)
    combo = {}
    for d in _divisors(G):  # ascending, so every proper divisor is known
        combo[d] = table.chi(d) - sum(c for e, c in combo.items()
                                      if d % e == 0)
    for n in range(1, G + 1):
        if sum(c for d, c in combo.items() if n % d == 0) != table.chi(n):
            return None
    return DivisorCombination(spec, G, combo)
