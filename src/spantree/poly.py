"""Sparse multivariate polynomials with arbitrary-precision integer
coefficients.

Terms map exponent tuples (one entry per variable) to nonzero coefficients.
Display and leading-term selection use graded lexicographic order: higher
total degree first, then lexicographically larger exponent tuple, so output
is stable across runs.
"""

from __future__ import annotations

from operator import add, sub
from typing import Iterable, Mapping, Sequence

from .errors import ExactnessError

ExponentVector = tuple[int, ...]


def _order_key(exps: ExponentVector) -> tuple[int, ExponentVector]:
    return (sum(exps), exps)


class MultiPoly:
    """A polynomial in variables x1..xn over the integers."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[ExponentVector, int] | None = None):
        if nvars < 0:
            raise ValueError(f"variable count must be nonnegative, got {nvars}")
        self.nvars = nvars
        clean: dict[ExponentVector, int] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff:
                clean[exps] = coeff
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        """The variable x_i (1-based)."""
        if not (1 <= i <= nvars):
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[i - 1] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff: int = 1) -> "MultiPoly":
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def _of(cls, nvars: int, terms: dict[ExponentVector, int]) -> "MultiPoly":
        """Result of a ring operation: the exponent tuples are already valid,
        only zero coefficients are dropped."""
        p = object.__new__(cls)
        p.nvars = nvars
        p._terms = {e: c for e, c in terms.items() if c}
        return p

    def _coerce(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError(
                    f"variable counts differ: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, int):
            return MultiPoly.const(self.nvars, other)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return MultiPoly._of(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[ExponentVector, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(map(add, e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return MultiPoly._of(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if exponent < 0:
            raise ValueError(f"exponent must be nonnegative, got {exponent}")
        result = MultiPoly.const(self.nvars, 1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def exact_div(self, other: "MultiPoly | int") -> "MultiPoly":
        """Quotient self / other when the division is exact; otherwise raise
        ExactnessError.

        Single-divisor division: repeatedly cancel the leading term.  Over an
        integral domain the leading term of a product is the product of the
        leading terms, so the quotient is reconstructed term by term and any
        failure to divide (monomial or coefficient) proves inexactness.
        """
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return MultiPoly.zero(self.nvars)
        lead_e, lead_c = other._leading_term()
        rem = dict(self._terms)
        quot: dict[ExponentVector, int] = {}
        while rem:
            r_e = max(rem, key=_order_key)
            r_c = rem[r_e]
            t_e = tuple(map(sub, r_e, lead_e))
            if any(e < 0 for e in t_e) or r_c % lead_c:
                raise ExactnessError("polynomial division left a remainder")
            t_c = r_c // lead_c
            quot[t_e] = quot.get(t_e, 0) + t_c
            for e2, c2 in other._terms.items():
                key = tuple(map(add, t_e, e2))
                new = rem.get(key, 0) - t_c * c2
                if new:
                    rem[key] = new
                else:
                    rem.pop(key, None)
        return MultiPoly._of(self.nvars, quot)

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def _leading_term(self) -> tuple[ExponentVector, int]:
        exps = max(self._terms, key=_order_key)
        return exps, self._terms[exps]

    def terms(self) -> tuple[tuple[ExponentVector, int], ...]:
        """Terms in graded-lex descending order."""
        return tuple(
            (e, self._terms[e])
            for e in sorted(self._terms, key=_order_key, reverse=True)
        )

    def total_degree(self) -> int:
        if self.is_zero():
            return 0
        return max(sum(e) for e in self._terms)

    def coefficient(self, exps: Sequence[int]) -> int:
        return self._terms.get(tuple(exps), 0)

    def substitute_all_ones(self) -> int:
        """Value at x1 = x2 = ... = 1, i.e. the sum of the coefficients."""
        return sum(self._terms.values())

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        pieces: list[str] = []
        for exps, coeff in self.terms():
            factors = [
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(exps, 1)
                if e
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self._terms!r})"


def poly_sum(nvars: int, polys: Iterable[MultiPoly | int]) -> MultiPoly:
    total = MultiPoly.zero(nvars)
    for p in polys:
        total = total + p
    return total


def poly_prod(nvars: int, polys: Iterable[MultiPoly | int]) -> MultiPoly:
    total = MultiPoly.const(nvars, 1)
    for p in polys:
        total = total * p
    return total
