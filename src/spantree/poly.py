"""Sparse multivariate polynomials with arbitrary-precision integer
coefficients.

Terms map exponent tuples (one entry per variable) to nonzero coefficients.
Display uses graded lexicographic order: higher total degree first, then
lexicographically larger exponent tuple, so output is stable across runs.
"""

from __future__ import annotations

from operator import add
from typing import Mapping, Sequence

from .errors import ExactnessError

ExponentVector = tuple[int, ...]


def _order_key(exps: ExponentVector) -> tuple[int, ExponentVector]:
    return (sum(exps), exps)


class MultiPoly:
    """A polynomial in variables x1..xn over the integers.

    ``+``, ``-`` and ``*`` take, on either side, a MultiPoly in the same
    variables or an int; a MultiPoly in other variables raises ValueError
    and any other operand TypeError."""

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
            if not isinstance(coeff, int) or not all(isinstance(e, int) for e in exps):
                raise ValueError(f"exponents and coefficient must be int, got {exps}: {coeff!r}")
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
        raise TypeError(f"MultiPoly operand must be a MultiPoly or an int, got {other!r}")

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = self._coerce(other)
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return MultiPoly._of(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        return self + -other

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = self._coerce(other)
        terms: dict[ExponentVector, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(map(add, e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return MultiPoly._of(self.nvars, terms)

    __rmul__ = __mul__

    def exact_div(self, divisor: int) -> "MultiPoly":
        """Quotient self / divisor, coefficient by coefficient, for a nonzero
        int divisor; ExactnessError when a coefficient leaves a remainder."""
        if not isinstance(divisor, int):
            raise TypeError(f"divisor must be int, got {divisor!r}")
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        quot = {}
        for exps, coeff in self._terms.items():
            quot[exps], r = divmod(coeff, divisor)
            if r:
                raise ExactnessError(f"coefficient {coeff} is not divisible by {divisor}")
        return MultiPoly._of(self.nvars, quot)

    def lift(self, nvars: int, labels: Sequence[int]) -> "MultiPoly":
        """The same polynomial in nvars variables, x_i renamed
        x_{labels[i-1]}; the labels must be distinct, in 1..nvars."""
        if len(labels) != self.nvars:
            raise ValueError(f"{len(labels)} labels for {self.nvars} variables")
        if len(set(labels)) != len(labels) or not all(1 <= v <= nvars for v in labels):
            raise ValueError(f"labels must be distinct and in 1..{nvars}")
        terms = {}
        for exps, coeff in self._terms.items():
            full = [0] * nvars
            for v, e in zip(labels, exps):
                full[v - 1] = e
            terms[tuple(full)] = coeff
        return MultiPoly._of(nvars, terms)

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
        if self.nvars == other.nvars:
            return self._terms == other._terms
        # each constant equals its int, so constants compare by value
        # whatever their variable counts, and equality stays transitive
        return self._is_const() and other._is_const() and (
            self.substitute_all_ones() == other.substitute_all_ones()
        )

    def __hash__(self) -> int:
        # a constant equals its int, so it hashes as that int
        if self._is_const():
            return hash(self.substitute_all_ones())
        return hash((self.nvars, frozenset(self._terms.items())))

    def _is_const(self) -> bool:
        return not any(map(any, self._terms))

    def terms(self) -> tuple[tuple[ExponentVector, int], ...]:
        """Terms in graded-lex descending order."""
        return tuple(
            (e, self._terms[e])
            for e in sorted(self._terms, key=_order_key, reverse=True)
        )

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

