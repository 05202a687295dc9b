"""Polynomial holomorphic maps and their jets.

A :class:`HoloMap` is a polynomial C^n -> C, or a quotient of two polynomials
whose denominator must not vanish at any queried point.  Jets collect the
holomorphic partials up to order 3 at a point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DenominatorVanishes, OrderUnsupported

#: hard cap on per-variable exponents; desk experiments stay far below
DEGREE_CAP = 32


def _as_point(p, n: int) -> tuple[complex, ...]:
    if np.isscalar(p):
        p = (p,)
    p = tuple(complex(v) for v in p)
    if len(p) != n:
        raise ValueError(f"point has {len(p)} coordinates, map expects {n}")
    return p


@dataclass(frozen=True)
class Polynomial:
    """Sparse multivariate polynomial: multi-index exponent -> coefficient."""

    n: int
    terms: Mapping[tuple[int, ...], complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        clean = {}
        for exp, c in self.terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for dimension {self.n}")
            if any(e > DEGREE_CAP for e in exp):
                raise ValueError(f"exponent {exp} exceeds degree cap {DEGREE_CAP}")
            c = complex(c)
            if c != 0:
                clean[exp] = clean.get(exp, 0) + c
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c != 0})

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(n: int, c: complex) -> "Polynomial":
        return Polynomial(n, {(0,) * n: complex(c)})

    # -- algebra ------------------------------------------------------------

    def __call__(self, p) -> complex:
        z = _as_point(p, self.n)
        total = 0.0 + 0.0j
        for exp, c in self.terms.items():
            m = c
            for zi, e in zip(z, exp):
                if e:
                    m *= zi**e
            total += m
        return total

    def partial(self, i: int) -> "Polynomial":
        out = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            key = tuple(new)
            out[key] = out.get(key, 0) + c * exp[i]
        return Polynomial(self.n, out)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return Polynomial(self.n, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return Polynomial(self.n, out)

    def scaled(self, c: complex) -> "Polynomial":
        return Polynomial(self.n, {e: v * c for e, v in self.terms.items()})

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"exp": list(e), "re": c.real, "im": c.imag}
                for e, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "Polynomial":
        n = int(obj["n"])
        terms = {}
        for t in obj["terms"]:
            exp = tuple(int(e) for e in t["exp"])
            terms[exp] = terms.get(exp, 0) + complex(
                float(t.get("re", 0.0)), float(t.get("im", 0.0))
            )
        return Polynomial(n, terms)


@dataclass(frozen=True)
class HoloMap:
    """Holomorphic map C^n -> C: a polynomial or a quotient of polynomials.

    Quotient denominators must not vanish at queried points; this is checked
    at every evaluation and raises :class:`DenominatorVanishes` otherwise.
    """

    num: Polynomial
    den: Polynomial | None = None

    def __post_init__(self):
        if self.den is not None and self.den.n != self.num.n:
            raise ValueError("numerator/denominator dimension mismatch")
        if self.den is not None and not self.den.terms:
            raise ValueError("denominator is identically zero")

    @property
    def n(self) -> int:
        return self.num.n

    @staticmethod
    def poly(n: int, terms: Mapping[tuple[int, ...], complex]) -> "HoloMap":
        return HoloMap(Polynomial(n, terms))

    @staticmethod
    def constant(n: int, c: complex) -> "HoloMap":
        return HoloMap(Polynomial.constant(n, c))

    def scaled(self, c: complex) -> "HoloMap":
        return HoloMap(self.num.scaled(c), self.den)

    def __call__(self, p) -> complex:
        z = _as_point(p, self.n)
        if self.den is None:
            return self.num(z)
        d = self.den(z)
        if d == 0:
            raise DenominatorVanishes(f"denominator vanishes at {z}")
        return self.num(z) / d

    def to_json(self) -> dict:
        if self.den is None:
            return self.num.to_json()
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "HoloMap":
        if "num" in obj:
            return HoloMap(
                Polynomial.from_json(obj["num"]), Polynomial.from_json(obj["den"])
            )
        return HoloMap(Polynomial.from_json(obj))


def multi_indices(n: int, order: int) -> list[tuple[int, ...]]:
    """All multi-indices alpha with |alpha| <= order, sorted by |alpha|."""
    out = []
    for total in range(order + 1):
        for alpha in itertools.product(range(total + 1), repeat=n):
            if sum(alpha) == total:
                out.append(alpha)
    return out


@dataclass(frozen=True)
class Jet:
    """Holomorphic partials d^alpha f(p) for |alpha| <= order."""

    point: tuple[complex, ...]
    order: int
    coeffs: Mapping[tuple[int, ...], complex]

    @property
    def n(self) -> int:
        return len(self.point)

    @property
    def value(self) -> complex:
        return self.coeffs[(0,) * self.n]

    def d(self, i: int) -> complex:
        alpha = [0] * self.n
        alpha[i] = 1
        return self.coeffs[tuple(alpha)]

    def d2(self, i: int, j: int) -> complex:
        alpha = [0] * self.n
        alpha[i] += 1
        alpha[j] += 1
        return self.coeffs[tuple(alpha)]

    def gradient(self) -> np.ndarray:
        return np.array([self.d(i) for i in range(self.n)])

    def hessian(self) -> np.ndarray:
        return np.array(
            [[self.d2(i, j) for j in range(self.n)] for i in range(self.n)]
        )


def _poly_jet(p: Polynomial, z: tuple[complex, ...], order: int) -> dict:
    coeffs = {}
    for alpha in multi_indices(p.n, order):
        q = p
        for i, a in enumerate(alpha):
            for _ in range(a):
                q = q.partial(i)
        coeffs[alpha] = q(z)
    return coeffs


def _binom_multi(alpha, beta) -> int:
    return math.prod(math.comb(a, b) for a, b in zip(alpha, beta))


def _sub_indices(alpha):
    """All beta <= alpha componentwise."""
    return itertools.product(*(range(a + 1) for a in alpha))


def eval_jet(f: HoloMap, p, order: int) -> Jet:
    """Exact holomorphic partials of ``f`` at ``p`` up to ``order`` (<= 3)."""
    if order > 3 or order < 0:
        raise OrderUnsupported(f"jet order {order} unsupported (max 3)")
    z = _as_point(p, f.n)
    num = _poly_jet(f.num, z, order)
    if f.den is None:
        return Jet(z, order, num)
    den = _poly_jet(f.den, z, order)
    d0 = den[(0,) * f.n]
    if d0 == 0:
        raise DenominatorVanishes(f"denominator vanishes at {z}")
    # Leibniz inversion: num = q * den determines the quotient jet recursively.
    q: dict = {}
    for alpha in multi_indices(f.n, order):
        acc = num[alpha]
        for beta in _sub_indices(alpha):
            if beta == alpha:
                continue
            diff = tuple(a - b for a, b in zip(alpha, beta))
            acc -= _binom_multi(alpha, beta) * q[beta] * den[diff]
        q[alpha] = acc / d0
    return Jet(z, order, q)
