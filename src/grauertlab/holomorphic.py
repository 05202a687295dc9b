"""Polynomial holomorphic maps and their jets.

A :class:`HoloMap` is a polynomial C^n -> C, or a quotient of two polynomials
whose denominator must not vanish at any queried point.  Jets collect the
holomorphic partials up to order 3 at a point; a value is the order-0 jet,
so values and partials come from one evaluation path, :func:`eval_jet`.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .errors import DenominatorVanishes, DomainOverflow, NonFiniteInput, OrderUnsupported

#: hard cap on per-variable exponents; desk experiments stay far below
DEGREE_CAP = 32


def _as_point(p, n: int) -> tuple[complex, ...]:
    if not isinstance(p, tuple) and np.isscalar(p):
        p = (p,)
    p = tuple(map(complex, p))
    if len(p) != n:
        raise ValueError(f"point has {len(p)} coordinates, map expects {n}")
    return p


@dataclass(frozen=True)
class Polynomial:
    """Sparse multivariate polynomial: multi-index exponent -> coefficient.

    ``terms`` is read-only, so the jet plans compiled from it and cached on
    the instance (one per jet order, built on first use) cannot go stale.
    """

    n: int
    terms: Mapping[tuple[int, ...], complex] = field(default_factory=dict)
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        object.__setattr__(
            self, "terms", MappingProxyType({e: c for e, c in clean.items() if c != 0})
        )

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(n: int, c: complex) -> "Polynomial":
        return Polynomial(n, {(0,) * n: complex(c)})

    # -- algebra ------------------------------------------------------------

    def __call__(self, p) -> complex:
        return _poly_jet(self, _as_point(p, self.n), 0)[(0,) * self.n]

    def __hash__(self):
        # consistent with ==, which compares terms in any order
        return hash((self.n, frozenset(self.terms.items())))

    def __reduce__(self):
        # the read-only terms view does not pickle; rebuild from a dict
        return Polynomial, (self.n, dict(self.terms))

    def _plan(self, order: int) -> tuple:
        """The jet plan of :func:`_compile_jet` for ``order``, built once."""
        plan = self._plans.get(order)
        if plan is None:
            plan = self._plans[order] = _compile_jet(self, order)
        return plan

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
    ``_memo`` is the metric's record of the last point
    :func:`grauertlab.metric.metric_matrix_jet` built, laid out in
    :mod:`grauertlab.metric`; equality, hashing and ``repr`` ignore it.
    """

    num: Polynomial
    den: Polynomial | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        return eval_jet(self, p, 0).value

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


@functools.cache
def _multi_indices(n: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices alpha with |alpha| <= order, sorted by |alpha|."""
    out = []
    for total in range(order + 1):
        for alpha in itertools.product(range(total + 1), repeat=n):
            if sum(alpha) == total:
                out.append(alpha)
    return tuple(out)


@functools.cache
def _unit_indices(n: int) -> tuple[tuple[int, ...], ...]:
    """alpha = e_i for each i: the keys of the first partials."""
    return tuple(tuple(int(j == i) for j in range(n)) for i in range(n))


@functools.cache
def _pair_indices(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """alpha = e_i + e_j, row i and column j: the keys of the second partials."""
    e = _unit_indices(n)
    return tuple(
        tuple(tuple(a + b for a, b in zip(e[i], e[j])) for j in range(n))
        for i in range(n)
    )


@functools.cache
def _leibniz_plan(n: int, order: int) -> tuple:
    """(alpha, ((binom, beta, alpha - beta), ...)) for every alpha of
    :func:`_multi_indices`, over beta < alpha in product order."""
    plan = []
    for alpha in _multi_indices(n, order):
        steps = []
        for beta in itertools.product(*(range(a + 1) for a in alpha)):
            if beta != alpha:
                binom = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
                diff = tuple(a - b for a, b in zip(alpha, beta))
                steps.append((binom, beta, diff))
        plan.append((alpha, tuple(steps)))
    return tuple(plan)


class Jet(NamedTuple):
    """Holomorphic partials d^alpha f(p) for |alpha| <= order.

    A named tuple, because one is built per evaluation: it builds in about
    half the time of a frozen dataclass.
    """

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
        return self.coeffs[_unit_indices(self.n)[i]]

    def d2(self, i: int, j: int) -> complex:
        return self.coeffs[_pair_indices(self.n)[i][j]]

    def gradient(self) -> np.ndarray:
        c = self.coeffs
        return np.array([c[alpha] for alpha in _unit_indices(self.n)])

    def hessian(self) -> np.ndarray:
        c = self.coeffs
        return np.array([[c[alpha] for alpha in row] for row in _pair_indices(self.n)])


def _compile_jet(p: Polynomial, order: int) -> tuple:
    """The plan :func:`_poly_jet` runs: ``(powers, rows)``.

    ``powers`` lists the (variable, exponent) pairs whose powers a jet reads.
    ``rows`` holds, for each alpha of :func:`_multi_indices`, the terms with
    exp >= alpha in term order, each as its coefficient times the falling
    factorials of d^alpha (variable 0 first) and the slots in ``powers`` of
    its remaining factors z_i^(e_i - alpha_i), in variable order.
    """
    slots: dict = {}
    rows = []
    for alpha in _multi_indices(p.n, order):
        terms = []
        for exp, c in p.terms.items():
            if any(e < a for e, a in zip(exp, alpha)):
                continue
            for e, a in zip(exp, alpha):
                for k in range(a):
                    c *= e - k
            factors = tuple(
                slots.setdefault((i, e - a), len(slots))
                for i, (e, a) in enumerate(zip(exp, alpha))
                if e > a
            )
            terms.append((c, factors))
        rows.append((alpha, tuple(terms)))
    return tuple(slots), tuple(rows)


def _poly_jet(p: Polynomial, z: tuple[complex, ...], order: int) -> dict:
    """Partials d^alpha p(z), |alpha| <= order, straight from the terms: the
    operations, in order, of evaluating the derivative polynomials that
    ``Polynomial.partial`` builds (variable 0 first), so bit-identical to them.
    Each power z_i^k is computed once per call.
    """
    powers, rows = p._plan(order)
    try:
        zk = [z[i] ** k for i, k in powers]
    except OverflowError:
        # Python's complex ** raises where a power overflows or meets an inf
        if not all(map(cmath.isfinite, z)):
            raise NonFiniteInput(f"point {z} is not finite") from None
        raise DomainOverflow(f"a power of {z} overflows") from None
    coeffs = {}
    for alpha, terms in rows:
        total = 0j
        for c, factors in terms:
            for s in factors:
                c *= zk[s]
            total += c
        coeffs[alpha] = total
    return coeffs


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
    for alpha, steps in _leibniz_plan(f.n, order):
        acc = num[alpha]
        for binom, beta, diff in steps:
            acc -= binom * q[beta] * den[diff]
        q[alpha] = acc / d0
    return Jet(z, order, q)
