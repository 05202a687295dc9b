"""Polynomial holomorphic maps and their jets.

A :class:`HoloMap` is a polynomial C^n -> C, or a quotient of two polynomials
whose denominator must not vanish at any queried point.  Jets collect the
holomorphic partials up to order 3 at a point; a value is the order-0 jet,
so values and partials come from one evaluation path, :func:`eval_jet`.
It runs straight-line code generated from each polynomial's term shape (the
exponents in term order) and from the quotient's (n, order), compiled once
per shape into bounded caches; the coefficients are bound at run time.
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

from .errors import (
    DenominatorVanishes,
    DomainOverflow,
    GrauertError,
    NonFiniteInput,
    OrderUnsupported,
)

#: hard cap on per-variable exponents; desk experiments stay far below
DEGREE_CAP = 32

#: term shapes (and quotient shapes) whose compiled jet code is kept: a
#: compile costs about 160 us, binding a kept shape to a polynomial about 1 us
JET_SHAPES = 256

#: terms per statement of a generated row: far below the compiler's recursion limit
_ROW_TERMS = 256


def _as_point(p, n: int) -> tuple[complex, ...]:
    """``p`` as a tuple of n Python complex numbers: a scalar is a point of C."""
    if type(p) is tuple and len(p) == n:
        # a point converted before, as hsc passes it to both its jets and
        # k_plus to every call, is returned as it is, so the map's record
        # finds it by identity; np.complex128 subclasses complex, so it
        # fails here
        for c in p:
            if type(c) is not complex:
                break
        else:
            return p
    if not isinstance(p, tuple) and np.isscalar(p):
        p = (p,)
    p = tuple(map(complex, p))
    if len(p) != n:
        raise ValueError(f"point has {len(p)} coordinates, map expects {n}")
    return p


def _json_object(obj, keys: set, what: str) -> dict:
    """``obj``, if it is a descriptor object whose keys all lie in ``keys``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {obj!r}")
    if extra := set(obj) - keys:
        raise ValueError(f"unknown keys {sorted(extra)} in {what}")
    return obj


def _json_int(v) -> int:
    """``v`` as an int, if it is not a boolean and ``int`` leaves it
    unchanged; ``ValueError`` otherwise."""
    if not isinstance(v, bool):
        try:
            if (i := int(v)) == v:
                return i
        except OverflowError:  # an infinite v: JSON Infinity, or 1e400
            pass
    raise ValueError(f"{v!r} is not an integer")


def _json_float(v) -> float:
    """``v`` as a float, if it is a JSON number: an int or a float, not a
    boolean or a string; ``ValueError`` otherwise."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:  # an integer literal beyond the largest double
            pass
    raise ValueError(f"{v!r} is not a number")


@dataclass(frozen=True)
class Polynomial:
    """Sparse multivariate polynomial: multi-index exponent -> coefficient.

    ``terms`` is read-only, so the jets bound to it and cached on the
    instance (one per jet order, built on first use) cannot go stale; pickling
    drops them, and a copy binds its own.
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

    def __hash__(self):
        # consistent with ==, which compares terms in any order
        return hash((self.n, frozenset(self.terms.items())))

    def __reduce__(self):
        # the read-only terms view does not pickle; rebuild from a dict
        return Polynomial, (self.n, dict(self.terms))

    def _jet(self, order: int):
        """``jet(z)``, the dict of partials up to ``order`` at a point tuple
        ``z``: the compiled code of :func:`_poly_jet_code` for these terms'
        shape, bound once to their coefficients."""
        jet = self._plans.get(order)
        if jet is None:
            make, folds = _poly_jet_code(self.n, order, tuple(self.terms))
            cs = tuple(self.terms.values())
            bound = []
            for t, factors in folds:
                c = cs[t]
                for k in factors:
                    c *= k
                bound.append(c)
            jet = self._plans[order] = make(tuple(bound))
        return jet

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

    # -- descriptors --------------------------------------------------------

    @staticmethod
    def term_from_json(t, parts=("",)) -> tuple[tuple[int, ...], list[complex]]:
        """A descriptor term's exponent and, for each suffix in ``parts``, the
        coefficient read from ("re" + suffix, "im" + suffix), absent parts 0."""
        _json_object(t, {"exp"} | {k + s for s in parts for k in ("re", "im")}, "term")
        exp = tuple(_json_int(e) for e in t["exp"])
        return exp, [complex(_json_float(t.get("re" + s, 0.0)), _json_float(t.get("im" + s, 0.0)))
                     for s in parts]

    @staticmethod
    def from_json(obj) -> "Polynomial":
        _json_object(obj, {"n", "terms"}, "polynomial")
        terms = {}
        for t in obj["terms"]:
            exp, (c,) = Polynomial.term_from_json(t)
            terms[exp] = terms.get(exp, 0) + c
        return Polynomial(_json_int(obj["n"]), terms)


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

    def __call__(self, p) -> complex:
        return eval_jet(self, p, 0).value

    @staticmethod
    def from_json(obj) -> "HoloMap":
        if isinstance(obj, dict) and "num" in obj:
            _json_object(obj, {"num", "den"}, "quotient map")
            return HoloMap(Polynomial.from_json(obj["num"]),
                           Polynomial.from_json(obj["den"]))
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

    A named tuple, because one is built per evaluation; :func:`eval_jet`
    builds it by ``tuple.__new__``, past the named tuple's Python-level
    constructor.
    """

    point: tuple[complex, ...]
    coeffs: Mapping[tuple[int, ...], complex]

    @property
    def n(self) -> int:
        return len(self.point)

    @property
    def value(self) -> complex:
        # the zero multi-index is the first key of every jet dict
        return next(iter(self.coeffs.values()))

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


def _overflow(z: tuple[complex, ...]) -> GrauertError:
    """The error of a jet at ``z`` where a power raises OverflowError: Python's
    complex ** raises where a power overflows or meets an inf."""
    if not all(map(cmath.isfinite, z)):
        return NonFiniteInput(f"point {z} is not finite")
    return DomainOverflow(f"a power of {z} overflows")


def _compile(name: str, lines: list[str]):
    """The function ``name`` that the source ``lines`` define."""
    namespace = {"_overflow": _overflow, "DenominatorVanishes": DenominatorVanishes}
    exec(compile("\n".join(lines), f"<grauertlab jet code: {name}>", "exec"), namespace)
    return namespace[name]


@functools.lru_cache(maxsize=JET_SHAPES)
def _poly_jet_code(n: int, order: int, exps: tuple[tuple[int, ...], ...]) -> tuple:
    """Straight-line jet code for every polynomial whose terms have the
    exponents ``exps``, in that order: ``(make, folds)``.

    ``make(cs)`` binds the tuple of row coefficients and returns ``jet(z)``,
    the dict of the partials d^alpha p(z) over :func:`_multi_indices`.  Row
    alpha is ``0j + c*z_i^k*... + ...``, left to right over the terms with
    exp >= alpha in term order, each its coefficient times the falling
    factorials of d^alpha times the powers z_i^(e_i - alpha_i), variable 0
    first: the operations, in order, of evaluating the derivative
    polynomials that ``Polynomial.partial`` builds, so bit-identical to them.
    Each power is one Python ``**``, all of them in one ``try`` before the
    first row.  ``folds`` holds, for each bound coefficient in turn, the
    index of its term and the factors e - k of its falling factorials.
    The source holds integer indices and fixed names only.
    """
    slots: dict = {}
    folds = []
    rows = []
    alphas = _multi_indices(n, order)
    for r, alpha in enumerate(alphas):
        row = ["0j"]
        for t, exp in enumerate(exps):
            if any(e < a for e, a in zip(exp, alpha)):
                continue
            factors = [f"c{len(folds)}"] + [
                f"p{slots.setdefault((i, e - a), len(slots))}"
                for i, (e, a) in enumerate(zip(exp, alpha))
                if e > a
            ]
            row.append("*".join(factors))
            folds.append((t, tuple(e - k for e, a in zip(exp, alpha) for k in range(a))))
        # a long sum continues in further statements, as the compiler
        # recurses once per operator of an expression
        for i in range(0, len(row), _ROW_TERMS):
            head = f"r{r} + " if i else ""
            rows.append(f"        r{r} = {head}{' + '.join(row[i:i + _ROW_TERMS])}")
    body = []
    if slots:
        body += [f"        {''.join(f'z{i}, ' for i in range(n))}= z", "        try:"]
        body += [f"            p{s} = z{i} ** {k}" for (i, k), s in slots.items()]
        body += ["        except OverflowError:", "            raise _overflow(z) from None"]
    if folds:
        # a closure cell per coefficient would make the compile quadratic in them
        body.insert(0, f"        {''.join(f'c{k}, ' for k in range(len(folds)))}= cs")
    lines = [
        "def make(cs):",
        "    def jet(z):",
        *body,
        *rows,
        f"        return {{{', '.join(f'{alpha!r}: r{r}' for r, alpha in enumerate(alphas))}}}",
        "    return jet",
    ]
    return _compile("make", lines), tuple(folds)


@functools.lru_cache(maxsize=JET_SHAPES)
def _quotient_jet_code(n: int, order: int):
    """``quotient(z, num, den)``: the jet of num / den at ``z`` from the jet
    dicts of both polynomials, in straight-line code.

    DenominatorVanishes where den(z) == 0.  Otherwise Leibniz inversion of
    num = q den: each coefficient is ``(N_alpha - b*q_beta*D_delta - ...) / D0``
    over the steps of :func:`_leibniz_plan`, in plan order.
    """
    index = {alpha: k for k, alpha in enumerate(_multi_indices(n, order))}
    names = range(len(index))
    lines = [
        "def quotient(z, num, den):",
        f"    {''.join(f'N{k}, ' for k in names)}= num.values()",
        f"    {''.join(f'D{k}, ' for k in names)}= den.values()",
        "    if D0 == 0:",
        '        raise DenominatorVanishes(f"denominator vanishes at {z}")',
    ]
    for alpha, steps in _leibniz_plan(n, order):
        acc = "".join(f" - {b}*q{index[beta]}*D{index[diff]}" for b, beta, diff in steps)
        lines.append(f"    q{index[alpha]} = (N{index[alpha]}{acc}) / D0")
    lines.append(f"    return {{{', '.join(f'{alpha!r}: q{k}' for alpha, k in index.items())}}}")
    return _compile("quotient", lines)


def eval_jet(f: HoloMap, p, order: int) -> Jet:
    """Exact holomorphic partials of ``f`` at ``p`` up to ``order`` (<= 3)."""
    if order > 3 or order < 0:
        raise OrderUnsupported(f"jet order {order} unsupported (max 3)")
    z = _as_point(p, f.n)
    num = f.num._jet(order)(z)
    if f.den is not None:
        num = _quotient_jet_code(f.n, order)(z, num, f.den._jet(order)(z))
    return tuple.__new__(Jet, (z, num))
