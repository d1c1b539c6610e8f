"""Univariate polynomials and rational functions over an explicit finite field.

A polynomial is a dense tuple of its coefficients' element codes over a
gf.FieldCtx, and its arithmetic runs on the field's code kernels.  Rational
functions are kept in lowest terms with monic denominator.  Sums and
products cancel by Henrici's split (Knuth, TAOCP vol. 2, 4.5.1): they take
gcds only of the factors that can cancel, and monic denominators multiply
to monic ones.  Places of the rational function field k0(T) are monic
irreducible polynomials plus one infinite place.  Partial fraction
decompositions are exact, computed once per rational function and kept on
it, and hold one block per pole place: u = poly_part + sum_i Q_i / P_i^e_i
with deg Q_i < e_i deg P_i and P_i not dividing Q_i, so e_i is the pole
order at P_i.  Only the display expands a block into digits C_ij / P_i^j
with deg C_ij < deg P_i.

Factoring runs squarefree reduction, then distinct-degree splitting, then a
deterministic equal-degree split: for p = 2 a trace sweep over an F_2-basis
of k0[T] below deg f, which some basis element always passes, and for odd
p a quadratic-character sweep over low-degree elements in code order.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import (
    IncompatibleContexts,
    InternalCheckError,
    NotIrreducible,
    PoleAtPlace,
    ZeroPolynomial,
)
from .gf import FFElem, FieldCtx, _code, _digits, _horner, _prime_divisors, p_adic_split, power

INF = math.inf


class Poly:
    """Dense univariate polynomial over a FieldCtx: coeffs holds the codes of
    its FFElem coefficients, low to high, with no trailing zero; () is 0."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        self.ctx = ctx
        self.coeffs = _from_codes(ctx, [c.code for c in coeffs]).coeffs

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(ctx: FieldCtx, c) -> "Poly":
        return _from_codes(ctx, [c % ctx.p if isinstance(c, int) else c.code])

    @staticmethod
    def variable(ctx: FieldCtx) -> "Poly":
        return _from_codes(ctx, [0, 1])

    # -- basics --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self) -> FFElem:
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.ctx._elem(self.coeffs[-1])

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def _check(self, other: "Poly"):
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise IncompatibleContexts("polynomials over different fields")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.ctx.arith().add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return _from_codes(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ctx.arith().neg
        return _from_codes(self.ctx, [neg(c) for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return other - self

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, FFElem):
            return _from_codes(self.ctx, [other.code])
        if isinstance(other, int):
            return Poly.const(self.ctx, other)
        return NotImplemented

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._check(other)
        if self.is_zero() or other.is_zero():
            return _from_codes(self.ctx, [])
        return _from_codes(self.ctx, self.ctx.arith().poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.coeffs) < len(other.coeffs):
            return _from_codes(self.ctx, []), self
        quot, rem = self.ctx.arith().poly_divmod(self.coeffs, other.coeffs)
        return _from_codes(self.ctx, quot), _from_codes(self.ctx, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        """Square and multiply for the part of e prime to p, then one
        pth_power per factor p, which multiplies nothing.
        """
        if e < 0:
            raise ValueError("negative power of a polynomial")
        lam, k = p_adic_split(e, self.ctx.p) if e else (0, 0)
        result = power(self, lam, Poly.__mul__, Poly.const(self.ctx, 1))
        for _ in range(k):
            result = result.pth_power()
        return result

    def pth_power(self) -> "Poly":
        """Cheap p-th power: exponents scale by p, coefficients Frobenius."""
        if self.is_zero():
            return self
        ctx = self.ctx
        p = ctx.p
        out = [0] * (p * self.degree() + 1)
        pw = ctx.arith().pow
        # Frobenius fixes the prime field, and 0^p = 0
        out[::p] = self.coeffs if ctx.s == 1 else [pw(c, p) if c else 0 for c in self.coeffs]
        return _from_codes(ctx, out)

    def pth_root(self) -> "Poly":
        """Inverse of pth_power; requires support on exponents divisible by p."""
        ctx = self.ctx
        p = ctx.p
        if self.is_zero():
            return self
        # the inverse of Frobenius on F_{p^s} is x -> x^(p^(s-1))
        pw, e = ctx.arith().pow, p ** (ctx.s - 1)
        out = [0] * (self.degree() // p + 1)
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i % p != 0:
                raise ValueError("polynomial is not a p-th power")
            out[i // p] = pw(c, e)
        return _from_codes(ctx, out)

    def is_pth_power(self) -> bool:
        p = self.ctx.p
        return not any(c for i, c in enumerate(self.coeffs) if i % p)

    def derivative(self) -> "Poly":
        ctx = self.ctx
        mul, p = ctx.arith().mul, ctx.p
        # the integer i acts as the prime-field element of code i mod p
        return _from_codes(ctx, [mul(i % p, c) for i, c in enumerate(self.coeffs[1:], 1)])

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        a = self.ctx.arith()
        mul, inv = a.mul, a.inv(self.coeffs[-1])
        return _from_codes(self.ctx, [mul(c, inv) for c in self.coeffs])

    def __call__(self, x: FFElem) -> FFElem:
        """Value at an element x of the coefficient field, by Horner's rule."""
        ctx = self.ctx
        if x.ctx is not ctx and x.ctx != ctx:
            raise IncompatibleContexts("evaluation point outside the coefficient field")
        return ctx._elem(_horner(ctx.arith(), self.coeffs, x.code))

    # -- comparison, ordering, display ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, (FFElem, int)):
            other = self._coerce(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        # hash(FFElem) is hash(code), so this is the hash of the element tuple
        return hash((self.ctx, self.coeffs))

    def sort_key(self):
        """(degree, integer encoding with c_0 least significant)."""
        return (self.degree(), _code(self.coeffs, self.ctx.order()))

    def to_str(self) -> str:
        if self.is_zero():
            return "0"
        ctx = self.ctx
        parts = []
        for i in range(self.degree(), -1, -1):
            code = self.coeffs[i]
            if not code:
                continue
            c = str(ctx._elem(code))
            if i == 0:
                parts.append(c)
                continue
            # prime-field codes are the integers 0..p-1
            cs = "" if code == 1 else c if code < ctx.p else f"({c})"
            xs = "T" if i == 1 else f"T^{i}"
            parts.append(cs + xs)
        return "+".join(parts)

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"Poly({self.to_str()})"


def _from_codes(ctx: FieldCtx, cs: list) -> Poly:
    """The polynomial with the code list cs, low to high, which loses its
    trailing zeros in place."""
    while cs and not cs[-1]:  # _trim's loop: as a call, ~1% of a witt pass
        cs.pop()
    out = object.__new__(Poly)
    out.ctx = ctx
    out.coeffs = tuple(cs)
    return out


def _trim(cs: list) -> list:
    """cs without its trailing zeros, popped in place."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _mod_codes(ar, a, m) -> list:
    """Codes of a mod m, trimmed, for trimmed code sequences a and m != 0."""
    return _trim(ar.poly_divmod(a, m)[1]) if len(a) >= len(m) else list(a)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        if not b.degree():
            # a nonzero constant divides everything
            return Poly.const(b.ctx, 1)
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def poly_inverse_mod(a: Poly, m: Poly) -> Poly | None:
    """b with a*b = 1 mod m and deg b < deg m; None when gcd(a, m) is not constant.

    Extended Euclid on the codes of (m, a mod m), keeping only the cofactor
    of a.  Each cofactor has a larger degree than the one before it, and
    the last one a smaller degree than m.
    """
    ar = m.ctx.arith()
    add, mul = ar.add, ar.mul
    r0, r1 = list(m.coeffs), _mod_codes(ar, a.coeffs, m.coeffs)
    x0, x1 = [], [1]
    while len(r1) > 1:
        q, r = ar.poly_divmod(r0, r1)
        r0, r1 = r1, _trim(r)
        # x0 - q * x1, whose degree is that of q * x1
        x = [ar.neg(c) for c in ar.poly_mul(q, x1)]
        for i, c in enumerate(x0):
            x[i] = add(x[i], c)
        x0, x1 = x1, x
    if not r1:
        # the gcd r0 is a unit only for a constant m, and mod m every b is 0
        return None if len(r0) > 1 else _from_codes(m.ctx, [])
    # a nonzero constant remainder: x1 * a = r1 mod m
    inv = ar.inv(r1[0])
    return _from_codes(m.ctx, [mul(c, inv) for c in x1])


def poly_powmod(base: Poly, e: int, mod: Poly) -> Poly:
    return power(base % mod, e, lambda a, b: a * b % mod, Poly.const(base.ctx, 1) % mod)


def inv_frobenius_mod(a: Poly, mod: Poly, n: int) -> Poly:
    """Solve C**(p**n) = a in the residue field k0[T]/(mod).

    Uses the fact that the residue field has p**(s*deg mod) elements, so the
    inverse of the n-fold Frobenius is the (s*deg-n)-fold Frobenius.
    """
    sm = a.ctx.s * mod.degree()
    return poly_powmod(a, a.ctx.p ** ((sm - n) % sm), mod)


# ---------------------------------------------------------------------------
# factoring
# ---------------------------------------------------------------------------

def is_irreducible(f: Poly) -> bool:
    """Rabin irreducibility test over F_q, q the field order."""
    d = f.degree()
    if d <= 0:
        return False
    f = f.monic()
    if d == 1:
        return True
    q = f.ctx.order()
    T = Poly.variable(f.ctx)
    t = T % f
    for _ in range(d):
        t = poly_powmod(t, q, f)
    if t != T % f:
        return False
    for r in set(_prime_divisors(d)):
        t = T % f
        for _ in range(d // r):
            t = poly_powmod(t, q, f)
        g = poly_gcd(t - T, f)
        if g.degree() != 0:
            return False
    return True


def _poly_candidates(ctx: FieldCtx):
    """Non-constant polynomials in a fixed enumeration, used by the EDF sweep."""
    q = ctx.order()
    deg = 1
    while True:
        # the codes with a nonzero digit at q^deg
        for k in range(q ** deg, q ** (deg + 1)):
            yield _from_codes(ctx, _digits(k, q, deg + 1))
        deg += 1


def _edf(f: Poly, d: int) -> list[Poly]:
    """Split monic squarefree f into its irreducible factors, all of degree d.

    For p = 2 the trace g + g^2 + ... + g^(2^(sd-1)) mod f is F_2-linear in
    g and, by CRT, onto F_2^k for the k factors of f.  Constants map to 0 or
    1, so some w^l T^j (l < s, 1 <= j < deg f) has a trace that splits f.
    Odd p tests quadratic characters of candidates in code order.
    """
    if f.degree() == d:
        return [f]
    ctx = f.ctx
    if ctx.p == 2:
        # w^l T^j: the code of w^l is 2^l
        cands = (_from_codes(ctx, [0] * j + [1 << l])
                 for j in range(1, f.degree()) for l in range(ctx.s))
    else:
        q = ctx.order()
        cands = itertools.islice(_poly_candidates(ctx), 4 * q * q + 200)
    for cand in cands:
        if ctx.p == 2:
            t = cand % f
            acc = t
            cur = t
            for _ in range(ctx.s * d - 1):
                cur = (cur * cur) % f
                acc = (acc + cur) % f
            g = poly_gcd(acc, f)
        else:
            w = poly_powmod(cand, (q ** d - 1) // 2, f)
            g = poly_gcd(w - Poly.const(ctx, 1), f)
        if 0 < g.degree() < f.degree():
            return sorted(
                _edf(g.monic(), d) + _edf((f // g).monic(), d),
                key=Poly.sort_key,
            )
    raise InternalCheckError(f"equal-degree sweep of {f!r} (d={d}) exhausted its candidate budget")


def _ddf(f: Poly) -> list[tuple[Poly, int]]:
    """Distinct-degree split of a monic squarefree f: [(product, degree)]."""
    ctx = f.ctx
    q = ctx.order()
    T = Poly.variable(ctx)
    out = []
    h = T % f
    d = 0
    g = f
    while g.degree() > 0 and 2 * (d + 1) <= g.degree():
        d += 1
        h = poly_powmod(h, q, g)
        c = poly_gcd(h - T, g)
        if c.degree() > 0:
            out.append((c, d))
            g = g // c
            h = h % g
    if g.degree() > 0:
        out.append((g, g.degree()))
    return out


def factor(f: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors with multiplicities, sorted canonically."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    found: dict[Poly, int] = {}
    _factor_into(f.monic(), 1, found)
    check = Poly.const(f.ctx, 1)
    for g, m in found.items():
        check = check * g ** m
    if check != f.monic():
        raise InternalCheckError(f"factor product mismatch for {f!r}: {found}")
    return sorted(found.items(), key=lambda t: t[0].sort_key())


def _factor_into(f: Poly, scale: int, found: dict):
    if f.degree() == 0:
        return
    fp = f.derivative()
    if fp.is_zero():
        _factor_into(f.pth_root(), scale * f.ctx.p, found)
        return
    rad = f // poly_gcd(f, fp)
    pieces = []
    for block, d in _ddf(rad):
        pieces.extend(_edf(block, d))
    for piece in pieces:
        m, f = _split_off(f, piece)
        found[piece] = found.get(piece, 0) + scale * m
    if f.degree() > 0:
        _factor_into(f.pth_root(), scale * f.ctx.p, found)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Rational function in lowest terms with monic denominator.  The slot _pf,
    written by _keep alone, holds u's decomposition: the one u was built from,
    or the one partial_fractions computed."""

    __slots__ = ("num", "den", "_pf")

    def __init__(self, num: Poly, den: Poly | None = None):
        """num / den brought to lowest terms, whatever their common factor."""
        if den is not None and den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if den is None or num.is_zero():
            den = Poly.const(num.ctx, 1)
        else:
            num, den = _monic_den(*_cancel(num, den))
        self.num, self.den = num, den

    @staticmethod
    def _lowest(num: Poly, den: Poly) -> "RatFunc":
        """num / den as given: the caller knows it is in lowest terms with den monic."""
        out = object.__new__(RatFunc)
        out.num, out.den = num, den
        return out

    @property
    def ctx(self) -> FieldCtx:
        return self.num.ctx

    @staticmethod
    def const(ctx: FieldCtx, c) -> "RatFunc":
        return RatFunc(Poly.const(ctx, c))

    @staticmethod
    def variable(ctx: FieldCtx) -> "RatFunc":
        return RatFunc(Poly.variable(ctx))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree() == 0

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> FFElem:
        if not self.is_constant():
            raise ValueError("not a constant")
        if self.num.is_zero():
            return self.ctx.zero()
        return self.num.leading() / self.den.leading()

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        if isinstance(other, (FFElem, int)):
            return RatFunc.const(self.ctx, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b, c, d = self.num, self.den, o.num, o.den
        a._check(c)
        if a.is_zero() or c.is_zero():
            return self if c.is_zero() else o
        if b.degree() == d.degree() == 0:
            return RatFunc._lowest(a + c, b)
        g = poly_gcd(b, d)
        if g.degree() == 0:
            return RatFunc._lowest(a * d + c * b, b * d)
        # b = b' g and d = d' g: t = a d' + c b' is prime to b' and d', so
        # only gcd(t, g) cancels; t = 0 makes b = d and cancels all of g
        b, d = b // g, d // g
        t, g = _cancel(a * d + c * b, g)
        return RatFunc._lowest(t, b * d * g)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._lowest(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b, c, d = self.num, self.den, o.num, o.den
        a._check(c)
        if a.is_zero() or c.is_zero():
            return self if a.is_zero() else o
        if b.degree() == d.degree() == 0:
            return RatFunc._lowest(a * c, b)
        # a is prime to b and c to d, so only gcd(a, d) and gcd(c, b) cancel
        (a, d), (c, b) = _cancel(a, d), _cancel(c, b)
        return RatFunc._lowest(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFunc._lowest(*_monic_den(o.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __pow__(self, e: int):
        if e < 0:
            return (RatFunc.const(self.ctx, 1) / self) ** (-e)
        # powers of coprime polynomials stay coprime and a power of the
        # monic denominator is monic, so the result is already reduced
        return RatFunc._lowest(self.num ** e, self.den ** e)

    def scale_const(self, c: FFElem) -> "RatFunc":
        """Multiply by a constant without renormalizing (stays reduced); a kept
        decomposition is scaled along."""
        if c.is_zero() or self.num.is_zero():
            return RatFunc(Poly(self.ctx))
        out = RatFunc._lowest(self.num * c, self.den)
        pf = getattr(self, "_pf", None)
        return out if pf is None else _keep(out, pf.scale_const(c))

    def pth_power(self) -> "RatFunc":
        # Frobenius keeps a coprime pair coprime and a monic denominator monic
        return RatFunc._lowest(self.num.pth_power(), self.den.pth_power())

    def is_pth_power(self) -> bool:
        return self.num.is_pth_power() and self.den.is_pth_power()

    def pth_root(self) -> "RatFunc":
        # a common factor h of the roots gives h^p | num, den; a monic den has a monic root
        return RatFunc._lowest(self.num.pth_root(), self.den.pth_root())

    def poly_part(self) -> Poly:
        return self.num // self.den

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        return pf_string(self)

    def __repr__(self):
        return f"RatFunc(({self.num.to_str()})/({self.den.to_str()}))"


def _cancel(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """a and b over their gcd; b must be nonzero."""
    g = poly_gcd(a, b)
    return (a // g, b // g) if g.degree() > 0 else (a, b)


def _monic_den(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """(num, den) over den's leading coefficient, which makes den monic."""
    if den.coeffs[-1] == 1:
        return num, den
    inv = den.leading().inverse()
    return num * inv, den * inv


# ---------------------------------------------------------------------------
# places, valuations, residues
# ---------------------------------------------------------------------------

class Place:
    """A place of k0(T): a monic irreducible polynomial or the infinite place."""

    __slots__ = ("poly",)

    def __init__(self, poly: Poly | None):
        if poly is not None:
            poly = poly.monic()
            if not is_irreducible(poly):
                raise NotIrreducible(f"{poly} is not irreducible")
        self.poly = poly

    @staticmethod
    def infinite() -> "Place":
        return Place(None)

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree()

    def __eq__(self, other):
        return isinstance(other, Place) and self.poly == other.poly

    def __hash__(self):
        return hash(("place", self.poly))

    def __str__(self):
        return "inf" if self.poly is None else self.poly.to_str()

    def __repr__(self):
        return f"Place({self})"


def place_valuation(u: RatFunc, place: Place):
    """Order of u at the place; math.inf for the zero function."""
    if u.is_zero():
        return INF
    if place.is_infinite:
        return u.den.degree() - u.num.degree()
    v = _split_off(u.num, place.poly)[0]
    return v if v > 0 else -_split_off(u.den, place.poly)[0]


def _split_off(a: Poly, P: Poly) -> tuple[int, Poly]:
    """(e, b) with a = P^e * b and P not dividing b; a must be nonzero.  One
    divmod per unit of e up to 4; past that P^2 is split off alike: O(log e)."""
    for e in range(4):
        q, r = divmod(a, P)
        if not r.is_zero():
            return e, a
        a = q
    f, b = _split_off(a, P * P) if 2 * P.degree() <= a.degree() else (0, a)
    q, r = divmod(b, P)
    return (4 + 2 * f, b) if not r.is_zero() else (5 + 2 * f, q)


class PartialFractions:
    """u = poly_part + sum of Q / P^e over the blocks (P, e, Q).

    There is one block per pole place, in canonical place order, with
    deg Q < e deg P and P not dividing Q, so e is the pole order at P.
    checked: partial_fractions has checked that shape or the recombination.
    """

    __slots__ = ("poly_part", "blocks", "checked")

    def __init__(self, poly_part: Poly, blocks):
        self.poly_part = poly_part
        self.blocks = tuple(blocks)
        self.checked = False

    def recombine(self) -> RatFunc:
        """poly_part + sum Q / P^e, keeping self as its decomposition."""
        # each Q is prime to its P and the places are distinct, so N is
        # prime to every P and N / prod P^e is already in lowest terms
        num = self.poly_part
        den = Poly.const(num.ctx, 1)
        for P, e, Q in self.blocks:
            Pe = P ** e
            num = num * Pe + Q * den
            den = den * Pe
        return _keep(RatFunc._lowest(num, den), self)

    def scale_const(self, c: FFElem) -> "PartialFractions":
        """Multiply by a nonzero constant; places and pole orders stay."""
        return PartialFractions(self.poly_part * c, [(P, e, Q * c) for P, e, Q in self.blocks])


def _keep(u: RatFunc, pf: PartialFractions) -> RatFunc:
    """u, keeping pf as its decomposition."""
    u._pf = pf
    return u


def partial_fractions(u: RatFunc) -> PartialFractions:
    """u's decomposition.  One u was built from is read, its shape checked on
    the first read (one divmod per block); else the first call factors u.den,
    checks the recombination and keeps the result.  A failed check keeps nothing."""
    if (pf := getattr(u, "_pf", None)) is not None:
        if not pf.checked:
            last = ()  # below every sort key
            for P, e, Q in pf.blocks:
                if (Q % P).is_zero() or Q.degree() >= e * P.degree() or P.sort_key() <= last:
                    raise InternalCheckError(f"kept decomposition of u={u!r} has a "
                                             f"non-canonical block ({P}, {e}, {Q})")
                last = P.sort_key()
            pf.checked = True
        return pf
    poly_part, rem = divmod(u.num, u.den)
    blocks = []
    if not rem.is_zero():
        # factor's order is the canonical place order
        for P, e in factor(u.den):
            Pe = P ** e
            inv_other = poly_inverse_mod(u.den // Pe, Pe)
            if inv_other is None:
                raise InternalCheckError(f"denominator factors not coprime for u={u!r}")
            blocks.append((P, e, (rem * inv_other) % Pe))
    out = PartialFractions(poly_part, blocks)
    if out.recombine() != u:
        raise InternalCheckError(f"partial fraction recombination mismatch for u={u!r}")
    out.checked = True
    _keep(u, out)
    return out


def place_digits(P: Poly, e: int, Q: Poly) -> list[tuple[int, Poly]]:
    """[(j, C_j)] with Q / P^e = sum C_j / P^j, deg C_j < deg P, j descending;
    zero digits are left out."""
    digits = []
    for j in range(e, 0, -1):
        Q, c = divmod(Q, P)
        if not c.is_zero():
            digits.append((j, c))
    return digits


def pf_string(u: RatFunc) -> str:
    """Canonical display: pole terms by place then the polynomial part."""
    pf = partial_fractions(u)
    parts = []
    for P, e, Q in pf.blocks:
        ps = P.to_str()
        if "+" in ps:
            ps = f"({ps})"
        for j, c in place_digits(P, e, Q):
            den = ps if j == 1 else f"{ps}^{j}"
            if c.is_constant():
                cs = str(c.leading())
                if "+" in cs:
                    cs = f"({cs})"
            else:
                cs = f"({c.to_str()})"
            parts.append(f"{cs}/{den}")
    if not pf.poly_part.is_zero():
        parts.append(pf.poly_part.to_str())
    return " + ".join(parts) if parts else "0"


# -- residues -----------------------------------------------------------------

def residue_trace(num: Poly, den: Poly, P: Poly) -> int:
    """Code of the trace to k0 of the value of num / den at the finite place
    P; den must not vanish at P.

    At P = T - a the value is num(a) / den(a), by Horner's rule and one
    field inverse.  At a place of degree >= 2, num is reduced mod P and
    multiplied by the inverse of den mod P, and the value x = sum x_j T^j
    has trace sum x_j s_j, s_j the j-th power sum of the roots of P."""
    ar = P.ctx.arith()
    if P.degree() == 1:
        a = ar.neg(P.coeffs[0])
        d = _horner(ar, den.coeffs, a)
        if not d:
            raise PoleAtPlace(f"1/({den}) has a pole at {P}")
        return ar.mul(_horner(ar, num.coeffs, a), ar.inv(d))
    inv_den = poly_inverse_mod(den, P)
    if inv_den is None:
        raise PoleAtPlace(f"1/({den}) has a pole at {P}")
    x = _mod_codes(ar, num.coeffs, P.coeffs)
    if x:
        x = _mod_codes(ar, ar.poly_mul(x, inv_den.coeffs), P.coeffs)
    return functools.reduce(ar.add, map(ar.mul, x, _power_sums(P)), 0)


def _power_sums(P: Poly) -> list[int]:
    """Codes of s_0, ..., s_{d-1}: power sums of the roots of the monic P of
    degree d.

    Newton's identities with P = T^d + a_{d-1} T^{d-1} + ... + a_0 give
    s_k = -(k a_{d-k} + sum_{i=1}^{k-1} a_{d-i} s_{k-i}) for 1 <= k < d.
    The integer k acts as the prime-field element of code k mod p.
    """
    d, p = P.degree(), P.ctx.p
    a = P.coeffs
    ar = P.ctx.arith()
    sums = [d % p]
    for k in range(1, d):
        acc = ar.mul(k % p, a[d - k])
        for i in range(1, k):
            acc = ar.add(acc, ar.mul(a[d - i], sums[k - i]))
        sums.append(ar.neg(acc))
    return sums
