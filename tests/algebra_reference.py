"""Reference quotient algebra k[Y]/(f(Y) - u) on dense coefficient vectors.

Every element is the full tuple of its p^n coefficients in the Y-basis,
zeros included, and products fold past Y^(p^n) through dense reduced powers
of Y.  This is how aspw.asext.QuotientAlgebra stored its elements before it
kept only the nonzero coefficients; the differential tests compare the two.
"""

from __future__ import annotations

from aspw.gf import FFElem
from aspw.upoly import Poly, RatFunc


class DenseAlgebra:
    def __init__(self, spec):
        self.k0 = spec.k0
        p = self.k0.p
        self.dim = p ** spec.f.n
        self.p_support = frozenset([0] + [p ** i for i in range(spec.f.n)])
        rel = self.zero_vec()
        rel[0] = spec.u
        for i in range(spec.f.n):
            idx = p ** i
            rel[idx] = rel[idx] - RatFunc.const(self.k0, spec.f.a[i])
        self._rel = tuple(rel)
        self._ypow = {self.dim: tuple(rel)}
        self._shift_tables = {}

    def zero_vec(self):
        return [RatFunc(Poly(self.k0)) for _ in range(self.dim)]

    def element(self, coeffs) -> "DenseElem":
        """sum c_i Y^i for a list [c_0, c_1, ...] of length at most dim."""
        vec = self.zero_vec()
        for i, c in enumerate(coeffs):
            vec[i] = self._lift(c)
        return DenseElem(self, vec)

    def _lift(self, c) -> RatFunc:
        return c if isinstance(c, RatFunc) else RatFunc.const(self.k0, c)

    def const(self, c) -> "DenseElem":
        return self.element([c])

    def ypow(self, k: int):
        known = max(self._ypow)
        while known < k:
            prev = self._ypow[known]
            top = prev[self.dim - 1]
            vec = [RatFunc(Poly(self.k0))] + list(prev[: self.dim - 1])
            if not top.is_zero():
                vec = [a + top * b for a, b in zip(vec, self._rel)]
            known += 1
            self._ypow[known] = tuple(vec)
        return self._ypow[k]

    def shift_table(self, xi: FFElem):
        key = xi.to_int()
        tab = self._shift_tables.get(key)
        if tab is None:
            row = [self.k0.zero()] * self.dim
            row[0] = self.k0.one()
            rows = [tuple(row)]
            for _ in range(self.dim - 1):
                nxt = [self.k0.zero()] * self.dim
                for i, c in enumerate(row):
                    if c.is_zero():
                        continue
                    nxt[i + 1] = nxt[i + 1] + c
                    nxt[i] = nxt[i] + c * xi
                row = nxt[: self.dim]
                rows.append(tuple(row))
            tab = tuple(rows)
            self._shift_tables[key] = tab
        return tab


class DenseElem:
    def __init__(self, alg: DenseAlgebra, coeffs):
        self.alg = alg
        self.coeffs = tuple(coeffs)
        assert len(self.coeffs) == alg.dim

    def is_p_supported(self) -> bool:
        sup = self.alg.p_support
        return all(c.is_zero() for i, c in enumerate(self.coeffs) if i not in sup)

    def is_constant(self) -> bool:
        return all(c.is_zero() for c in self.coeffs[1:])

    def constant_value(self) -> RatFunc:
        assert self.is_constant()
        return self.coeffs[0]

    def __add__(self, other):
        return DenseElem(self.alg, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return DenseElem(self.alg, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        dim = self.alg.dim
        zero = RatFunc(Poly(self.alg.k0))
        conv = [zero] * (2 * dim - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    conv[i + j] = conv[i + j] + a * b
        return DenseElem(self.alg, _fold(self.alg, conv))

    def frobenius(self) -> "DenseElem":
        p = self.alg.k0.p
        dim = self.alg.dim
        zero = RatFunc(Poly(self.alg.k0))
        conv = [zero] * ((dim - 1) * p + 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                conv[i * p] = a.pth_power()
        return DenseElem(self.alg, _fold(self.alg, conv))

    def __pow__(self, e: int):
        if e == self.alg.k0.p:
            return self.frobenius()
        result = self.alg.const(1)
        acc = self
        while e:
            if e & 1:
                result = result * acc
            e >>= 1
            if e:
                acc = acc * acc
        return result

    def sigma(self, xi: FFElem) -> "DenseElem":
        if xi.is_zero():
            return self
        if self.is_p_supported():
            shift = RatFunc(Poly(self.alg.k0))
            acc = xi
            p = self.alg.k0.p
            idx = 1
            while idx < self.alg.dim:
                c = self.coeffs[idx]
                if not c.is_zero():
                    shift = shift + c.scale_const(acc)
                acc = acc ** p
                idx *= p
            out = list(self.coeffs)
            out[0] = out[0] + shift
            return DenseElem(self.alg, out)
        tab = self.alg.shift_table(xi)
        vec = self.alg.zero_vec()
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            for i, t in enumerate(tab[j]):
                if not t.is_zero():
                    vec[i] = vec[i] + c.scale_const(t)
        return DenseElem(self.alg, vec)

    def __eq__(self, other):
        return self.alg is other.alg and self.coeffs == other.coeffs


def _fold(alg: DenseAlgebra, conv: list) -> list:
    dim = alg.dim
    out = list(conv[:dim])
    while len(out) < dim:
        out.append(RatFunc(Poly(alg.k0)))
    for k in range(dim, len(conv)):
        c = conv[k]
        if c.is_zero():
            continue
        red = alg.ypow(k)
        out = [a + c * b for a, b in zip(out, red)]
    return out
