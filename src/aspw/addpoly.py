"""Additive polynomials, root groups, hyperplanes, linear solves.

An additive polynomial f(X) = sum a_i X^(p^i) is stored by its p-power
coefficients a_0..a_n with a_n = 1 and a_0 != 0, so f is monic and
separable.  Its roots form an F_p-subspace of the coefficient field; the
package works under the standing hypothesis that all p^n of them lie in the
base field k0.

f is F_p-linear on k0, so its root group (the kernel) and a constant's
preimage (an affine solve) are read off the reduced echelon form of its
graph {(x, f(x))}, keyed on the highest base-p digit so that they are what
a scan of k0 in ascending code order would find.

Subspace polynomials are built by composing degree-p steps (wp_compose):
adjoining one new root delta to a subspace V turns f_V into
f_V(X)^p - a^(p-1) f_V(X) with a = f_V(delta).  Hyperplanes of the root
group are enumerated as kernels of normalized F_p-functionals in a fixed
lexicographic order, so every consumer sees the same labels.  A hyperplane is its functional, basis and complement
vector; its subspace polynomial is built only by the callers that read it.
"""

from __future__ import annotations

import itertools

from .errors import (
    DegreeOverflow,
    DependentGenerators,
    IncompatibleContexts,
    InternalCheckError,
    RootsNotInBaseField,
    SingularSystem,
    ZeroScale,
)
from .gf import FFElem, FieldCtx, _digits

# largest degree of an additive polynomial, of a q-th power of a
# nonconstant vector, and of a parsed expression or any part of it; a root
# group therefore has at most this many elements
DEGREE_BOUND = 3 ** 6


def check_degree(p: int, n: int, what: str) -> None:
    """Raise DegreeOverflow if p^n passes DEGREE_BOUND.  2^10 already
    passes it, so a huge n never makes a huge power."""
    if p ** min(n, 10) > DEGREE_BOUND:
        raise DegreeOverflow(
            f"{what} of degree {p}^{n} exceeds the degree bound {DEGREE_BOUND}")


class AdditivePoly:
    """Monic separable additive polynomial over a fixed field context."""

    __slots__ = ("ctx", "a")

    def __init__(self, ctx: FieldCtx, a):
        a = tuple(a)
        if not a:
            raise ValueError("additive polynomial needs at least one coefficient")
        if a[-1] != ctx.one():
            raise ValueError("additive polynomial must be monic")
        if len(a) > 1 and a[0].is_zero():
            raise ValueError("additive polynomial must be separable (a_0 != 0)")
        self.ctx = ctx
        self.a = a

    @property
    def n(self) -> int:
        return len(self.a) - 1

    @property
    def q(self) -> int:
        return self.ctx.p ** self.n

    @staticmethod
    def identity(ctx: FieldCtx) -> "AdditivePoly":
        return AdditivePoly(ctx, (ctx.one(),))

    @staticmethod
    def frobenius_minus_id(ctx: FieldCtx, n: int) -> "AdditivePoly":
        """X^(p^n) - X."""
        coeffs = [ctx.zero()] * (n + 1)
        coeffs[0] = -ctx.one()
        coeffs[n] = ctx.one()
        return AdditivePoly(ctx, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, AdditivePoly)
            and self.ctx == other.ctx
            and self.a == other.a
        )

    def __hash__(self):
        return hash((self.ctx, self.a))

    def __str__(self):
        p = self.ctx.p
        parts = []
        for i in range(self.n, -1, -1):
            c = self.a[i]
            if c.is_zero():
                continue
            e = p ** i
            xs = "X" if e == 1 else f"X^{e}"
            if c == self.ctx.one():
                parts.append(xs)
            elif c.in_prime_field():
                parts.append(f"{c}{xs}")
            else:
                parts.append(f"({c}){xs}")
        return "+".join(parts)

    def __repr__(self):
        return f"AdditivePoly({self})"


def additive_eval(f: AdditivePoly, x):
    """f(x) for x in k0, k0[T], k0(T), or a quotient algebra over k0(T)."""
    if getattr(x, "ctx", None) != f.ctx:
        raise IncompatibleContexts("argument is not over the coefficient field")
    p = f.ctx.p
    acc = f.a[0] * x
    pw = x
    for i in range(1, f.n + 1):
        pw = pw ** p
        if not f.a[i].is_zero():
            acc = acc + f.a[i] * pw
    return acc


def wp_compose(a: FFElem, g: AdditivePoly) -> AdditivePoly:
    """Coefficients of g(X)^p - a^(p-1) g(X), one p-degree higher than g."""
    if a.is_zero():
        raise ZeroScale("scale element must be nonzero")
    ctx = g.ctx
    p = ctx.p
    t = a ** (p - 1)
    out = [ctx.zero()] * (g.n + 2)
    for j, b in enumerate(g.a):
        out[j + 1] = out[j + 1] + b ** p
        out[j] = out[j] - t * b
    return AdditivePoly(ctx, out)


class RootGroup:
    """The F_p-space of roots of an additive polynomial inside k0."""

    __slots__ = ("k0", "basis", "_elements")

    def __init__(self, k0: FieldCtx, basis):
        self.k0 = k0
        self.basis = tuple(basis)
        self._elements = None

    @property
    def n(self) -> int:
        return len(self.basis)

    @property
    def elements(self) -> tuple:
        """All p^n roots in ascending code order, listed on first use.

        A basis element's coefficient is the digit at its pivot, so taking
        the coefficient of the highest pivot as most significant orders codes.
        """
        if self._elements is None:
            out = [self.k0.zero()]
            for b in self.basis:
                out = [x + b * c for c in range(self.k0.p) for x in out]
            self._elements = tuple(out)
        return self._elements

    def __repr__(self):
        return f"RootGroup(n={self.n}, basis={[str(b) for b in self.basis]})"


def _reduce_vector(v: list, rows: dict, p: int) -> list:
    """v minus the multiples of reduced echelon rows {pivot: row} that
    clear it at every pivot."""
    for c, r in rows.items():
        f = v[c]
        if f:
            v = [(a - f * b) % p for a, b in zip(v, r)]
    return v


def _reduced_echelon(vectors, p: int) -> dict:
    """Reduced echelon basis {pivot: row} of the F_p-span of digit vectors.

    Each row's pivot is its highest nonzero digit, which is 1, and every
    other row is 0 there.
    """
    rows: dict = {}
    for v in vectors:
        v = _reduce_vector(list(v), rows, p)
        c = max((i for i, a in enumerate(v) if a), default=None)
        if c is None:
            continue
        inv = pow(v[c], -1, p)
        v = [a * inv % p for a in v]
        for c2, r in rows.items():
            rows[c2] = _reduce_vector(r, {c: v}, p)
        rows[c] = v
    return rows


def _graph_echelon(f: AdditivePoly) -> dict:
    """Reduced echelon form of the graph {(x, f(x))} of f on k0 over F_p.

    A row is (digits of x | digits of f(x)), the image digits above the
    source digits.  So the rows pivoting on a source digit have zero image
    and are the kernel's reduced echelon basis; the others have independent
    images, and they are zero at every kernel pivot.
    """
    ctx = f.ctx
    p, s = ctx.p, ctx.s
    graph = [[int(i == j) for j in range(s)]
             + _digits(additive_eval(f, ctx.from_int(p ** i)).code, p, s)
             for i in range(s)]
    return _reduced_echelon(graph, p)


def root_group(f: AdditivePoly, k0: FieldCtx | None = None) -> RootGroup:
    """All p^n roots of f inside k0: the kernel of f as an F_p-linear map.

    Its reduced echelon basis is the greedy basis of the roots in ascending
    code order: each vector is the smallest code outside the span of the
    ones before it.
    """
    if k0 is None:
        k0 = f.ctx
    if k0 != f.ctx:
        raise IncompatibleContexts("root group must lie in the coefficient field")
    s = k0.s
    rows = _graph_echelon(f)
    basis = [k0.from_coeffs(rows[c][:s]) for c in sorted(rows) if c < s]
    if len(basis) != f.n:
        raise RootsNotInBaseField(
            f"only {k0.p ** len(basis)} of the {f.q} roots lie in the base field"
        )
    if any(not additive_eval(f, b).is_zero() for b in basis):
        raise InternalCheckError(f"kernel basis of {f} has a non-root")
    return RootGroup(k0, basis)


def constant_preimage(f: AdditivePoly, c: FFElem) -> FFElem | None:
    """The smallest code x in k0 with f(x) = c, if any.

    Reducing (0 | c) against the graph's echelon rows leaves (-x | 0) for a
    solution x that is zero at every kernel pivot, which makes it the
    smallest code of its coset x + ker f; a nonzero image part left over
    means c is not in the image.
    """
    ctx = f.ctx
    p, s = ctx.p, ctx.s
    v = _reduce_vector([0] * s + _digits(c.code, p, s), _graph_echelon(f), p)
    if any(v[s:]):
        return None
    x = ctx.from_coeffs([-a for a in v[:s]])
    if additive_eval(f, x) != c:
        raise InternalCheckError(f"affine solve of {f} = {c} gave {x}")
    return x


def subspace_poly(ctx: FieldCtx, vs) -> AdditivePoly:
    """Additive polynomial whose roots are exactly the F_p-span of vs.

    Built one generator at a time through the composition identity; a new
    generator already in the span makes the step scale vanish, which is the
    dependence check.
    """
    f = AdditivePoly.identity(ctx)
    for v in vs:
        if not isinstance(v, FFElem) or v.ctx != ctx:
            raise IncompatibleContexts("generators must be elements of the given field")
        a = additive_eval(f, v)
        if a.is_zero():
            raise DependentGenerators(f"{v} is in the span of the previous generators")
        f = wp_compose(a, f)
    return f


def span_basis(ctx: FieldCtx, candidates, span=None) -> tuple[list, set]:
    """Greedy F_p-basis of candidates, taken in the given order.

    Candidates already in the span are skipped.  A given span (a set
    containing zero) is extended rather than started afresh.  Returns
    (basis, span), where span is the F_p-span of the starting span and the
    basis.
    """
    basis = []
    if span is None:
        span = {ctx.zero()}
    for v in candidates:
        if v in span:
            continue
        basis.append(v)
        span = {s + j * v for s in span for j in range(ctx.p)}
    return basis, span


class Hyperplane:
    """An index-p subgroup of a root group, as the kernel of a functional.

    functional: normalized F_p-functional (first nonzero entry 1) whose
    kernel in basis coordinates is the hyperplane; basis spans it, and eps is
    its designated complement vector.  Its subspace polynomial f_H is
    subspace_poly(k0, basis), built only by the callers that read it.
    """

    __slots__ = ("functional", "basis", "eps", "_label")

    def __init__(self, functional, basis, eps):
        self.functional = tuple(functional)
        self.basis = tuple(basis)
        self.eps = eps
        self._label = "(" + ",".join(map(str, self.functional)) + ")"

    def label(self) -> str:
        return self._label

    def __repr__(self):
        return f"Hyperplane{self.label()}"


def normalized_tuples(p: int, n: int):
    """Nonzero vectors of F_p^n whose first nonzero entry is 1, in product
    order: one per line through the origin."""
    for t in itertools.product(range(p), repeat=n):
        if next((c for c in t if c), None) == 1:
            yield t


def enumerate_hyperplanes(group: RootGroup) -> list[Hyperplane]:
    """All index-p subgroups, one per normalized functional, in fixed order."""
    p, n = group.k0.p, group.n
    out = []
    for func in normalized_tuples(p, n):
        nz = func.index(1)
        eps = group.basis[nz]
        basis = [b - c * eps for i, (b, c) in enumerate(zip(group.basis, func)) if i != nz]
        out.append(Hyperplane(func, basis, eps))
    expected = (p ** n - 1) // (p - 1)
    if len(out) != expected:
        raise InternalCheckError(f"expected {expected} hyperplanes of {group!r}, found {len(out)}")
    return out


# ---------------------------------------------------------------------------
# linear algebra over a commutative ring
# ---------------------------------------------------------------------------

def _field_inverse(x: FFElem) -> FFElem | None:
    return None if x.is_zero() else x.inverse()


def linear_solve(rows, rhs, unit_inverse=_field_inverse, singular=SingularSystem) -> list:
    """Solve M x = rhs by Gauss-Jordan elimination over a commutative ring.

    unit_inverse(a) is a's inverse, or None when a is not a unit; the
    default serves a field.  Each pivot is the first unit at or below the
    diagonal; a column with none raises singular.
    """
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        for r in range(col, n):
            inv = unit_inverse(aug[r][col])
            if inv is not None:
                break
        else:
            raise singular(f"no unit pivot in column {col}")
        aug[col], aug[r] = aug[r], aug[col]
        aug[col] = [c * inv for c in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]
