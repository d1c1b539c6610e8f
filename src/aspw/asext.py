"""Elementary abelian p-extensions of k0(T) given by one additive equation.

An extension is described by a monic separable additive polynomial f whose
roots all lie in k0 and a right-hand side u in k = k0(T), standing for
K = k(y) with f(y) = u.  The module computes:

  * reduced forms: substitutions y -> y - delta that leave no pole order
    and no polynomial-part degree divisible by p^n, with a replayable
    substitution log.  A shift at a pole place moves only that place's
    partial-fraction block and a polynomial shift only the polynomial
    part, so each is reduced on its own.  For f = X^q - X, power descent
    may also pass from u = w^p to w between the shift sweeps;
  * irreducibility of f(X) - u through the index-p subgroup criterion.  The
    degree-p layer of a hyperplane H is z^p - z = u / f_H(eps_H)^p, and the
    layer of the functional phi has the standard form sum phi_i SF_i, where
    SF (Hasse) strips every pole digit and polynomial degree divisible by p
    and keeps of the constant only its trace to F_p.  SF is F_p-linear and
    vanishes exactly on p-th-power images, so the n forms SF_i of the
    coordinate layers decide all (p^n - 1)/(p - 1) layers, and f(X) - u is
    irreducible iff they are F_p-independent; a pole of u of order prime to
    p, infinity included, decides first, with no form built;
  * the ramified places with their exponent bounds;
  * all degree-p subextensions, each verified inside a concrete quotient
    algebra k[Y]/(f(Y) - u) carrying the translation action;
  * the (e, f, g) data of places, assembled from the verdicts of the
    degree-p layers: a layer is ramified iff its standard form has a
    principal part at the place, and otherwise splits iff Tr(mu tau) = 0,
    for its rhs multiplier mu and one trace tau of u less its principal
    part there, taken in k0[T]/(P) down to k0.  Both are F_p-linear in phi,
    so each verdict is a dot product, and the places where u is regular
    read no form and share one set of verdicts per trace vector;
  * combination of independent degree-p generators into one extension and
    the reverse direction, linear relations between two generators.
"""

from __future__ import annotations

from typing import NamedTuple

from .addpoly import (
    AdditivePoly,
    Hyperplane,
    RootGroup,
    _reduced_echelon,
    additive_eval,
    check_degree,
    constant_preimage,
    enumerate_hyperplanes,
    linear_solve,
    normalized_tuples,
    root_group,
    span_basis,
    subspace_poly,
    wp_compose,
)
from .errors import (
    AspwError,
    DegreeOverflow,
    DependentSubextensions,
    IncompatibleContexts,
    InternalCheckError,
    NotAFixedField,
    NotASubgroup,
    NotIrreducible,
)
from .gf import (
    FFElem,
    FieldCtx,
    _digits,
    absolute_trace_value,
    frobenius_power,
    p_adic_split,
    power,
)
from .upoly import (
    PartialFractions,
    Place,
    Poly,
    RatFunc,
    _keep,
    _split_off,
    inv_frobenius_mod,
    partial_fractions,
    pf_string,
    residue_trace,
)


class ExtensionSpec:
    """f(y) = u over k0(T) with caches of derived structure, which
    reduce_global copies between specs; specs have no equality or hash."""

    __slots__ = ("f", "u", "k0", "group", "_hyperplanes", "_algebra", "_forms", "_mus",
                 "_irreducible")

    def __init__(self, f: AdditivePoly, u: RatFunc, k0: FieldCtx | None = None):
        if k0 is None:
            k0 = f.ctx
        if f.ctx != k0 or u.ctx != k0:
            raise IncompatibleContexts("additive polynomial and rhs must share the base field")
        self.f, self.u, self.k0, self.group = f, u, k0, root_group(f, k0)
        self._hyperplanes = self._algebra = self._forms = None
        self._mus = self._irreducible = None

    def _with_u(self, u: RatFunc, keep_forms: bool) -> ExtensionSpec:
        """f(y) = u over the same f and k0, whose root group, hyperplanes and
        layer multipliers it shares; with keep_forms, also forms and irreducibility."""
        out = object.__new__(ExtensionSpec)
        out.f, out.u, out.k0, out.group = self.f, u, self.k0, self.group
        out._hyperplanes, out._algebra, out._mus = self._hyperplanes, None, self._mus
        out._forms = self._forms if keep_forms else None
        out._irreducible = self._irreducible if keep_forms else None
        return out

    def hyperplanes(self) -> list[Hyperplane]:
        if self._hyperplanes is None:
            self._hyperplanes = enumerate_hyperplanes(self.group)
        return self._hyperplanes

    def _layer_mus(self) -> tuple:
        """The rhs multipliers mu_i of the n coordinate layers, built once.

        H's layer generator f_H(y)/f_H(eps_H) moves by H's functional phi,
        so its rhs multiplier mu = f_H(eps_H)^(-p) is F_p-linear in phi;
        mu_i belongs to the i-th unit functional, whose hyperplane is
        spanned by the other basis roots.  mu depends on f alone.
        """
        if self._mus is None:
            basis, k0 = self.group.basis, self.k0
            f_is = [subspace_poly(k0, basis[:i] + basis[i + 1:]) for i in range(len(basis))]
            self._mus = tuple([(additive_eval(f_i, eps) ** k0.p).inverse()
                               for f_i, eps in zip(f_is, basis)])
        return self._mus

    def _layer_forms(self) -> tuple:
        """(SF(mu_i u), coordinates) of the n coordinate layers, built once."""
        if self._forms is None:
            pf = partial_fractions(self.u)
            self._forms = tuple([_standard_form(pf.scale_const(mu)) for mu in self._layer_mus()])
        return self._forms

    def is_irreducible(self) -> bool:
        # a pole of u of order prime to p, infinity included, is a pole of the
        # same order of every layer rhs mu u, which no shift removes, so no
        # layer is reducible; else a layer is reducible iff its rhs is a
        # p-th-power image, i.e. its standard form is 0, so f(X) - u is
        # irreducible iff the n forms are F_p-independent
        if self._irreducible is None:
            pf, p = partial_fractions(self.u), self.k0.p
            d = pf.poly_part.degree()  # -1 for the zero polynomial part
            if any(e % p for _, e, _ in pf.blocks) or (d > 0 and d % p):
                self._irreducible = True
            else:
                coords = [c for _, c in self._layer_forms()]
                self._irreducible = len(_column_space(coords, p)) == self.f.n
        return self._irreducible

    def require_irreducible(self):
        if not self.is_irreducible():
            raise NotIrreducible("f(X) - u is reducible over k")

    def algebra(self) -> "QuotientAlgebra":
        if self._algebra is None:
            self._algebra = QuotientAlgebra(self)
        return self._algebra

    def __repr__(self):
        return f"ExtensionSpec(f={self.f}, u={pf_string(self.u)})"


def check_irreducible(spec: ExtensionSpec) -> bool:
    """True iff f(X) - u is irreducible, i.e. [k(y):k] = p^n.

    The roots of f(X) - u differ by constants, so the Galois image is a
    subgroup of the root group; it is everything iff it lies in no index-p
    subgroup, and lying inside the subgroup fixed by H is exactly
    u / f_H(eps_H)^p being a p-th-power image in k, i.e. the standard form
    of H's layer being 0.  A pole of u, infinity included, of order prime to
    p decides it first (Stichtenoth, Algebraic Function Fields and Codes,
    Prop. 3.7.8; Garcia-Stichtenoth, manuscripta math. 72 (1991)).
    """
    return spec.is_irreducible()


# ---------------------------------------------------------------------------
# reduction engine
# ---------------------------------------------------------------------------

SHIFT = "shift"
DESCEND = "descend"


class SubstitutionLog:
    """Ordered substitutions taking a right side u_start to u_final.

    A "shift" step delta means y -> y - delta, so u drops by image(delta):
    f(delta) for an additive f, the q-power operator for a Witt vector.
    A "descend" step w (only for f = X^q - X and u = descent(w), the p-th
    power or the Witt Frobenius) replaces the generator by y^p - w, so u is
    replaced by w.
    """

    __slots__ = ("image", "descent", "u_start", "u_final", "steps")

    def __init__(self, image, descent, u_start, u_final, steps):
        self.image = image
        self.descent = descent
        self.u_start = u_start
        self.u_final = u_final
        self.steps = tuple(steps)

    def shifts(self):
        return [d for kind, d in self.steps if kind == SHIFT]

    def descents(self):
        return [w for kind, w in self.steps if kind == DESCEND]

    def replay(self) -> bool:
        u = self.u_start
        for kind, val in self.steps:
            if kind == SHIFT:
                u = u - self.image(val)
            else:
                if u != self.descent(val):
                    return False
                u = val
        return u == self.u_final


def _strip_pole(f: AdditivePoly, P: Poly, e: int, Q: Poly, steps: list) -> tuple[int, Poly]:
    """Shift the block Q / P^e while p^n divides e; returns the new (e, Q).

    delta = c / P^k with k = e / p^n and c^(p^n) = Q mod P makes f(delta) a
    proper fraction with poles at P only, whose top digit cancels Q's, so
    the shift moves this block alone.  e = 0 means the block vanished.
    """
    p = f.ctx.p
    while e and e % f.q == 0:
        k = e // f.q
        c = inv_frobenius_mod(Q, P, f.n)
        # c is a nonzero residue mod the irreducible P: in lowest terms, one block
        shift = RatFunc._lowest(c, P ** k)
        steps.append((SHIFT, _keep(shift, PartialFractions(Poly(f.ctx), [(P, k, c)]))))
        # f(delta) = sum a_i c^(p^i) P^(e - k p^i) / P^e
        cp = c
        for i, a in enumerate(f.a):
            if not a.is_zero():
                Q = Q - a * cp * P ** (e - k * p ** i)
            cp = cp.pth_power()
        if Q.is_zero():
            return 0, Q
        j, Q = _split_off(Q, P)
        if j == 0:
            raise InternalCheckError(
                f"pole stripping made no progress for f={f} at P={P}, e={e}")
        e -= j
    return e, Q


def _strip_poly(f: AdditivePoly, r: Poly, steps: list) -> Poly:
    """Shift away polynomial-part degrees divisible by p^n, then a constant in f(k0)."""
    while r.degree() >= 1 and r.degree() % f.q == 0:
        d = r.degree()
        c = frobenius_power(r.leading(), -f.n)
        delta = Poly(f.ctx, [f.ctx.zero()] * (d // f.q) + [c])
        r = r - additive_eval(f, delta)
        steps.append((SHIFT, RatFunc(delta)))
        if r.degree() >= d:
            raise InternalCheckError(
                f"degree stripping made no progress for f={f} at degree {d}")
    if r.degree() == 0:
        x = constant_preimage(f, r.leading())
        if x is not None:
            r = r - additive_eval(f, x)
            steps.append((SHIFT, RatFunc.const(f.ctx, x)))
    return r


def _reduce_rhs(f: AdditivePoly, pf: PartialFractions) -> tuple[RatFunc, list]:
    """Full shift reduction: each pole block in place order, then the polynomial part."""
    steps: list = []
    blocks = []
    for P, e, Q in pf.blocks:
        e, Q = _strip_pole(f, P, e, Q, steps)
        if e:
            blocks.append((P, e, Q))
    r = _strip_poly(f, pf.poly_part, steps)
    return PartialFractions(r, blocks).recombine(), steps


_CONST = (None, 0, 0, 0)  # the coordinate of the constant's trace


def _standard_form(pf: PartialFractions) -> tuple[PartialFractions, dict]:
    """SF(w) for z^p - z, without its constant, and its F_p coordinates.

    Strip, peel off the top digit into the form, repeat.  The coordinates
    map (P, order, j, t) and (None, degree, 0, t) to the nonzero base-p
    digit t of the coefficient of T^j in a pole digit or of T^degree, and
    _CONST to the constant's trace, which vanishes exactly on wp(k0).
    """
    ctx = pf.poly_part.ctx
    p, s = ctx.p, ctx.s
    wp = AdditivePoly.frobenius_minus_id(ctx, 1)
    coords = {}

    def note(place, order, j, c: int):
        for t, d in enumerate(_digits(c, p, s)):
            if d:
                coords[place, order, j, t] = d

    blocks = []
    for P, e, Q in pf.blocks:
        top, form = 0, Poly(ctx)
        while True:
            e, Q = _strip_pole(wp, P, e, Q, [])
            if not e:
                break
            # the lowest P-adic digit of Q is the digit of order e
            Q, C = divmod(Q, P)
            top = top or e
            form = form + C * P ** (top - e)
            for j, c in enumerate(C.coeffs):
                note(P, e, j, c)
            if Q.is_zero():
                break
            j, Q = _split_off(Q, P)
            e -= 1 + j
        if top:
            blocks.append((P, top, form))
    r, poly = pf.poly_part, Poly(ctx)
    while r.degree() >= 1:
        r = _strip_poly(wp, r, [])  # may cancel down to a constant
        if r.degree() >= 1:
            note(None, r.degree(), 0, r.coeffs[-1])
            lead = Poly(ctx, [ctx.zero()] * r.degree() + [r.leading()])
            poly, r = poly + lead, r - lead
    if r.degree() == 0 and (trace := absolute_trace_value(r.leading())):
        coords[_CONST] = trace
    return PartialFractions(poly, blocks), coords


def _column_space(coords: list, p: int) -> list:
    """Reduced echelon rows spanning the columns of coordinate dicts, so
    that a combination c of the dicts vanishes iff c . row = 0 for every row;
    their number is the rank."""
    keys = list(dict.fromkeys(k for c in coords for k in c))
    return list(_reduced_echelon([[c.get(k, 0) for c in coords] for k in keys], p).values())


def _dot(a, b, p: int) -> int:
    return sum(x * y for x, y in zip(a, b)) % p


def reduce_global(spec: ExtensionSpec, descend: bool = False) -> tuple[SubstitutionLog, ExtensionSpec]:
    """Reduce the rhs everywhere; the result passes is_reduced.

    With descend=True, for f = X^q - X only, power descent runs between
    the shift sweeps: while u = w^p is nonconstant, pass to y^p - w.  The
    new generator satisfies the same equation with rhs w, and the
    conjugates still differ by all of F_q (xi -> xi^p is a bijection), so
    irreducibility is preserved; the descended spec is checked for it.
    """
    f = spec.f
    if descend and (f.n < 1 or f != AdditivePoly.frobenius_minus_id(f.ctx, f.n)):
        raise AspwError("power descent applies only to X^q - X equations")
    spec.require_irreducible()
    u, steps = spec.u, []
    while True:
        u, more = _reduce_rhs(f, partial_fractions(u))
        steps.extend(more)
        if not descend or u.is_constant() or not u.is_pth_power():
            break
        u = u.pth_root()
        steps.append((DESCEND, u))
    log = SubstitutionLog(lambda d: additive_eval(f, d), RatFunc.pth_power, spec.u, u, steps)
    # without a descent, u - u_final = f(delta) and mu_i * f(delta) =
    # wp(f_i(delta) / f_i(eps_i)), so each layer's rhs moves by a p-th-power
    # image, which SF kills
    descended = log.descents()
    out = spec._with_u(u, keep_forms=not descended)
    if descended and not check_irreducible(out):
        raise InternalCheckError(
            f"power descent broke irreducibility for f={f}, u={spec.u!r}: got {u!r}")
    if not is_reduced(out):
        raise InternalCheckError(
            f"reduction did not reach a reduced form for f={f}, u={spec.u!r}: "
            f"got {u!r}")
    return log, out


def is_reduced(spec: ExtensionSpec) -> bool:
    """Shape test: no pole order or polynomial degree divisible by p^n."""
    return _is_reduced_rhs(spec.f, partial_fractions(spec.u))


def _is_reduced_rhs(f: AdditivePoly, pf: PartialFractions) -> bool:
    if any(e % f.q == 0 for _, e, _ in pf.blocks):
        return False
    r = pf.poly_part
    if r.degree() >= 1:
        return r.degree() % f.q != 0
    if r.degree() == 0:
        return constant_preimage(f, r.leading()) is None
    return True


# ---------------------------------------------------------------------------
# quotient algebra k[Y]/(f(Y) - u) with the translation action
# ---------------------------------------------------------------------------

class QuotientAlgebra:
    """Concrete model of k(y): polynomials in Y of degree < p^n mod f(Y)-u.

    The maps sigma_xi: g(Y) -> g(Y+xi) for xi in the root group are k-algebra
    automorphisms; elements supported on p-power monomials (the image of
    additive expressions in y) admit O(n) Frobenius and translation, which
    is what the subextension and relation checks use.
    """

    # no reference back to the spec, which caches its algebra: the cycle
    # would keep both alive until the cyclic garbage collector ran
    __slots__ = ("k0", "dim", "p_support", "_ypow", "_shift_tables")

    def __init__(self, spec: ExtensionSpec):
        spec.require_irreducible()
        self.k0 = spec.k0
        p = self.k0.p
        self.dim = p ** spec.f.n
        # indices of 1 and the p-power monomials Y, Y^p, ..., Y^(dim/p)
        self.p_support = frozenset([0] + [p ** i for i in range(spec.f.n)])
        # Y^dim = u - sum_{i<n} a_i Y^(p^i)
        rel = {0: spec.u}
        for i in range(spec.f.n):
            _add_into(rel, p ** i, RatFunc.const(self.k0, -spec.f.a[i]))
        self._ypow = {self.dim: rel}
        self._shift_tables = {}

    def element(self, coeffs) -> "QAElem":
        """sum c_i Y^i for a mapping {i: c_i}; zero c_i are dropped."""
        top = max(coeffs, default=0)
        if top >= self.dim:
            raise DegreeOverflow(
                f"degree {top} expression in a dimension-{self.dim} algebra")
        out = {}
        for i, c in coeffs.items():
            _add_into(out, i, self._lift(c))
        return QAElem(self, out)

    def _lift(self, c) -> RatFunc:
        if isinstance(c, RatFunc):
            if c.ctx != self.k0:
                raise IncompatibleContexts("coefficient over a different field")
            return c
        if isinstance(c, (FFElem, int)):
            return RatFunc.const(self.k0, c)
        raise IncompatibleContexts(f"cannot lift {type(c).__name__} into the algebra")

    def const(self, c) -> "QAElem":
        return self.element({0: c})

    def y(self) -> "QAElem":
        return self.element({1: 1})

    def ypow(self, k: int) -> dict:
        """Y^k reduced mod f(Y) - u, for k >= dim."""
        known = max(self._ypow)
        while known < k:
            prev = self._ypow[known]
            # Y * prev, where the top term wraps around through Y^dim
            vec = {i + 1: c for i, c in prev.items() if i + 1 < self.dim}
            top = prev.get(self.dim - 1)
            if top is not None:
                for i, b in self._ypow[self.dim].items():
                    _add_into(vec, i, top * b)
            known += 1
            self._ypow[known] = vec
        return self._ypow[k]

    def shift_table(self, xi: FFElem) -> tuple:
        """Row j: the constant coefficients {i: c_i} of (Y+xi)^j, for j < dim."""
        key = xi.to_int()
        tab = self._shift_tables.get(key)
        if tab is None:
            rows = [{0: self.k0.one()}]
            for _ in range(self.dim - 1):
                # (Y+xi) * row; the top index j+1 <= dim-1 never overflows
                row = {i + 1: c for i, c in rows[-1].items()}
                for i, c in rows[-1].items():
                    _add_into(row, i, c * xi)
                rows.append(row)
            tab = tuple(rows)
            self._shift_tables[key] = tab
        return tab


def _add_into(vec: dict, i: int, c) -> None:
    """vec[i] += c, keeping only nonzero entries."""
    if i in vec:
        c = vec[i] + c
    if c.is_zero():
        vec.pop(i, None)
    else:
        vec[i] = c


class QAElem:
    """Element of a QuotientAlgebra: {i: c_i} for sum c_i Y^i, nonzero c_i only."""

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg: QuotientAlgebra, coeffs: dict):
        self.alg = alg
        self.coeffs = coeffs
        if coeffs and max(coeffs) >= alg.dim:
            raise InternalCheckError(
                f"algebra element with a Y^{max(coeffs)} coefficient "
                f"in a dimension-{alg.dim} algebra")

    @property
    def ctx(self) -> FieldCtx:
        return self.alg.k0

    def is_p_supported(self) -> bool:
        return self.alg.p_support.issuperset(self.coeffs)

    def is_constant(self) -> bool:
        return self.coeffs.keys() <= {0}

    def constant_value(self) -> RatFunc:
        if not self.is_constant():
            raise AspwError("algebra element is not a constant")
        return self.coeffs.get(0, RatFunc(Poly(self.alg.k0)))

    def _check(self, other: "QAElem"):
        if self.alg is not other.alg:
            raise IncompatibleContexts("elements of different algebras")

    def _coerce(self, other):
        if isinstance(other, QAElem):
            return other
        if isinstance(other, (RatFunc, FFElem, int)):
            return self.alg.const(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        self._check(o)
        out = dict(self.coeffs)
        for i, c in o.coeffs.items():
            _add_into(out, i, c)
        return QAElem(self.alg, out)

    __radd__ = __add__

    def __neg__(self):
        return QAElem(self.alg, {i: -a for i, a in self.coeffs.items()})

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
        if isinstance(other, (RatFunc, FFElem, int)):
            c = self.alg._lift(other)
            if c.is_zero():
                return QAElem(self.alg, {})
            if isinstance(other, FFElem):
                return QAElem(self.alg, {i: a.scale_const(other) for i, a in self.coeffs.items()})
            return QAElem(self.alg, {i: a * c for i, a in self.coeffs.items()})
        if not isinstance(other, QAElem):
            return NotImplemented
        self._check(other)
        conv = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                _add_into(conv, i + j, a * b)
        return QAElem(self.alg, _fold(self.alg, conv))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        self._check(o)
        if not o.is_constant():
            raise AspwError("division is defined for constant algebra elements only")
        c = o.coeffs.get(0)
        if c is None:
            raise ZeroDivisionError("division by zero in the algebra")
        inv = 1 / c
        return QAElem(self.alg, {i: a * inv for i, a in self.coeffs.items()})

    def frobenius(self) -> "QAElem":
        p = self.alg.k0.p
        conv = {i * p: a.pth_power() for i, a in self.coeffs.items()}
        return QAElem(self.alg, _fold(self.alg, conv))

    def __pow__(self, e: int):
        if e < 0:
            raise AspwError("negative powers are not defined in the algebra")
        p = self.alg.k0.p
        if e == p:
            return self.frobenius()
        return power(self, e, QAElem.__mul__, self.alg.const(1))

    def sigma(self, xi: FFElem) -> "QAElem":
        """Translation action Y -> Y + xi for a root xi."""
        if xi.ctx != self.alg.k0:
            raise IncompatibleContexts("translation by an element of a different field")
        if xi.is_zero():
            return self
        if self.is_p_supported():
            # (Y+xi)^(p^j) = Y^(p^j) + xi^(p^j), so only the constant moves
            out = dict(self.coeffs)
            for i, c in self.coeffs.items():
                if i:
                    _add_into(out, 0, c.scale_const(xi ** i))
            return QAElem(self.alg, out)
        tab = self.alg.shift_table(xi)
        out = {}
        for j, c in self.coeffs.items():
            for i, t in tab[j].items():
                _add_into(out, i, c.scale_const(t))
        return QAElem(self.alg, out)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.alg is o.alg and self.coeffs == o.coeffs

    def __hash__(self):
        return hash((id(self.alg), frozenset(self.coeffs.items())))

    def __repr__(self):
        parts = []
        for i, c in sorted(self.coeffs.items()):
            cs = pf_string(c)
            parts.append(cs if i == 0 else f"({cs})Y^{i}")
        return "QAElem(" + (" + ".join(parts) if parts else "0") + ")"


def _fold(alg: QuotientAlgebra, conv: dict) -> dict:
    """Reduce {i: c_i} with indices up to (dim-1)*p mod f(Y) - u into the Y-basis."""
    out = {i: c for i, c in conv.items() if i < alg.dim}
    for k, c in conv.items():
        if k >= alg.dim:
            for i, b in alg.ypow(k).items():
                _add_into(out, i, c * b)
    return out


class FixedBy(NamedTuple):
    elem: QAElem
    subgroup: tuple


class Satisfies(NamedTuple):
    elem: QAElem
    f: AdditivePoly
    rhs: RatFunc


def qa_verify(algebra: QuotientAlgebra, claim) -> bool:
    """Exact verification of a fixed-by or equation claim in the algebra."""
    if isinstance(claim, FixedBy):
        return all(claim.elem.sigma(xi) == claim.elem for xi in claim.subgroup)
    if isinstance(claim, Satisfies):
        lhs = additive_eval(claim.f, claim.elem)
        return lhs == algebra.const(claim.rhs)
    raise AspwError(f"unknown claim type {type(claim).__name__}")


# ---------------------------------------------------------------------------
# degree-p subextensions
# ---------------------------------------------------------------------------

def _ypow_terms(coeffs, p: int, skip_zero: bool = True) -> list[tuple]:
    """(c_i, "y^(p^i)") for the coefficients of an additive expression in y.

    y^1 prints as "y"; zero coefficients are left out unless skip_zero is
    false.
    """
    return [(c, "y" if i == 0 else f"y^{p ** i}")
            for i, c in enumerate(coeffs) if not (skip_zero and c.is_zero())]


def _additive_formula(coeffs, p: int) -> str:
    """sum c_i y^(p^i) over k0, with unit coefficients left implicit."""
    parts = [ys if c == c.ctx.one() else f"({c}){ys}" for c, ys in _ypow_terms(coeffs, p)]
    return "+".join(parts) if parts else "0"


class SubextensionDesc(NamedTuple):
    """One degree-p subextension: fixed hyperplane, generator, equation."""

    hyperplane: Hyperplane
    rhs: RatFunc
    mu: FFElem
    gen_coeffs: tuple

    def formula(self) -> str:
        return _additive_formula(self.gen_coeffs, self.mu.ctx.p)

    def as_algebra_element(self, algebra: QuotientAlgebra) -> QAElem:
        p = self.mu.ctx.p
        return algebra.element({p ** i: c for i, c in enumerate(self.gen_coeffs)})


def subextensions(spec: ExtensionSpec) -> list[SubextensionDesc]:
    """All (p^n-1)/(p-1) degree-p subextensions, each verified in the algebra.

    The generator for hyperplane H is z = j*f_H(y)/f_H(eps_H) with the unit
    j in F_p* chosen so that the rhs multiplier j/f_H(eps_H)^p is smallest
    in canonical element order; this makes the emitted equations stable.
    f_H is built from H's basis and checked by wp_(f_H(eps_H))(f_H(X)) = f(X).
    """
    spec.require_irreducible()
    k0 = spec.k0
    p = k0.p
    algebra = spec.algebra()
    wp = AdditivePoly.frobenius_minus_id(k0, 1)

    def failure(desc, what):
        return InternalCheckError(
            f"subextension generator {desc.formula()} of H={desc.hyperplane.label()} {what} "
            f"for f={spec.f}, u={spec.u!r}")

    out = []
    for h in spec.hyperplanes():
        f_H = subspace_poly(k0, h.basis)
        scale = additive_eval(f_H, h.eps)
        if scale.is_zero() or wp_compose(scale, f_H) != spec.f:
            raise InternalCheckError(
                f"composition identity fails for H={h.label()}, f_H={f_H}, f={spec.f}")
        inv = (scale ** p).inverse()
        best_j = 1
        best_mu = inv
        for j in range(2, p):
            cand = j * inv
            if cand.to_int() < best_mu.to_int():
                best_j = j
                best_mu = cand
        rhs = spec.u.scale_const(best_mu)
        j_el = k0.from_int(best_j)
        scale_inv = scale.inverse()
        gen_coeffs = tuple([j_el * c * scale_inv for c in f_H.a])
        desc = SubextensionDesc(h, rhs, best_mu, gen_coeffs)
        z = desc.as_algebra_element(algebra)
        if not qa_verify(algebra, Satisfies(z, wp, rhs)):
            raise failure(desc, "fails its equation")
        if not qa_verify(algebra, FixedBy(z, h.basis)):
            raise failure(desc, "is moved by its hyperplane")
        if z.sigma(h.eps) != z + algebra.const(j_el):
            raise failure(desc, f"is not moved by {best_j} under eps={h.eps}")
        out.append(desc)
    return out


# ---------------------------------------------------------------------------
# ramification
# ---------------------------------------------------------------------------

class RamifiedPlace(NamedTuple):
    place: Place
    lam: int
    m: int
    e_bound: int
    exact: bool


class RamificationReport(NamedTuple):
    finite: tuple
    infinity: RamifiedPlace | None  # None when infinity is unramified
    reduced_u: RatFunc


def ramification_report(spec: ExtensionSpec) -> RamificationReport:
    """Ramified places of the reduced form with exponent bounds.

    Every finite pole place of the reduced rhs is ramified with e divisible
    by p^(n-m); the bound is exact when m = 0.  The infinite place is
    ramified iff the reduced polynomial part is nonconstant, with the same
    bound for its degree.
    """
    _, red = reduce_global(spec)
    p = spec.k0.p
    n = spec.f.n

    def ramified(place: Place, order: int) -> RamifiedPlace:
        lam, m = p_adic_split(order, p)
        return RamifiedPlace(place, lam, m, p ** (n - m), m == 0)

    pf = partial_fractions(red.u)
    finite = tuple([ramified(Place(P), e) for P, e, _ in pf.blocks])
    r = pf.poly_part
    inf = ramified(Place.infinite(), r.degree()) if r.degree() >= 1 else None
    return RamificationReport(finite, inf, red.u)


# ---------------------------------------------------------------------------
# splitting of places
# ---------------------------------------------------------------------------

class HyperplaneVerdict(NamedTuple):
    hyperplane: Hyperplane
    verdict: str  # place behavior in the fixed field of the hyperplane


class PlaceDecomposition(NamedTuple):
    place: Place
    per_hyperplane: tuple
    e: int
    f: int
    g: int
    decomposition_tags: tuple
    inertia_tags: tuple


def place_decomposition(spec: ExtensionSpec, place: Place) -> PlaceDecomposition:
    """(e, f, g) at one place; see place_decompositions."""
    return place_decompositions(spec, [place])[0]


def place_decompositions(spec: ExtensionSpec, places) -> list[PlaceDecomposition]:
    """(e, f, g) at each place, assembled from the verdicts of all degree-p layers.

    The layer of phi is ramified iff phi applied to the principal parts of
    the forms SF_i at the place is nonzero, and otherwise splits iff
    phi . t = 0, where t_i is the F_p-trace of the rest of SF_i there:
    mu_i (u - B), B u's principal part there, less a p-th-power image
    regular there, so t_i = Tr(mu_i tau), tau the trace to k0 of (u - B)(P).
    The unramified characters span w dimensions and the split ones ws, so
    e = p^(n-w), f = p^(w-ws) and g = p^ws.  Where u is regular nothing
    ramifies and no form is read, so places with the same t share verdicts.
    """
    spec.require_irreducible()
    k0, n, p, ar = spec.k0, spec.f.n, spec.k0.p, spec.k0.arith()
    u, pf = spec.u, partial_fractions(spec.u)
    blocks = {P: (e, Q) for P, e, Q in pf.blocks}
    mus = [mu.code for mu in spec._layer_mus()]

    def verdicts(place, ramify: list, t: list) -> tuple:
        split = list(_reduced_echelon(ramify + [t], p).values())
        per, in_tags, dec_tags = [], [], []
        for h in spec.hyperplanes():
            verdict = ("ramified" if any(_dot(h.functional, row, p) for row in ramify)
                       else "inert" if _dot(h.functional, t, p) else "split")
            per.append(HyperplaneVerdict(h, verdict))
            if verdict != "ramified":
                in_tags.append(h.label())
            if verdict == "split":
                dec_tags.append(in_tags[-1])
        w, ws = n - len(ramify), n - len(split)
        if (len(in_tags), len(dec_tags)) != ((p ** w - 1) // (p - 1), (p ** ws - 1) // (p - 1)):
            raise InternalCheckError(
                f"{len(in_tags)} unramified and {len(dec_tags)} split layers at {place} "
                f"do not fill spaces of dimension {w} and {ws} for f={spec.f}, u={spec.u!r}")
        return (tuple(per), p ** (n - w), p ** (w - ws), p ** ws,
                tuple(dec_tags), tuple(in_tags))

    rows = {}  # (a pole place of u or None, t) -> its verdicts
    out = []
    for place in places:
        P = place.poly
        if P is None:  # u - B is u's constant there
            tau = pf.poly_part.coeffs[0] if pf.poly_part.coeffs else 0
        elif P in blocks:
            e, Q = blocks[P]
            Pe = P ** e
            den = u.den // Pe
            tau = residue_trace((u.num - Q * den) // Pe, den, P)
        else:
            tau = residue_trace(u.num, u.den, P)
        t = [k0.trace_code(ar.mul(mu, tau)) for mu in mus]
        pole = P is None or P in blocks
        key = (place if pole else None, tuple(t))
        if key not in rows:
            ramify = _column_space([{k: v for k, v in coords.items() if k[0] == P and k[1]}
                                    for _, coords in spec._layer_forms()], p) if pole else []
            rows[key] = verdicts(place, ramify, t)
        out.append(PlaceDecomposition(place, *rows[key]))
    return out


# ---------------------------------------------------------------------------
# combining independent degree-p generators
# ---------------------------------------------------------------------------

class CombinedExtension(NamedTuple):
    spec: ExtensionSpec
    mus: tuple

    def formula(self) -> str:
        parts = []
        for i, mu in enumerate(self.mus, start=1):
            if mu == mu.ctx.one():
                parts.append(f"z{i}")
            else:
                parts.append(f"({mu})z{i}")
        return "+".join(parts)


def combine_generators(k0: FieldCtx, gammas, mus) -> CombinedExtension:
    """One equation for the compositum of z_i^p - z_i = gamma_i via y = sum mu_i z_i.

    Requires the gamma_i independent modulo p-th-power images (every
    nontrivial F_p-combination stays outside), which is exactly the
    compositum having full degree p^n.
    """
    gammas = [g if isinstance(g, RatFunc) else RatFunc.const(k0, g) for g in gammas]
    mus = list(mus)
    if len(gammas) != len(mus) or not gammas:
        raise AspwError("need matching nonempty generator and multiplier lists")
    n = len(gammas)
    p = k0.p
    check_degree(p, n, "compositum")
    # SF is F_p-linear and vanishes exactly on the p-th-power images, so one
    # combination per line decides; the first failing one in product order
    # is always normalized
    rows = _column_space([_standard_form(partial_fractions(g))[1] for g in gammas], p)
    for combo in normalized_tuples(p, n):
        if not any(_dot(combo, row, p) for row in rows):
            raise DependentSubextensions(
                f"combination {combo} of the right-hand sides is a p-th-power image"
            )
    f = subspace_poly(k0, mus)
    u = RatFunc(Poly(k0))
    for i in range(n):
        mu = mus[i]
        g = gammas[i]
        ell = RatFunc(Poly(k0))
        gp = g
        h = RatFunc(Poly(k0))
        for jj in range(f.n + 1):
            # ell holds l_j(gamma) = gamma + ... + gamma^(p^(j-1)), l_0 = 0
            if jj > 0:
                ell = ell + gp
                gp = gp.pth_power()
            if not f.a[jj].is_zero():
                h = h + (f.a[jj] * mu ** (p ** jj)) * ell
        u = u + h
    spec = ExtensionSpec(f, u, k0)
    if not check_irreducible(spec):
        raise InternalCheckError(
            f"combined extension f={f}, u={u!r} of gammas {gammas} and mus {mus} "
            f"is not of full degree")
    return CombinedExtension(spec, tuple(mus))


# ---------------------------------------------------------------------------
# linear relations between generators
# ---------------------------------------------------------------------------

class GeneratorRelation(NamedTuple):
    """z = sum A_i y^(p^i) + D, with the kernel of the linear part known."""

    A: tuple
    D: RatFunc
    subgroup: tuple
    mu_basis: tuple

    def formula(self, ds: str) -> str:
        """z as printed, with ds = pf_string(D), which the caller prints too."""
        body = _additive_formula(self.A, self.D.ctx.p)
        if ds != "0":
            body = body + " + " + ds if body != "0" else ds
        return body


def generator_relation(
    spec: ExtensionSpec, z: QAElem, subgroup
) -> GeneratorRelation:
    """Express an algebra element generating the fixed field of a subgroup.

    The differences sigma_mu(z) - z over a basis mu of the root group must
    be constants in k0; solving the Moore system for them produces the
    linearized part, and the constant remainder is D.  The claimed subgroup
    must be exactly the kernel of the linearized part on the root group.
    """
    spec.require_irreducible()
    algebra = spec.algebra()
    if z.alg is not algebra:
        raise IncompatibleContexts("element lives in a different algebra")
    k0 = spec.k0
    group = spec.group
    _, sub_elems = span_basis(k0, subgroup)
    for x in sub_elems:
        if x not in group.elements:
            raise NotASubgroup(f"{x} is not a root of the defining polynomial")
    mu_basis, fixed_count = _adapted_basis(group, sub_elems)
    gammas = []
    for mu in mu_basis:
        diff = z.sigma(mu) - z
        if not diff.is_constant():
            raise NotAFixedField("generator moves by a non-constant amount")
        val = diff.constant_value()
        if not val.is_constant():
            raise NotAFixedField("generator moves by a non-scalar amount")
        gammas.append(val.constant_value())
    n = group.n
    for i in range(n - fixed_count, n):
        if not gammas[i].is_zero():
            raise NotAFixedField("claimed subgroup does not fix the generator")
    rows = [[mu ** k0.p ** j for j in range(n)] for mu in mu_basis]
    A = tuple(linear_solve(rows, gammas))
    lin = algebra.element({k0.p ** i: a for i, a in enumerate(A)})
    rem = z - lin
    if not rem.is_constant():
        raise InternalCheckError(
            f"remainder {rem} of the linear relation A={A} is not constant for z={z}")
    D = rem.constant_value()
    for xi in group.elements:
        lval = _linear_eval(A, xi)
        if lval.is_zero() != (xi in sub_elems):
            raise NotAFixedField("kernel of the linear part differs from the subgroup")
    if lin + algebra.const(D) != z:
        raise InternalCheckError(
            f"linear relation A={A}, D={D!r} does not reproduce z={z}")
    return GeneratorRelation(A, D, tuple(sorted(sub_elems, key=lambda e: e.to_int())),
                             tuple(mu_basis))


def _linear_eval(A, x: FFElem) -> FFElem:
    acc = x.ctx.zero()
    pw = x
    p = x.ctx.p
    for a in A:
        acc = acc + a * pw
        pw = pw ** p
    return acc


def _adapted_basis(group: RootGroup, sub_elems: set):
    """Basis of the root group: complement vectors first, subgroup vectors last."""
    sub_basis, span = span_basis(group.k0, sorted(sub_elems, key=lambda e: e.to_int()))
    comp_basis, _ = span_basis(group.k0, group.elements, span=span)
    return comp_basis + sub_basis, len(sub_basis)
