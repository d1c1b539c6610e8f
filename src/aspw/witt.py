"""Witt vectors of fixed finite length and the extensions they describe.

The universal addition, subtraction and multiplication polynomials are
generated once per (p, m) by the ghost-component recursion over exact
integers; every divide-by-p step is asserted exact, and the reduced
mod-p tables drive all runtime arithmetic.  The tables are isobaric
(x_j and y_j weigh p^j), which is checked when they are built, so
vectors over k0(T) are evaluated on polynomial numerators over one
common denominator D, a_j = x_j D^(p^j), and each output component is
brought to lowest terms once.

On top of the ring layer sit the q-power operators, Galois-ring bases
and unit inversion, cyclic subextension data with its generator
formula, generator relations between two length-m specs, slot-by-slot
reduction of a spec to the standard pole/degree shape, and the
splitting type of the infinite place read off a reduced polynomial
part.
"""

from __future__ import annotations

from typing import NamedTuple

from .addpoly import DEGREE_BOUND, AdditivePoly, linear_solve, root_group
from .asext import DESCEND, SHIFT, SubstitutionLog, _is_reduced_rhs, _reduce_rhs, _ypow_terms
from .errors import (
    AspwError,
    DegreeOverflow,
    FieldTooLarge,
    IdentityFailure,
    InternalCheckError,
    LengthCapExceeded,
    LengthMismatch,
    NotPrime,
    NotReduced,
    RingMismatch,
    SingularWittSystem,
)
from .gf import (
    FFElem,
    FieldCtx,
    absolute_trace_value,
    is_prime,
    p_adic_split,
    power,
)
from .upoly import Poly, RatFunc, partial_fractions, poly_gcd

# ---------------------------------------------------------------------------
# exact integer polynomials in 2m variables, as {exponent tuple: coefficient}
# ---------------------------------------------------------------------------


def _mp_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def _mp_sub(a: dict, b: dict) -> dict:
    return _mp_add(a, {k: -v for k, v in b.items()})


def _mp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple([i + j for i, j in zip(ka, kb)])
            w = out.get(k, 0) + va * vb
            if w:
                out[k] = w
            else:
                out.pop(k, None)
    return out


def _mp_scale(a: dict, c: int) -> dict:
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def _mp_div_exact(a: dict, c: int) -> dict:
    out = {}
    for k, v in a.items():
        q, r = divmod(v, c)
        if r:
            raise InternalCheckError(
                f"ghost recursion hit a non-exact division: coefficient {v} "
                f"of monomial {k} by {c}")
        out[k] = q
    return out


def _mp_mod(a: dict, p: int) -> dict:
    return {k: v % p for k, v in a.items() if v % p}


def _var_power(idx: int, nvars: int, e: int) -> dict:
    exps = [0] * nvars
    exps[idx] = e
    return {tuple(exps): 1}


def _ghost_of_vars(p: int, i: int, offset: int, nvars: int) -> dict:
    """Ghost coordinate i (1-based) of the variable block at offset."""
    acc: dict = {}
    for j in range(1, i + 1):
        term = _var_power(offset + j - 1, nvars, p ** (i - j))
        acc = _mp_add(acc, _mp_scale(term, p ** (j - 1)))
    return acc


def ghost_components(p: int, comps) -> tuple[int, ...]:
    """Ghost coordinates of an integer vector; characteristic-0 diagnostics."""
    out = []
    for i in range(1, len(comps) + 1):
        acc = 0
        for j in range(1, i + 1):
            acc += p ** (j - 1) * comps[j - 1] ** (p ** (i - j))
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# universal operation tables
# ---------------------------------------------------------------------------

LENGTH_CAP = 4
# largest p admitted at each length 1..LENGTH_CAP: each admitted table set
# builds in under a second on a 2-core Xeon with CPython 3.11, while (13, 3)
# takes 2 s and (5, 4) 20 s
WITT_P_BOUND = (2 ** 64, 521, 11, 3)

_TABLE_CACHE: dict = {}


def _check_isobaric(p: int, m: int, op: str, polys) -> None:
    """Every monomial of coordinate i (0-based) must have weight p^i when
    x_j and y_j weigh p^j; for "mul", weight p^i in x and in y separately.

    witt_arith's evaluation over one common denominator relies on it.
    """
    for i, poly in enumerate(polys):
        for exps in poly:
            wx = sum(e * p ** j for j, e in enumerate(exps[:m]))
            wy = sum(e * p ** j for j, e in enumerate(exps[m:]))
            ok = wx == wy == p ** i if op == "mul" else wx + wy == p ** i
            if not ok:
                raise InternalCheckError(
                    f"table polynomial is not isobaric: p={p}, m={m}, op={op}, "
                    f"i={i}, monomial {exps} has weights ({wx}, {wy})")


class WittUniversalTables:
    """Mod-p operation polynomials for W_m.

    polys[op][i], for op "add", "sub" or "mul", gives coordinate i+1 of
    x op y as a polynomial in the 2m variables (x_1..x_m, y_1..y_m) with
    coefficients in {1..p-1}: the exact-integer polynomials of
    _integer_tables mod p, which it does not keep.  The tables are
    checked isobaric on construction.
    """

    __slots__ = ("p", "m", "polys")

    def __init__(self, p, m, polys_int):
        self.p = p
        self.m = m
        self.polys = {op: tuple([_mp_mod(w, p) for w in ws]) for op, ws in polys_int.items()}
        for op, polys in self.polys.items():
            _check_isobaric(p, m, op, polys)

    def __repr__(self):
        return f"WittUniversalTables(p={self.p}, m={self.m})"


def _integer_tables(p: int, m: int) -> dict:
    """The exact-integer "add", "sub" and "mul" polynomials of W_m."""
    nvars = 2 * m
    one = {(0,) * nvars: 1}
    gx = [_ghost_of_vars(p, i, 0, nvars) for i in range(1, m + 1)]
    gy = [_ghost_of_vars(p, i, m, nvars) for i in range(1, m + 1)]

    def solve(targets):
        # coordinate i satisfies ghost_i(w) = target_i; peel off the known
        # lower coordinates and divide by p^(i-1), which must be exact
        ws: list = []
        for i in range(1, m + 1):
            acc = targets[i - 1]
            for j in range(1, i):
                pw = power(ws[j - 1], p ** (i - j), _mp_mul, one)
                acc = _mp_sub(acc, _mp_scale(pw, p ** (j - 1)))
            ws.append(_mp_div_exact(acc, p ** (i - 1)))
        return ws

    return {"add": solve([_mp_add(gx[i], gy[i]) for i in range(m)]),
            "sub": solve([_mp_sub(gx[i], gy[i]) for i in range(m)]),
            "mul": solve([_mp_mul(gx[i], gy[i]) for i in range(m)])}


def build_tables(p: int, m: int) -> WittUniversalTables:
    """Generate (memoized) the length-m operation polynomials for prime p."""
    if m < 1:
        raise AspwError("length must be at least 1")
    if m > LENGTH_CAP:
        raise LengthCapExceeded(f"length {m} exceeds the cap {LENGTH_CAP}")
    if p > WITT_P_BOUND[m - 1]:
        raise FieldTooLarge(
            f"p={p} exceeds the bound {WITT_P_BOUND[m - 1]} for length {m}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    tables = _TABLE_CACHE.get((p, m))
    if tables is None:
        tables = _TABLE_CACHE[(p, m)] = WittUniversalTables(p, m, _integer_tables(p, m))
    return tables


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


def _ring_zero(sample):
    if isinstance(sample, FFElem):
        return sample.ctx.zero()
    return RatFunc(Poly(sample.ctx))


def _ring_key(sample):
    return (type(sample).__name__, sample.ctx)


class WittVector:
    """A length-m vector; +, - and * are the Witt ring operations.

    Components are either all FFElem or all RatFunc over one context.
    Vectors are immutable values.
    """

    __slots__ = ("tables", "comps")

    def __init__(self, tables: WittUniversalTables, comps):
        comps = tuple(comps)
        if len(comps) != tables.m:
            raise LengthMismatch(
                f"expected {tables.m} components, got {len(comps)}")
        for c in comps:
            if not isinstance(c, (FFElem, RatFunc)):
                raise AspwError(
                    "components must be field elements or rational functions")
        key = _ring_key(comps[0])
        if any(_ring_key(c) != key for c in comps[1:]):
            raise RingMismatch("mixed component rings in one vector")
        self.tables = tables
        self.comps = comps

    # -- basics --------------------------------------------------------------

    @property
    def m(self) -> int:
        return self.tables.m

    @property
    def ctx(self) -> FieldCtx:
        return self.comps[0].ctx

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def is_rational(self) -> bool:
        return isinstance(self.comps[0], RatFunc)

    def is_constant(self) -> bool:
        if not self.is_rational():
            return True
        return all(c.is_constant() for c in self.comps)

    def frob(self, i: int = 1) -> "WittVector":
        """Componentwise p^i-th power; distributes over the Witt operations."""
        e = self.tables.p ** i
        return WittVector(self.tables, [c ** e for c in self.comps])

    def zero_like(self) -> "WittVector":
        z = _ring_zero(self.comps[0])
        return WittVector(self.tables, (z,) * self.m)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        return witt_arith("add", self, other)

    def __sub__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        return witt_arith("sub", self, other)

    def __mul__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        return witt_arith("mul", self, other)

    def __neg__(self):
        return witt_arith("sub", self.zero_like(), self)

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        if (self.tables.p, self.m) != (other.tables.p, other.m):
            return False
        return self.comps == other.comps

    def __hash__(self):
        return hash((self.tables.p, self.m, self.comps))

    def __str__(self):
        return "[" + "; ".join(str(c) for c in self.comps) + "]"

    def __repr__(self):
        return f"WittVector({self})"


def _eval_table_poly(poly: dict, vals, zero):
    """Evaluate one reduced operation polynomial at field elements or at
    polynomials; being isobaric, it has no constant monomial.
    """
    cache: dict = {}
    acc = zero
    for exps, c in poly.items():
        term = None
        for idx, e in enumerate(exps):
            if not e:
                continue
            pw = cache.get((idx, e))
            if pw is None:
                pw = vals[idx] ** e
                cache[(idx, e)] = pw
            term = pw if term is None else term * pw
        acc = acc + (term if c == 1 else term * c)
    return acc


def _lcm_denominator(comps) -> Poly:
    """The monic lcm of the components' (monic) denominators."""
    D = comps[0].den
    for c in comps[1:]:
        d = c.den
        if d.is_constant() or d == D:
            continue
        D = d if D.is_constant() else D * (d // poly_gcd(D, d))
    return D


def _numerators(comps, D: Poly):
    """a_j = x_j * D^(p^j) as polynomials, with the powers D^(p^j).

    Every denominator divides D, so each a_j is a polynomial.
    """
    nums, dens = [], []
    for c in comps:
        dens.append(D)
        nums.append(c.num * (D // c.den) if not c.num.is_zero() else c.num)
        D = D.pth_power()
    return nums, dens


def witt_arith(op: str, a: WittVector, b: WittVector) -> WittVector:
    """Apply one Witt ring operation: op is "add", "sub" or "mul".

    Rational vectors are evaluated on polynomial numerators.  With
    a_j = x_j D^(p^j) for a common denominator D, isobaric S_i and D_i
    give S_i(x, y) = S_i(a, b) / D^(p^i); P_i has weight p^i in x and in
    y separately, so each operand gets its own denominator and
    P_i(x, y) = P_i(a, b) / (Da^(p^i) Db^(p^i)).  Each output component
    is then brought to lowest terms once.
    """
    polys = a.tables.polys.get(op)
    if polys is None:
        raise AspwError(f"unknown Witt operation {op!r}")
    if (a.tables.p, a.m) != (b.tables.p, b.m):
        raise LengthMismatch(
            f"cannot combine W_{a.m}(p={a.tables.p}) with W_{b.m}(p={b.tables.p})")
    if _ring_key(a.comps[0]) != _ring_key(b.comps[0]):
        raise RingMismatch("operands live over different coefficient rings")
    if not a.is_rational():
        vals = a.comps + b.comps
        zero = a.ctx.zero()
        return WittVector(a.tables, [_eval_table_poly(w, vals, zero) for w in polys])
    if op == "mul":
        xs, da = _numerators(a.comps, _lcm_denominator(a.comps))
        ys, db = _numerators(b.comps, _lcm_denominator(b.comps))
        dens = [u * v for u, v in zip(da, db)]
    else:
        D = _lcm_denominator(a.comps + b.comps)
        xs, dens = _numerators(a.comps, D)
        ys, _ = _numerators(b.comps, D)
    vals = xs + ys
    zero = Poly(a.ctx)
    return WittVector(a.tables, [RatFunc(_eval_table_poly(w, vals, zero), den)
                                 for w, den in zip(polys, dens)])


def teichmuller(tables: WittUniversalTables, u) -> WittVector:
    """The multiplicative lift (u, 0, ..., 0)."""
    zero = _ring_zero(u)
    return WittVector(tables, (u,) + (zero,) * (tables.m - 1))


def asw_operator(x: WittVector, q: int) -> WittVector:
    """x^q - x (Witt difference) with a componentwise q-th power first."""
    _q_exponent(x.tables.p, q)
    _check_power_degree(x, q)
    powered = WittVector(x.tables, [c ** q for c in x.comps])
    return witt_arith("sub", powered, x)


# ---------------------------------------------------------------------------
# the Galois ring W_m(F_q) inside vectors over k0
# ---------------------------------------------------------------------------


def _in_subfield(c: FFElem, q: int) -> bool:
    return c ** q == c


def _q_exponent(p: int, q: int) -> int:
    """n with q = p^n and n >= 1."""
    lam, n = p_adic_split(q, p) if q >= 1 else (0, 0)
    if lam != 1 or n < 1:
        raise AspwError(f"{q} is not a positive power of {p}")
    return n


def _embedded_exponent(p: int, q: int, k0: FieldCtx) -> int:
    """n with q = p^n, where F_q must embed in k0."""
    n = _q_exponent(p, q)
    if k0.s % n != 0:
        raise AspwError(f"F_{q} does not embed in the constant field of order {k0.order()}")
    return n


def _check_power_degree(x: WittVector, q: int) -> None:
    """A q-th power multiplies degrees in T by q, so a nonconstant vector
    takes q-th powers only up to DEGREE_BOUND; constant vectors take any."""
    if q > DEGREE_BOUND and not x.is_constant():
        raise DegreeOverflow(
            f"q={q} exceeds the degree bound {DEGREE_BOUND} of a nonconstant vector")


def _require_galois_ring(x: WittVector, q: int, what: str) -> None:
    if x.is_rational():
        raise AspwError(f"{what} must have constant components")
    if not all(_in_subfield(c, q) for c in x.comps):
        raise AspwError(f"{what} has a component outside the order-{q} subfield")


def default_galois_basis(tables: WittUniversalTables, k0: FieldCtx, q: int) -> tuple:
    """Teichmuller lifts of the canonical F_p-basis of F_q inside k0.

    The canonical basis is the greedy one of F_q in ascending code order,
    the basis of the root group of X^q - X.
    """
    n = _embedded_exponent(tables.p, q, k0)
    picked = root_group(AdditivePoly.frobenius_minus_id(k0, n)).basis
    return tuple([teichmuller(tables, c) for c in picked])


def witt_unit_inverse(x: WittVector, q: int) -> WittVector:
    """Inverse of a unit of W_m(F_q), via the order of the unit group."""
    _require_galois_ring(x, q, "the element")
    if x.comps[0].is_zero():
        raise AspwError("not a unit: first coordinate is zero")
    m = x.m
    one = teichmuller(x.tables, x.ctx.one())
    inv = power(x, q ** (m - 1) * (q - 1) - 1, WittVector.__mul__, one)
    if x * inv != one:
        raise InternalCheckError(f"unit inversion failed for x={x}, q={q}")
    return inv


# ---------------------------------------------------------------------------
# extension specs over k0(T)
# ---------------------------------------------------------------------------


class WittExtensionSpec:
    """The equation y^q - y = alpha (Witt difference) over k = k0(T)."""

    __slots__ = ("tables", "q", "n", "alpha")

    def __init__(self, tables: WittUniversalTables, q: int, alpha: WittVector):
        if not alpha.is_rational():
            raise AspwError("the right side must have rational components")
        if (alpha.tables.p, alpha.m) != (tables.p, tables.m):
            raise LengthMismatch("vector does not match the tables")
        self.n = _embedded_exponent(tables.p, q, alpha.ctx)
        _check_power_degree(alpha, q)
        self.tables = tables
        self.q = q
        self.alpha = alpha

    @property
    def k0(self) -> FieldCtx:
        return self.alpha.ctx

    def __repr__(self):
        return f"WittExtensionSpec(q={self.q}, alpha={self.alpha})"


def witt_is_reduced(spec: WittExtensionSpec) -> bool:
    """Componentwise shape test: every slot passes the q-power shape rules."""
    fq = AdditivePoly.frobenius_minus_id(spec.k0, spec.n)
    return all(_is_reduced_rhs(fq, partial_fractions(c)) for c in spec.alpha.comps)


REDUCE_CAP = 3


def _slot_vector(tables: WittUniversalTables, value: RatFunc,
                 j: int) -> WittVector:
    zero = RatFunc(Poly(value.ctx))
    comps = [zero] * tables.m
    comps[j] = value
    return WittVector(tables, comps)


def _slot_pass(spec_tables, fq, q, vec, steps):
    """Reduce each slot in order with a single total shift per slot.

    A slot-j shift only perturbs later slots, so one sweep leaves every
    component in reduced shape.
    """
    reds = []  # each slot's reduced value, which keeps its decomposition
    for j in range(spec_tables.m):
        u = vec.comps[j]
        u_red, slot_steps = _reduce_rhs(fq, partial_fractions(u))
        reds.append(u_red if slot_steps else u)
        if not slot_steps:
            continue
        delta = sum((d for _, d in slot_steps), RatFunc(Poly(u.ctx)))
        theta = _slot_vector(spec_tables, delta, j)
        vec = vec - asw_operator(theta, q)
        steps.append((SHIFT, theta))
    for j, (got, red) in enumerate(zip(vec.comps, reds)):
        if got != red:
            raise InternalCheckError(
                f"slot reduction left the wrong residue in slot {j + 1} for "
                f"q={q}: got {got}, expected {red}")
    return WittVector(spec_tables, reds)


def witt_reduce(spec: WittExtensionSpec, descend: bool = False):
    """Rewrite the right side in the standard pole/degree shape.

    Shifts are vectors supported in a single slot; the slot value is the
    total shift the one-variable reduction would apply to that component.
    With descend=True, a componentwise p-th root is taken whenever every
    component is a p-th power (and some component is nonconstant), and
    the sweep restarts; the descended equation generates the same field,
    so this trades the given presentation for a smaller one.  Returns
    (log, reduced spec).
    """
    if spec.tables.m > REDUCE_CAP:
        raise LengthCapExceeded(
            f"reduction is capped at length {REDUCE_CAP}")
    fq = AdditivePoly.frobenius_minus_id(spec.k0, spec.n)
    vec = spec.alpha
    steps: list = []
    while True:
        vec = _slot_pass(spec.tables, fq, spec.q, vec, steps)
        if not descend or vec.is_constant():
            break
        if not all(c.is_pth_power() for c in vec.comps):
            break
        beta = WittVector(spec.tables, [c.pth_root() for c in vec.comps])
        steps.append((DESCEND, beta))
        vec = beta
    out = WittExtensionSpec(spec.tables, spec.q, vec)
    if not witt_is_reduced(out):
        raise InternalCheckError(
            f"witt reduction did not reach reduced shape for alpha={spec.alpha}, "
            f"q={spec.q}: stopped at {vec}")
    log = SubstitutionLog(lambda theta: asw_operator(theta, spec.q), lambda v: v.frob(1),
                          spec.alpha, vec, steps)
    return log, out


# ---------------------------------------------------------------------------
# cyclic subextensions
# ---------------------------------------------------------------------------


class WittSubextension(NamedTuple):
    """One cyclic piece: multiplier xi, its equation, and its generator.

    The generator is sum_i xi^(p^i) . y^(p^i) (Witt products and sums,
    componentwise powers), and it satisfies z^p - z = xi . alpha.  The
    piece has full degree p^m exactly when xi is a unit.
    """

    xi: WittVector
    rhs: WittVector
    gen_coeffs: tuple
    full_degree: bool

    def formula(self) -> str:
        terms = _ypow_terms(self.gen_coeffs, self.xi.tables.p, skip_zero=False)
        return " + ".join(f"({c}).{ys}" for c, ys in terms)


def cyclic_subextension(xi: WittVector, alpha: WittVector,
                        q: int) -> WittSubextension:
    """The cyclic subextension cut out by a Galois-ring multiplier.

    xi lives in W_m(F_q); alpha is the q-power right side over k.  The
    returned equation is the p-power equation z^p - z = xi . alpha.
    """
    n = _embedded_exponent(xi.tables.p, q, alpha.ctx)
    _require_galois_ring(xi, q, "the multiplier")
    if not alpha.is_rational():
        raise AspwError("the right side must have rational components")
    lifted = WittVector(alpha.tables, [RatFunc.const(alpha.ctx, c) for c in xi.comps])
    rhs = lifted * alpha
    gen_coeffs = tuple([xi.frob(i) for i in range(n)])
    return WittSubextension(xi, rhs, gen_coeffs,
                            not xi.comps[0].is_zero())


# ---------------------------------------------------------------------------
# generator relations between two specs
# ---------------------------------------------------------------------------


class WittGeneratorRelation(NamedTuple):
    """z = sum A_i . y^(p^i) + D with A_i in W_m(F_q) and D over k."""

    A: tuple
    D: WittVector
    mus: tuple

    def formula(self) -> str:
        parts = [f"({c}).{ys}" for c, ys in _ypow_terms(self.A, self.D.tables.p)]
        body = " + ".join(parts) if parts else "[0]"
        if not self.D.is_zero():
            body = body + " + " + str(self.D)
        return body


def _apply_linear_form(A, vec: WittVector) -> WittVector:
    """sum_i A_i . vec^(p^i) with the A_i lifted into vec's ring."""
    ctx = vec.ctx
    acc = vec.zero_like()
    for i, a in enumerate(A):
        lifted = WittVector(vec.tables, [RatFunc.const(ctx, c) for c in a.comps])
        acc = acc + lifted * vec.frob(i)
    return acc


def witt_generator_relation(alpha: WittExtensionSpec, beta: WittExtensionSpec,
                            xi_targets) -> WittGeneratorRelation:
    """Express beta's generator through alpha's.

    The translations of alpha's generator are labeled by the canonical
    Teichmuller basis mu_1..mu_n of the Galois ring (default_galois_basis);
    the caller supplies the translations xi_i of beta's generator under the
    same automorphisms.  Solving the Moore-style system M . A = xi by
    Gauss-Jordan elimination with unit pivots (addpoly.linear_solve) gives
    the coefficients, and the shift D is recovered slot by slot so that
    beta = sum A_i . alpha^(p^i) + the q-power image of D, an identity
    checked before returning.
    """
    if (alpha.q, alpha.tables.p, alpha.tables.m) != \
            (beta.q, beta.tables.p, beta.tables.m):
        raise AspwError("the two specs describe different Witt rings")
    if alpha.k0 != beta.k0:
        raise AspwError("the two specs have different constant fields")
    tables = alpha.tables
    q = alpha.q
    n = alpha.n
    mus = default_galois_basis(tables, alpha.k0, q)
    xi_targets = tuple(xi_targets)
    if len(xi_targets) != n:
        raise AspwError(f"expected {n} target vectors")
    for v in xi_targets:
        _require_galois_ring(v, q, "a target")

    rows = [[mu.frob(j) for j in range(n)] for mu in mus]
    A = linear_solve(rows, xi_targets,
                     lambda x: None if x.comps[0].is_zero() else witt_unit_inverse(x, q),
                     SingularWittSystem)

    applied = _apply_linear_form(A, alpha.alpha)
    residue = beta.alpha - applied
    steps: list = []
    fq = AdditivePoly.frobenius_minus_id(alpha.k0, n)
    left = _slot_pass(tables, fq, q, residue, steps)
    for j, comp in enumerate(left.comps):
        if not comp.is_zero():
            raise IdentityFailure(
                f"slot {j + 1} residue is not a q-power image; the specs do "
                "not describe the same field with these targets")
    d_acc = sum((theta for _, theta in steps), residue.zero_like())
    if beta.alpha != applied + asw_operator(d_acc, q):
        raise InternalCheckError(
            f"generator relation identity check failed for alpha={alpha.alpha}, "
            f"beta={beta.alpha}, q={q}, A={[str(a) for a in A]}, D={d_acc}")
    return WittGeneratorRelation(tuple(A), d_acc, mus)


# ---------------------------------------------------------------------------
# the infinite place
# ---------------------------------------------------------------------------


def _require_polynomial(gamma: WittVector) -> None:
    if not all(c.is_polynomial() for c in gamma.comps):
        raise NotReduced("a polynomial part cannot carry poles")


def witt_infinity_splitting(gamma: WittVector) -> tuple[int, int, int]:
    """(e, f, g) at the infinite place from a reduced polynomial part.

    Cyclic case q = p.  With s leading zero components and the first
    nonconstant component at index t (m when all are constant), e = p^(m-t),
    f = p^(t-s), g = p^s.  The input must be in reduced shape: polynomial
    components only, no p-divisible degrees, and a leading constant must
    not be a p-power image in k0.
    """
    p = gamma.tables.p
    m = gamma.m
    if not gamma.is_rational():
        raise AspwError("expected components in k0(T)")
    _require_polynomial(gamma)
    s = 0
    while s < m and gamma.comps[s].is_zero():
        s += 1
    if s == m:
        return (1, 1, p ** m)
    for idx in range(s, m):
        c = gamma.comps[idx]
        if not c.is_constant() and c.poly_part().degree() % p == 0:
            raise NotReduced("a component has p-divisible degree")
    first = gamma.comps[s]
    if first.is_constant():
        # additive Hilbert 90: c = x^p - x has a solution in k0 iff Tr(c) = 0
        if absolute_trace_value(first.constant_value()) == 0:
            raise NotReduced("the leading constant is a p-power image")
    t = s
    while t < m and gamma.comps[t].is_constant():
        t += 1
    result = (p ** (m - t), p ** (t - s), p ** s)
    if result[0] * result[1] * result[2] != p ** m:
        raise InternalCheckError(
            f"splitting degrees {result} do not multiply to p^m={p ** m} "
            f"for gamma={gamma}")
    return result


def witt_infinity_full_split(gamma: WittVector, q: int) -> bool:
    """Does the infinite place split completely (general q)?

    True exactly when the polynomial part reduces to the zero vector,
    i.e. is a q-power image of a polynomial-component vector.
    """
    _require_polynomial(gamma)
    _, red = witt_reduce(WittExtensionSpec(gamma.tables, q, gamma))
    return red.alpha.is_zero()
