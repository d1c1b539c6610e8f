"""Reference Witt arithmetic over k0(T), for differential tests.

The reduced operation tables are evaluated monomial by monomial on RatFunc
values, and every power, product and sum is brought to lowest terms as it
is formed.  This is how aspw.witt evaluated rational vectors before it
worked on polynomial numerators over one common denominator; powers are
taken by repeated RatFunc multiplication, so neither Poly.__pow__ nor
RatFunc.__pow__ is relied on.  eval_int_poly evaluates the exact-integer
tables at integers, for the ghost identities over Z, and witt_lift lifts
integers into W_m(F_p), for the isomorphism with Z/p^m.
"""

from __future__ import annotations

from aspw.errors import AspwError
from aspw.gf import FieldCtx
from aspw.upoly import Poly, RatFunc
from aspw.witt import WittUniversalTables, WittVector, teichmuller

def ratfunc_pow(x: RatFunc, e: int) -> RatFunc:
    result = RatFunc.const(x.ctx, 1)
    while e:
        if e & 1:
            result = result * x
        e >>= 1
        if e:
            x = x * x
    return result


def eval_table_poly(poly: dict, vals, zero: RatFunc) -> RatFunc:
    acc = zero
    for exps, c in poly.items():
        term = zero + c
        for idx, e in enumerate(exps):
            if e:
                term = term * ratfunc_pow(vals[idx], e)
        acc = acc + term
    return acc


def eval_int_poly(poly: dict, args) -> int:
    """Evaluate a pre-reduction table polynomial at integer arguments."""
    acc = 0
    for exps, c in poly.items():
        term = c
        for idx, e in enumerate(exps):
            if e:
                term *= args[idx] ** e
        acc += term
    return acc


def witt_arith(op: str, a: WittVector, b: WittVector) -> WittVector:
    polys = a.tables.polys[op]
    vals = a.comps + b.comps
    zero = RatFunc(Poly(a.ctx))
    return WittVector(a.tables, [eval_table_poly(w, vals, zero) for w in polys])


def witt_lift(tables: WittUniversalTables, value, ctx: FieldCtx | None = None):
    """Lift an integer by repeated Witt addition of 1, or an element by {u}.

    Integer lifts need a field context for the components; t and
    t mod p^m lift to the same vector.
    """
    if isinstance(value, int):
        if ctx is None:
            raise AspwError("an integer lift needs a field context")
        one = teichmuller(tables, ctx.one())
        acc = teichmuller(tables, ctx.zero())
        for _ in range(value % tables.p ** tables.m):
            acc = acc + one
        return acc
    return teichmuller(tables, value)
