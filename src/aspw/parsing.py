"""Text syntax for field elements, rational functions, additive polynomials.

One recursive-descent expression parser evaluates over the polynomial ring,
lifting to the rational function field at a division; the typed entry points
narrow the result (constant, polynomial, p-power support) and report
violations as ParseError.  Accepted operators: + - * / ^ with parentheses
and implicit multiplication ("2w^2", "(w+1)T^3").  A power whose result
would have degree above DEGREE_BOUND is rejected before it is expanded, and
so is every sum, difference, product and quotient whose result has such a
degree.

A sum in T of polynomials and pole terms c/(T+a)^k, c constant, is read as
u's partial fractions, with no gcd and no factoring (a monic degree-1
polynomial is a place); u is their recombination and keeps them.  Any other
sum is summed as values, and so is any expression whose names are not
Polys (parse_with_names over algebra elements or RatFuncs).
"""

from __future__ import annotations

from .addpoly import DEGREE_BOUND, AdditivePoly, check_degree
from .errors import ParseError
from .gf import FFElem, FieldCtx, make_field, p_adic_split
from .upoly import PartialFractions, Poly, RatFunc

_TOKEN_INT = "int"
_TOKEN_NAME = "name"
_TOKEN_OP = "op"
_TOKEN_END = "end"


def _tokenize(text: str):
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append((_TOKEN_INT, int(text[i:j]), i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            out.append((_TOKEN_NAME, text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            out.append((_TOKEN_OP, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r} at position {i}")
    out.append((_TOKEN_END, None, n))
    return out


def _degree(v) -> int:
    """Degree in T of a parsed value; an algebra element (see
    parse_with_names) counts one more when it involves y."""
    if isinstance(v, Poly):
        return max(v.degree(), 0)
    if isinstance(v, RatFunc):
        return max(v.num.degree(), v.den.degree())
    if isinstance(v, PartialFractions):  # of a u in lowest terms: deg den + max(deg poly, 0)
        return _degree(v.poly_part) + sum(e for _, e, _ in v.blocks)
    return max(map(_degree, v.coeffs.values()), default=0) + (not v.is_constant())


class _Parser:
    def __init__(self, text: str, names: dict):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = names
        self.symbols = sorted((k for k in names if k != "__int__"), key=len, reverse=True)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        out = self.parse_expr()
        kind, val, at = self.peek()
        if kind != _TOKEN_END:
            raise ParseError(f"unexpected {val!r} at position {at} in {self.text!r}")
        return out

    def parse_expr(self) -> RatFunc:
        acc = self.parse_term()
        while True:
            kind, val, at = self.peek()
            if kind == _TOKEN_OP and val in "+-":
                self.next()
                rhs = self.parse_term()
                acc = _bounded(_plus(acc, rhs, val), "sum" if val == "+" else "difference", at)
            else:
                return acc.recombine() if isinstance(acc, PartialFractions) else acc

    def parse_term(self) -> RatFunc:
        acc, _, _ = self.parse_factor()
        while True:
            kind, val, at = self.peek()
            if kind == _TOKEN_OP and val in "*/":
                self.next()
                rhs, P, k = self.parse_factor()
                if val == "/":
                    if (isinstance(acc, Poly) and acc.degree() == 0 and k > 0
                            and isinstance(P, Poly) and P.degree() == 1 and P.is_monic()
                            and not self._term_goes_on()):
                        return PartialFractions(Poly(P.ctx), [(P, k, acc)])
                    if isinstance(acc, Poly):
                        acc = RatFunc(acc)
                    try:
                        acc = _bounded(acc / rhs, "quotient", at)
                    except ZeroDivisionError as exc:
                        raise ParseError(f"division by zero at position {at}") from exc
                else:
                    acc = _bounded(acc * rhs, "product", at)
            elif self._term_goes_on():
                acc = _bounded(acc * self.parse_factor()[0], "product", at)
            else:
                return acc

    def _term_goes_on(self) -> bool:
        """Whether the next token continues the term: * or /, or an implicit factor."""
        kind, val, _ = self.peek()
        return kind in (_TOKEN_INT, _TOKEN_NAME) or (kind == _TOKEN_OP and val in "*/(")

    def parse_factor(self) -> tuple:
        """(value, base, exponent) of one factor; base^exponent is the value
        when the factor is one atom with an optional power, else (None, 0)."""
        kind, val, _ = self.peek()
        if kind == _TOKEN_OP and val == "-":
            self.next()
            return -self.parse_factor()[0], None, 0
        if kind == _TOKEN_OP and val == "+":
            self.next()
            return self.parse_factor()
        parts = self.parse_atoms()
        (last, last_at), e = parts[-1], 1
        kind, val, at = self.peek()
        if kind == _TOKEN_OP and val == "^":
            self.next()
            ekind, e, eat = self.next()
            if ekind != _TOKEN_INT:
                raise ParseError(f"exponent must be an integer at position {eat}")
            if _degree(last) * e > DEGREE_BOUND:
                raise ParseError(f"power at position {at} exceeds the degree "
                                 f"bound {DEGREE_BOUND}")
            parts[-1] = (last ** e, last_at)
        acc = parts[0][0]
        for part, part_at in parts[1:]:
            acc = _bounded(acc * part, "product", part_at)
        return (acc, last, e) if len(parts) == 1 else (acc, None, 0)

    def parse_atoms(self) -> list:
        """The (value, position) factors of one atom.

        A run of letters may be an implicit product of symbols, e.g. "wX" =
        w*X; a ^ after it binds to the last symbol only, so "wT^2" = w*T^2.
        """
        kind, val, at = self.next()
        if kind == _TOKEN_INT:
            return [(self.names["__int__"](val), at)]
        if kind == _TOKEN_NAME:
            parts = []
            rest = val
            while rest:
                match = next((k for k in self.symbols if rest.startswith(k)), None)
                if match is None:
                    raise ParseError(f"unknown symbol {rest!r} at position {at}")
                parts.append((self.names[match], at + len(val) - len(rest)))
                rest = rest[len(match):]
            return parts
        if kind == _TOKEN_OP and val == "(":
            inner = self.parse_expr()
            kind, val, close = self.next()
            if not (kind == _TOKEN_OP and val == ")"):
                raise ParseError(f"expected ')' at position {close}")
            return [(inner, at)]
        raise ParseError(f"unexpected token at position {at} in {self.text!r}")


def _bounded(value, what: str, at: int):
    """value, unless its degree passes DEGREE_BOUND."""
    if _degree(value) > DEGREE_BOUND:
        raise ParseError(f"{what} at position {at} exceeds the degree bound {DEGREE_BOUND}")
    return value


def _plus(a, b, op: str):
    """a + b or a - b.  Polynomials and pole terms sum to a PartialFractions:
    c/P^k merges into the block at P, whose order drops while P divides its Q."""
    if isinstance(b, PartialFractions) and isinstance(a, (Poly, PartialFractions)):
        ((P, k, c),) = b.blocks
        a = a if isinstance(a, PartialFractions) else PartialFractions(a, ())
        e, Q = next(((e, Q) for R, e, Q in a.blocks if R == P), (k, Poly(P.ctx)))
        Q, e = Q * P ** (max(e, k) - e) + (-c if op == "-" else c) * P ** (max(e, k) - k), max(e, k)
        while not Q.is_zero() and (Q % P).is_zero():
            Q, e = Q // P, e - 1
        blocks = [blk for blk in a.blocks if blk[0] != P] + ([] if Q.is_zero() else [(P, e, Q)])
        return PartialFractions(a.poly_part, sorted(blocks, key=lambda blk: blk[0].sort_key()))
    if isinstance(a, PartialFractions) and isinstance(b, Poly):
        return PartialFractions(a.poly_part + b if op == "+" else a.poly_part - b, a.blocks)
    a, b = (v.recombine() if isinstance(v, PartialFractions) else v for v in (a, b))
    return a + b if op == "+" else a - b


def _eval_text(ctx: FieldCtx, text: str, var: str) -> RatFunc:
    """The value of text in k0(var); it is a Poly, which takes no gcd, until a
    "/" lifts its left operand to a RatFunc."""
    names = {
        "__int__": lambda v: Poly.const(ctx, v),
        ctx.generator_name: Poly.const(ctx, ctx.gen()),
        var: Poly.variable(ctx),
    }
    if ctx.s == 1:
        # the generator of a prime field is 0; keep only explicit digits
        del names[ctx.generator_name]
    out = parse_with_names(text, names)
    return out if isinstance(out, RatFunc) else RatFunc(out)


def parse_with_names(text: str, names: dict):
    """Evaluate an expression over caller-supplied symbols.

    names maps symbol -> value plus "__int__" -> int constructor; values
    only need the arithmetic operators the expression actually uses.
    """
    return _Parser(text, names).parse()


def parse_ratfunc(ctx: FieldCtx, text: str) -> RatFunc:
    return _eval_text(ctx, text, "T")


def parse_element(ctx: FieldCtx, text: str) -> FFElem:
    u = _eval_text(ctx, text, "T")
    if not u.is_constant():
        raise ParseError(f"{text!r} is not a constant of the field")
    return u.constant_value()


def parse_poly(ctx: FieldCtx, text: str) -> Poly:
    return _eval_poly(ctx, text, "T")


def _eval_poly(ctx: FieldCtx, text: str, var: str) -> Poly:
    """The polynomial in var that text denotes."""
    u = _eval_text(ctx, text, var)
    if not u.is_polynomial():
        raise ParseError(f"{text!r} is not a polynomial" + (f" in {var}" if var != "T" else ""))
    return u.num  # the denominator is monic, so it is 1


def parse_additive(ctx: FieldCtx, text: str) -> AdditivePoly:
    """Additive polynomial in X, e.g. "X^27-X" or "X^9+2X^3+wX".

    Also accepts the coefficient-list form "[a0,a1,...,1]" keyed by
    p-power index: entry i is the coefficient of X^(p^i).
    """
    t = text.strip()
    if t.startswith("[") and t.endswith("]"):
        parts = t[1:-1].split(",")
        check_degree(ctx.p, len(parts) - 1, "additive polynomial")
        a = [parse_element(ctx, part) for part in parts]
    else:
        coeffs = {}  # p-power index -> code
        for i, c in enumerate(_eval_poly(ctx, text, "X").coeffs):
            if not c:
                continue
            lam, k = p_adic_split(i, ctx.p) if i >= 1 else (0, 0)
            if lam != 1:
                raise ParseError(f"term X^{i} is not a p-power monomial")
            coeffs[k] = c
        if not coeffs:
            raise ParseError("zero is not an additive polynomial")
        a = [ctx.from_int(coeffs.get(i, 0)) for i in range(max(coeffs) + 1)]
    try:
        return AdditivePoly(ctx, a)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_modulus(p: int, text: str) -> tuple:
    """Modulus polynomial in x over F_p, returned as low-to-high int tuple."""
    # F_p codes are the integers 0..p-1
    return _eval_poly(make_field(p, 1), text, "x").coeffs


def parse_witt(ctx: FieldCtx, text: str) -> list[RatFunc]:
    """Witt vector literal "[c1; c2; c3]" with RatFunc components."""
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ParseError("witt vector literal must be wrapped in [ ]")
    inner = t[1:-1]
    parts = inner.split(";")
    if not parts or not inner.strip():
        raise ParseError("witt vector literal must have at least one component")
    return [parse_ratfunc(ctx, part) for part in parts]


def parse_field_spec(text: str) -> FieldCtx:
    """Field description "p=3,s=3,mod=x^3-x-2" (mod and gen optional).

    Each key may appear once; gen= names the generator and must be a run of
    letters other than the variable names T, X and y.
    """
    vals = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"bad field spec chunk {chunk!r}")
        key, val = chunk.split("=", 1)
        key = key.strip()
        if key not in ("p", "s", "mod", "gen"):
            raise ParseError(f"unknown field spec key {key!r}")
        if key in vals:
            raise ParseError(f"field spec key {key!r} given twice")
        vals[key] = val.strip()
    if "p" not in vals or "s" not in vals:
        raise ParseError("field spec needs p= and s=")
    try:
        p, s = int(vals["p"]), int(vals["s"])
    except ValueError:
        raise ParseError(f"p= and s= must be integers in {text!r}") from None
    gen = vals.get("gen", "w")
    if not gen.isalpha() or gen in ("T", "X", "y"):
        raise ParseError(f"generator name {gen!r} must be letters other than T, X, y")
    modulus = parse_modulus(p, vals["mod"]) if vals.get("mod") else None
    return make_field(p, s, modulus=modulus, generator_name=gen)
