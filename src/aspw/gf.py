"""Exact arithmetic in explicit finite fields F_{p^s}.

A field is a FieldCtx holding the characteristic p, the extension degree s
and a monic irreducible modulus over F_p.  An element is an immutable
wrapper around its integer code sum(c_i * p**i), where (c_0, ..., c_{s-1})
are its coefficients in the power basis of the designated generator, a root
of the modulus.

The canonical order used everywhere (element enumeration, designated-root
selection, default-modulus search) is ascending code, so c_0 is the least
significant digit.

A field's arithmetic object works on codes alone: every method takes int
codes and returns int codes, the polynomial kernels on code sequences.
Fields of order at most TABLE_MAX_ORDER multiply, divide and add by table
lookup (log/antilog and Zech-logarithm tables, see _Tables), built on the
first arithmetic in the field; larger fields work on base-p digits
(_Digits).  Polynomials over a prime field, digit vectors among them, are
multiplied and divided on packed integers.  FFElem operators wrap a result
code through FieldCtx._elem, which hands out the tables' shared elements
once they exist.
"""

from __future__ import annotations

import functools

from .errors import (
    FieldTooLarge,
    IncompatibleContexts,
    NotASubfield,
    NotPrime,
    ReducibleModulus,
)


# the first twelve primes; as Miller-Rabin bases they decide primality
# exactly below 3.18 * 10^23 (Jiang and Deng, Math. Comp. 2014)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < 3.18 * 10^23.

    Every caller bounds n first: make_field by the field order 2^64,
    witt.build_tables by WITT_P_BOUND.
    """
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, r = p_adic_split(n - 1, 2)
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def p_adic_split(e: int, p: int) -> tuple[int, int]:
    """(lam, m) with e = lam * p**m and lam prime to p; e must be positive."""
    if e < 1:
        raise ValueError(f"p-adic split of the non-positive integer {e}")
    m = 0
    while e % p == 0:
        e //= p
        m += 1
    return e, m


def power(x, e: int, mul, one):
    """x**e for e >= 0 by square and multiply, low bits first.

    It makes e.bit_length() - 1 squarings and one product per further set
    bit; one is returned for e = 0 and never taken as a factor.
    """
    if not e:
        return one
    result = None
    while True:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if not e:
            return result
        x = mul(x, x)


def _prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of n >= 1, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _digits(code: int, p: int, s: int) -> list[int]:
    """Base-p digits (c_0, ..., c_{s-1}) of an element code."""
    out = []
    for _ in range(s):
        code, c = divmod(code, p)
        out.append(c)
    return out


def _code(digits, p: int) -> int:
    k = 0
    for c in reversed(digits):
        k = k * p + c
    return k


def _horner(ar, cs, x: int) -> int:
    """Code of the value at the code x of the polynomial with codes cs."""
    add, mul, acc = ar.add, ar.mul, 0
    for c in reversed(cs):
        acc = add(mul(acc, x), c)
    return acc


def _int_poly_str(coeffs, var: str) -> str:
    """sum c_i var^i for low-to-high int coefficients, highest power first."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        if c := coeffs[i]:
            cs = "" if c == 1 and i else str(c)
            parts.append(cs + ("" if i == 0 else var if i == 1 else f"{var}^{i}"))
    return "+".join(parts) if parts else "0"


def _is_irreducible_modulus(p: int, mod) -> bool:
    """Is the F_p polynomial with low-to-high coefficients mod irreducible?"""
    from .upoly import Poly, is_irreducible  # upoly imports this module

    fp = make_field(p, 1)
    return is_irreducible(Poly(fp, [fp.from_int(c) for c in mod]))


@functools.lru_cache(maxsize=None)
def _default_modulus(p: int, s: int) -> tuple[int, ...]:
    """First monic irreducible of degree s in ascending integer encoding."""
    if s == 1:
        return (0, 1)
    for k in range(p ** s):
        m = tuple(_digits(k, p, s)) + (1,)
        if _is_irreducible_modulus(p, m):
            return m
    raise ReducibleModulus(f"no irreducible of degree {s} over F_{p}")


# ---------------------------------------------------------------------------
# field context and elements
# ---------------------------------------------------------------------------

# make_field rejects larger fields before any modulus search
MAX_FIELD_ORDER = 2 ** 64
# fields up to this order do their arithmetic by table lookup
TABLE_MAX_ORDER = 2 ** 16


class FieldCtx:
    """Explicit model of F_{p^s} as F_p[x]/(modulus).

    make_field returns one context per (p, s, modulus, generator_name), so
    elements of one field share their context object; contexts also compare
    equal by those four values.  The hash leaves out the generator name, a
    string, so that it is the same in every process; an unpickled context
    is the interned one of its process.
    """

    __slots__ = ("p", "s", "modulus", "generator_name", "_q", "_hash",
                 "_zero", "_one", "_arith", "_elem", "_trace")

    def __init__(self, p: int, s: int, modulus: tuple[int, ...], generator_name: str = "w"):
        self.p = p
        self.s = s
        self.modulus = modulus
        self.generator_name = generator_name
        self._q = p ** s
        self._hash = hash((p, s, modulus))
        self._zero = FFElem(self, 0)
        self._one = FFElem(self, 1)
        self._arith = None
        # code -> element: the one place that wraps codes; the table build
        # swaps in its list of shared elements
        self._elem = functools.partial(FFElem, self)
        self._trace = None

    def arith(self):
        """The field's arithmetic on element codes, built on first use.

        Up to TABLE_MAX_ORDER this builds the lookup tables (_Tables);
        larger fields multiply by digit convolution (_Digits).
        """
        a = self._arith
        if a is None:
            a = self._arith = (_Tables if self._q <= TABLE_MAX_ORDER else _Digits)(self)
        return a

    def order(self) -> int:
        return self._q

    def trace_code(self, code: int) -> int:
        """Trace down to F_p of the element with this code, in range(p): the
        trace is F_p-linear, so it is the dot product of the code's digits
        with the traces of the generator's powers, which the first call takes.
        """
        if self._trace is None:
            self._trace = [trace_map(self._elem(self.p ** i)).code for i in range(self.s)]
        return sum(map(int.__mul__, _digits(code, self.p, self.s), self._trace)) % self.p

    def zero(self) -> "FFElem":
        return self._zero

    def one(self) -> "FFElem":
        return self._one

    def gen(self) -> "FFElem":
        if self.s == 1:
            # the modulus is x, whose root is 0
            return self._zero
        return self._elem(self.p)

    def from_int(self, k: int) -> "FFElem":
        """Element with integer encoding k (base-p digits, c_0 first)."""
        return self._elem(k % self._q)

    def from_coeffs(self, coeffs) -> "FFElem":
        p = self.p
        cs = [c % p for c in coeffs]
        if len(cs) > self.s:
            raise ValueError("too many coefficients")
        return self._elem(_code(cs, p))

    def elements(self):
        """All field elements in canonical (ascending integer) order."""
        return map(self._elem, range(self._q))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.s == other.s
            and self.modulus == other.modulus
            and self.generator_name == other.generator_name
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return make_field, (self.p, self.s, self.modulus, self.generator_name)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, s={self.s}, modulus={_int_poly_str(self.modulus, 'x')})"


# Prime-field polynomial kernels on packed integers (Kronecker substitution;
# Harvey, JSC 2009): one w-byte slot per code, w bytes holding a bound on
# every slot of the result, so that no slot carries into the next.
@functools.lru_cache(maxsize=None)
def _mod_byte(p: int) -> bytes:
    """One-byte slots are reduced mod p by one bytes.translate through this."""
    return bytes([i % p for i in range(256)])


def _pack(cs, w: int) -> int:
    raw = bytes(cs) if w == 1 else b"".join([c.to_bytes(w, "little") for c in cs])
    return int.from_bytes(raw, "little")


def _unpack(r: bytes, w: int, p: int) -> list:
    if w == 1:
        return list(r.translate(_mod_byte(p)))
    from_bytes = int.from_bytes  # a local name spares a type lookup per slot
    return [from_bytes(r[i:i + w], "little") % p for i in range(0, len(r), w)]


def _packed_mul(p: int, a, b) -> list:
    """One integer product, whose slots are at most (p-1)^2 min(len(a), len(b))."""
    w = ((p - 1) ** 2 * min(len(a), len(b))).bit_length() + 7 >> 3
    return _unpack((_pack(a, w) * _pack(b, w)).to_bytes((len(a) + len(b) - 1) * w, "little"), w, p)


def _packed_divmod(p: int, a, b) -> tuple[list, list]:
    """Long division: a quotient code c, read off the top slot, adds
    (p - c) * b = -c * b mod p below it.  A remainder slot starts below p
    and takes at most min(len(quot), len(b) - 1) adds of at most (p-1)^2."""
    db, nq = len(b) - 1, len(a) - len(b) + 1
    w = (p - 1 + (p - 1) ** 2 * min(nq, db)).bit_length() + 7 >> 3
    bits, mask = 8 * w, (1 << 8 * w) - 1
    rem, low, inv = _pack(a, w), _pack(b[:-1], w), pow(b[-1], -1, p)
    quot = [0] * nq
    for k in range(nq - 1, -1, -1):
        c = (rem >> bits * (k + db) & mask) * inv % p
        if c:
            quot[k] = c
            rem += (p - c) * low << bits * k
    return quot, _unpack(rem.to_bytes(len(a) * w, "little")[:db * w], w, p)


class _Digits:
    """Field arithmetic on the base-p digit vectors of the codes.

    This is the arithmetic of fields above TABLE_MAX_ORDER, and it builds
    the lookup tables of the smaller ones.  Like _Tables, every method
    takes element codes and returns codes; poly_mul and poly_divmod are the
    packed kernels for s = 1 and schoolbook loops on code sequences above.
    """

    __slots__ = ("p", "s", "q", "modulus")

    def __init__(self, ctx: FieldCtx):
        self.p = ctx.p
        self.s = ctx.s
        self.q = ctx._q
        self.modulus = ctx.modulus

    def add(self, a: int, b: int) -> int:
        p, s = self.p, self.s
        if p == 2:
            return a ^ b
        return _code([(x + y) % p for x, y in zip(_digits(a, p, s), _digits(b, p, s))], p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        p = self.p
        return _code([(-x) % p for x in _digits(a, p, self.s)], p)

    def mul(self, a: int, b: int) -> int:
        """Multiply the digit polynomials, then reduce by the modulus."""
        p, s = self.p, self.s
        if s == 1:
            return a * b % p
        prod = _packed_mul(p, _digits(a, p, s), _digits(b, p, s))
        return _code(_packed_divmod(p, prod, self.modulus)[1], p)

    def inv(self, a: int) -> int:
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a**e for a != 0, by square and multiply on e mod q - 1."""
        return power(a, e % (self.q - 1), self.mul, 1)

    # -- polynomial kernels: code sequences, low to high ---------------------

    def poly_mul(self, a, b) -> list:
        """Codes of the product of two nonzero polynomials."""
        if self.s == 1:
            return _packed_mul(self.p, a, b)
        add, mul = self.add, self.mul
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add(out[i + j], mul(x, y))
        return out

    def poly_divmod(self, a, b) -> tuple[list, list]:
        """Codes of the quotient and remainder of a by b; len(a) >= len(b)
        and b[-1] != 0."""
        if self.s == 1:
            return _packed_divmod(self.p, a, b)
        sub, mul = self.sub, self.mul
        db = len(b) - 1
        lead_inv = 1 if b[-1] == 1 else self.inv(b[-1])
        rem = list(a)
        quot = [0] * (len(a) - db)
        for k in range(len(quot) - 1, -1, -1):
            top = rem[k + db]
            if top:
                c = quot[k] = top if lead_inv == 1 else mul(top, lead_inv)
                for i, y in enumerate(b):
                    if y:
                        rem[k + i] = sub(rem[k + i], mul(c, y))
        return quot, rem[:db]


class _Tables:
    """Field arithmetic by table lookup, for fields up to TABLE_MAX_ORDER.

    Every method takes element codes and returns codes.  Logarithms are to
    the base g, the smallest primitive element; the designated generator
    need not be primitive (F_9 = F_3[x]/(x^2+1) has x^4 = 1).  With
    n = q - 1:
      exp[k]     the code of g^k for 0 <= k < 2n, so a sum of two logs
                 indexes it directly;
      log[c]     the log of code c != 0 (log[0] is None);
      zech[k]    the Zech logarithm log(1 + g^k), None where 1 + g^k = 0,
                 listed twice so that any k in (-n, 2n) indexes it;
      negs[c]    the code of -c;
      half       log(-1);
      elems[c]   the element with code c, shared by every FFElem result.
    Sums are XORs of codes for p = 2, sums of residues for prime fields and
    Zech lookups otherwise.  poly_mul and poly_divmod are the packed kernels
    in prime fields and run the inner loops on logs otherwise.
    """

    __slots__ = ("p", "n", "half", "char2", "prime", "elems", "exp", "log", "zech", "negs")

    def __init__(self, ctx: FieldCtx):
        digits = _Digits(ctx)
        p, q = ctx.p, ctx._q
        n = q - 1
        tests = [n // r for r in _prime_divisors(n)]
        g = next(c for c in range(1, q)
                 if all(digits.pow(c, e) != 1 for e in tests))
        exp = [1] * n
        for k in range(1, n):
            exp[k] = digits.mul(exp[k - 1], g)
        log = [None] * q
        for k, c in enumerate(exp):
            log[c] = k
        half = 0 if p == 2 else n // 2
        self.p = p
        self.n = n
        self.half = half
        self.char2 = p == 2
        self.prime = ctx.s == 1
        self.elems = [ctx._zero, ctx._one] + [FFElem(ctx, c) for c in range(2, q)]
        self.exp = exp * 2
        self.log = log
        # 1 + c adds one to the lowest digit of the code
        self.zech = [log[c - c % p + (c + 1) % p] for c in exp] * 2
        self.negs = [0] + [exp[(log[c] + half) % n] for c in range(1, q)]
        ctx._elem = self.elems.__getitem__

    def add(self, a: int, b: int) -> int:
        if self.char2:
            return a ^ b
        if self.prime:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        log = self.log
        la = log[a]
        z = self.zech[log[b] - la]
        return 0 if z is None else self.exp[la + z]

    def sub(self, a: int, b: int) -> int:
        if self.char2:
            return a ^ b
        if self.prime:
            return (a - b) % self.p
        return self.add(a, self.negs[b])

    def neg(self, a: int) -> int:
        return self.negs[a]

    def mul(self, a: int, b: int) -> int:
        if a and b:
            return self.exp[self.log[a] + self.log[b]]
        return 0

    def inv(self, a: int) -> int:
        return self.exp[self.n - self.log[a]]

    def div(self, a: int, b: int) -> int:
        if a:
            return self.exp[self.log[a] - self.log[b] + self.n]
        return 0

    def pow(self, a: int, e: int) -> int:
        return self.exp[self.log[a] * e % self.n]

    # -- polynomial kernels: code sequences, low to high ---------------------

    def _add_scaled(self, out: list, shift: int, lc: int, logs: list) -> None:
        """out[shift + i] += g^lc * g^logs[i] on log lists (None is zero).

        Adding g^t to g^c gives g^(c + zech[t - c]).
        """
        zech, n = self.zech, self.n
        for k, lb in enumerate(logs, shift):
            if lb is not None:
                t = lc + lb
                c = out[k]
                if c is None:
                    out[k] = t - n if t >= n else t
                else:
                    z = zech[t - c]
                    out[k] = None if z is None else (c + z) % n

    def poly_mul(self, a, b) -> list:
        """Codes of the product of two nonzero polynomials."""
        if self.prime:
            return _packed_mul(self.p, a, b)
        log, exp = self.log, self.exp
        b_logs = [log[c] for c in b]
        out = [None] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                self._add_scaled(out, i, log[c], b_logs)
        return [0 if lc is None else exp[lc] for lc in out]

    def poly_divmod(self, a, b) -> tuple[list, list]:
        """Codes of the quotient and remainder of a by b; len(a) >= len(b)
        and b[-1] != 0."""
        if self.prime:
            return _packed_divmod(self.p, a, b)
        log, exp, n, db = self.log, self.exp, self.n, len(b) - 1
        rem = [log[c] for c in a]
        # logs of -b_i below the leading coefficient
        minus_b = [None if c == 0 else (log[c] + self.half) % n for c in b[:-1]]
        lead_inv = n - log[b[-1]]
        quot = [0] * (len(a) - db)
        for k in range(len(quot) - 1, -1, -1):
            top = rem[k + db]
            if top is not None:
                lc = (top + lead_inv) % n
                quot[k] = exp[lc]
                self._add_scaled(rem, k, lc, minus_b)
        return quot, [0 if lc is None else exp[lc] for lc in rem[:db]]


class FFElem:
    """Immutable element of a FieldCtx, held as its integer code.

    The code sum(c_i * p**i) is the canonical encoding and sort key; the
    coefficients are derived from it for display and embeddings.  Operands
    are zero-checked here, so the arithmetic objects never see a zero
    divisor, inverse or base of a power.
    """

    __slots__ = ("ctx", "code")

    def __init__(self, ctx: FieldCtx, code: int):
        self.ctx = ctx
        self.code = code

    # -- helpers -----------------------------------------------------------

    def _other_code(self, other):
        """Code of the other operand in this field, or NotImplemented."""
        if other.__class__ is FFElem and other.ctx is self.ctx:
            return other.code
        if isinstance(other, FFElem):
            if other.ctx != self.ctx:
                raise IncompatibleContexts(
                    f"elements of {self.ctx!r} and {other.ctx!r} cannot be mixed"
                )
            return other.code
        if isinstance(other, int):
            return other % self.ctx.p
        return NotImplemented

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients (c_0, ..., c_{s-1}) in the power basis of the generator."""
        ctx = self.ctx
        return tuple(_digits(self.code, ctx.p, ctx.s))

    def is_zero(self) -> bool:
        return not self.code

    def to_int(self) -> int:
        """Canonical integer encoding sum(c_i * p**i)."""
        return self.code

    def in_prime_field(self) -> bool:
        return self.code < self.ctx.p

    # -- arithmetic: the field's arithmetic object works on the codes -------
    # (ctx._arith is read before ctx._elem, whose tables the first
    # arithmetic in a field builds)

    def __add__(self, other):
        b = self._other_code(other)
        if b is NotImplemented:
            return b
        ctx = self.ctx
        a = ctx._arith or ctx.arith()
        return ctx._elem(a.add(self.code, b))

    __radd__ = __add__

    def __neg__(self):
        ctx = self.ctx
        a = ctx._arith or ctx.arith()
        return ctx._elem(a.neg(self.code))

    def __sub__(self, other):
        b = self._other_code(other)
        if b is NotImplemented:
            return b
        ctx = self.ctx
        a = ctx._arith or ctx.arith()
        return ctx._elem(a.sub(self.code, b))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        b = self._other_code(other)
        if b is NotImplemented:
            return b
        ctx = self.ctx
        a = ctx._arith or ctx.arith()
        return ctx._elem(a.mul(self.code, b))

    __rmul__ = __mul__

    def inverse(self) -> "FFElem":
        if not self.code:
            raise ZeroDivisionError("inversion of zero field element")
        ctx = self.ctx
        a = ctx._arith or ctx.arith()
        return ctx._elem(a.inv(self.code))

    def __truediv__(self, other):
        b = self._other_code(other)
        if b is NotImplemented:
            return b
        if not b:
            raise ZeroDivisionError("inversion of zero field element")
        ctx = self.ctx
        a = ctx._arith or ctx.arith()
        return ctx._elem(a.div(self.code, b))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        ctx = self.ctx
        if not self.code:
            if e > 0:
                return self
            if e == 0:
                return ctx._one
            raise ZeroDivisionError("0 to a negative power")
        a = ctx._arith or ctx.arith()
        return ctx._elem(a.pow(self.code, e))

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FFElem):
            return self.code == other.code and (other.ctx is self.ctx or other.ctx == self.ctx)
        if isinstance(other, int):
            # only the integers 0..p-1 name prime-field elements, so that
            # equal values hash alike
            return 0 <= other < self.ctx.p and self.code == other
        return NotImplemented

    def __hash__(self):
        # a prime-field element's code is the integer it equals
        return hash(self.code)

    # -- display -----------------------------------------------------------

    def __str__(self):
        return _int_poly_str(self.coeffs, self.ctx.generator_name)

    def __repr__(self):
        return f"<{self} in F_{self.ctx.order()}>"


# ---------------------------------------------------------------------------
# public constructors and maps
# ---------------------------------------------------------------------------

_FIELDS: dict[tuple, FieldCtx] = {}


def make_field(p: int, s: int, modulus=None, generator_name: str = "w") -> FieldCtx:
    """F_{p^s}; modulus is a low-to-high int list (monic) or None.

    Returns the same context for the same (p, s, modulus, generator_name).
    Fields of order above MAX_FIELD_ORDER raise FieldTooLarge before any
    modulus search.
    """
    if not isinstance(p, int) or p < 2:
        raise NotPrime(f"{p} is not prime")
    if not isinstance(s, int) or s < 1:
        raise NotPrime(f"invalid extension degree {s}")
    # p >= 2, so s > 64 alone puts p^s over 2^64; p**s is then never computed
    if s > 64 or p ** s > MAX_FIELD_ORDER:
        raise FieldTooLarge(f"field order {p}^{s} exceeds the limit 2^64")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if modulus is None:
        mod = _default_modulus(p, s)
    else:
        mod = tuple([int(c) % p for c in modulus])
        if len(mod) != s + 1 or mod[-1] != 1:
            raise ReducibleModulus(
                f"modulus must be monic of degree {s}, got {list(modulus)}"
            )
    key = (p, s, mod, generator_name)
    ctx = _FIELDS.get(key)
    if ctx is None:
        if s >= 2 and not _is_irreducible_modulus(p, mod):
            raise ReducibleModulus(f"modulus {list(modulus)} is reducible over F_{p}")
        ctx = _FIELDS[key] = FieldCtx(p, s, mod, generator_name)
    return ctx


def frobenius_power(x: FFElem, i: int) -> FFElem:
    """x**(p**i) with i reduced mod s, so negative i inverts Frobenius."""
    s = x.ctx.s
    i %= s
    if i == 0:
        return x
    return x ** (x.ctx.p ** i)


def trace_map(x: FFElem, target_degree: int = 1) -> FFElem:
    """Trace from F_{p^s} onto the subfield of degree target_degree.

    The result is returned inside the same context; it lies in the image of
    the degree-target_degree subfield.
    """
    s = x.ctx.s
    t = target_degree
    if t < 1 or s % t != 0:
        raise NotASubfield(f"degree {t} does not divide {s}")
    acc = x
    cur = x
    for _ in range(s // t - 1):
        cur = frobenius_power(cur, t)
        acc = acc + cur
    return acc


def absolute_trace_value(x: FFElem) -> int:
    """Trace down to F_p, returned as an integer in range(p)."""
    return x.ctx.trace_code(x.code)


class SubfieldEmbedding:
    """Field homomorphism F_{p^n} -> F_{p^s} determined by the generator image.

    The image of the source generator is the canonical-order smallest root of
    the source modulus in the target, so the embedding is deterministic.
    """

    __slots__ = ("source", "target", "image_of_generator")

    def __init__(self, source: FieldCtx, target: FieldCtx, image_of_generator: FFElem):
        self.source = source
        self.target = target
        self.image_of_generator = image_of_generator

    def __call__(self, x: FFElem) -> FFElem:
        if x.ctx is not self.source and x.ctx != self.source:
            raise IncompatibleContexts("element does not belong to the embedding source")
        # x's digits are prime-field codes in any field
        code = _horner(self.target.arith(), x.coeffs, self.image_of_generator.code)
        return self.target._elem(code)

    def __repr__(self):
        return (
            f"SubfieldEmbedding(F_{self.source.order()} -> F_{self.target.order()}, "
            f"{self.source.generator_name} -> {self.image_of_generator})"
        )


def embed_field(source: FieldCtx, target: FieldCtx) -> SubfieldEmbedding:
    """Canonical embedding of source into target; degrees must divide."""
    if source.p != target.p:
        raise NotASubfield(
            f"characteristics differ: {source.p} vs {target.p}"
        )
    if target.s % source.s != 0:
        raise NotASubfield(f"F_{source.order()} is not a subfield of F_{target.order()}")
    if source.s == target.s and source.modulus == target.modulus:
        root = target.gen()
    else:
        root = smallest_root(source.modulus, target)
        if root is None:
            raise NotASubfield("no root of the source modulus found in the target")
    return SubfieldEmbedding(source, target, root)


def smallest_root(coeffs, target: FieldCtx) -> FFElem | None:
    """Root of smallest code in target of the polynomial whose low-to-high
    coefficients coeffs are ints, read mod p; None if it has none."""
    ar, cs = target.arith(), [c % target.p for c in coeffs]
    return next((x for x in target.elements() if not _horner(ar, cs, x.code)), None)
