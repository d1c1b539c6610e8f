"""Exact arithmetic in explicit finite fields F_{p^s}.

A field is a FieldCtx holding the characteristic p, the extension degree s
and a monic irreducible modulus over F_p.  Elements are immutable wrappers
around coefficient tuples (c_0, ..., c_{s-1}) in the power basis of the
designated generator, a root of the modulus.

The canonical order used everywhere (element enumeration, designated-root
selection, default-modulus search) is ascending integer encoding
sum(c_i * p**i), so c_0 is the least significant digit.
"""

from __future__ import annotations

from .errors import (
    IncompatibleContexts,
    NotASubfield,
    NotPrime,
    ReducibleModulus,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
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


# ---------------------------------------------------------------------------
# dense F_p[x] arithmetic on plain int lists, used only for modulus handling
# (coefficients low to high, no trailing zeros)
# ---------------------------------------------------------------------------

def _fpx_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fpx_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fpx_trim(out)


def _fpx_mod(a: list[int], m: list[int], p: int) -> list[int]:
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - c * mi) % p
        a.pop()
    return _fpx_trim(a)


def _monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def _fpx_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _fpx_mod(a, _monic(b, p), p)
    return _monic(a, p) if a else a


def _fpx_pppow(base: list[int], p: int, m: list[int]) -> list[int]:
    """base**p mod m by square and multiply."""
    result = [1]
    acc = list(base)
    e = p
    while e:
        if e & 1:
            result = _fpx_mod(_fpx_mul(result, acc, p), m, p)
        e >>= 1
        if e:
            acc = _fpx_mod(_fpx_mul(acc, acc, p), m, p)
    return result


def _fpx_is_irreducible(m: list[int], p: int) -> bool:
    """Monic m of degree >= 1, Rabin's test."""
    s = len(m) - 1
    if s < 1:
        return False
    x = [0, 1]
    # x^(p^s) mod m must equal x
    t = x
    for _ in range(s):
        t = _fpx_pppow(t, p, m)
    if _fpx_trim(list(t)) != _fpx_mod(x, m, p):
        return False
    # for each prime r | s, gcd(x^(p^(s/r)) - x, m) must be 1
    for r in range(2, s + 1):
        if s % r == 0 and is_prime(r):
            t = x
            for _ in range(s // r):
                t = _fpx_pppow(t, p, m)
            diff = _fpx_trim([(t[i] if i < len(t) else 0) - (x[i] if i < len(x) else 0) for i in range(max(len(t), len(x)))])
            diff = [c % p for c in diff]
            diff = _fpx_trim(diff)
            g = _fpx_gcd(diff, m, p)
            if len(g) - 1 != 0:
                return False
    return True


def _default_modulus(p: int, s: int) -> tuple[int, ...]:
    """First monic irreducible of degree s in ascending integer encoding."""
    if s == 1:
        return (0, 1)
    for k in range(p ** s):
        coeffs = []
        t = k
        for _ in range(s):
            coeffs.append(t % p)
            t //= p
        m = coeffs + [1]
        if _fpx_is_irreducible(m, p):
            return tuple(m)
    raise ReducibleModulus(f"no irreducible of degree {s} over F_{p}")


# ---------------------------------------------------------------------------
# field context and elements
# ---------------------------------------------------------------------------

class FieldCtx:
    """Explicit model of F_{p^s} as F_p[x]/(modulus)."""

    __slots__ = ("p", "s", "modulus", "generator_name", "_rows", "_hash", "_prime_hashes")

    def __init__(self, p: int, s: int, modulus: tuple[int, ...], generator_name: str = "w"):
        self.p = p
        self.s = s
        self.modulus = modulus
        self.generator_name = generator_name
        # rows[k] = coefficients of x^(s+k) reduced mod modulus
        rows = []
        cur = [(-modulus[i]) % p for i in range(s)]
        rows.append(tuple(cur))
        for _ in range(s - 2):
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                for i in range(s):
                    nxt[i] = (nxt[i] - top * modulus[i]) % p
            cur = nxt
            rows.append(tuple(cur))
        self._rows = tuple(rows)
        self._hash = hash((p, s, modulus))
        # hash of the coefficient tuple of k in F_p -> k, see FFElem.__hash__
        self._prime_hashes = {hash((k,) + (0,) * (s - 1)): k for k in range(p)}

    def order(self) -> int:
        return self.p ** self.s

    def zero(self) -> "FFElem":
        return FFElem(self, (0,) * self.s)

    def one(self) -> "FFElem":
        return FFElem(self, (1,) + (0,) * (self.s - 1))

    def gen(self) -> "FFElem":
        if self.s == 1:
            # the modulus is x, whose root is 0
            return self.zero()
        return FFElem(self, (0, 1) + (0,) * (self.s - 2))

    def from_int(self, k: int) -> "FFElem":
        """Element with integer encoding k (base-p digits, c_0 first)."""
        k %= self.order()
        coeffs = []
        for _ in range(self.s):
            coeffs.append(k % self.p)
            k //= self.p
        return FFElem(self, tuple(coeffs))

    def from_coeffs(self, coeffs) -> "FFElem":
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.s:
            raise ValueError("too many coefficients")
        cs += [0] * (self.s - len(cs))
        return FFElem(self, tuple(cs))

    def elements(self):
        """All field elements in canonical (ascending integer) order."""
        for k in range(self.order()):
            yield self.from_int(k)

    def modulus_str(self) -> str:
        parts = []
        for i in range(self.s, -1, -1):
            c = self.modulus[i] if i < len(self.modulus) else 0
            if i == self.s:
                c = 1
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(("" if c == 1 else str(c)) + "x")
            else:
                parts.append(("" if c == 1 else str(c)) + f"x^{i}")
        return "+".join(parts) if parts else "0"

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.s == other.s
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldCtx(p={self.p}, s={self.s}, modulus={self.modulus_str()})"


class FFElem:
    """Immutable element of a FieldCtx."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FFElem):
            if other.ctx != self.ctx:
                raise IncompatibleContexts(
                    f"elements of {self.ctx!r} and {other.ctx!r} cannot be mixed"
                )
            return other
        if isinstance(other, int):
            return self.ctx.from_coeffs((other,))
        return NotImplemented

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_int(self) -> int:
        """Canonical integer encoding sum(c_i * p**i)."""
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.ctx.p + c
        return k

    def in_prime_field(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def prime_value(self) -> int:
        if not self.in_prime_field():
            raise ValueError(f"{self} is not in the prime field")
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        p = self.ctx.p
        return FFElem(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.ctx.p
        return FFElem(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        p = self.ctx.p
        return FFElem(self.ctx, tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        ctx = self.ctx
        p, s = ctx.p, ctx.s
        conv = [0] * (2 * s - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        conv[i + j] = (conv[i + j] + a * b) % p
        out = conv[:s]
        for k in range(s, 2 * s - 1):
            c = conv[k]
            if c:
                row = ctx._rows[k - s]
                for i in range(s):
                    out[i] = (out[i] + c * row[i]) % p
        return FFElem(ctx, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "FFElem":
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero field element")
        return self ** (self.ctx.order() - 2)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if self.is_zero():
            if e > 0:
                return self
            if e == 0:
                return self.ctx.one()
            raise ZeroDivisionError("0 to a negative power")
        n = self.ctx.order() - 1
        e %= n
        result = self.ctx.one()
        acc = self
        while e:
            if e & 1:
                result = result * acc
            e >>= 1
            if e:
                acc = acc * acc
        return result

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            # only the integers 0..p-1 name prime-field elements, so that
            # equal values hash alike
            c = self.coeffs
            return 0 <= other < self.ctx.p and c[0] == other and not any(c[1:])
        if not isinstance(other, FFElem):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        # prime-field elements hash like the integers they equal
        h = hash(self.coeffs)
        return self.ctx._prime_hashes.get(h, h)

    # -- display -----------------------------------------------------------

    def __str__(self):
        g = self.ctx.generator_name
        parts = []
        for i in range(self.ctx.s - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(("" if c == 1 else str(c)) + g)
            else:
                parts.append(("" if c == 1 else str(c)) + f"{g}^{i}")
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self} in F_{self.ctx.order()}>"


# ---------------------------------------------------------------------------
# public constructors and maps
# ---------------------------------------------------------------------------

def make_field(p: int, s: int, modulus=None, generator_name: str = "w") -> FieldCtx:
    """Build F_{p^s}; modulus is a low-to-high int list (monic) or None."""
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if not isinstance(s, int) or s < 1:
        raise NotPrime(f"invalid extension degree {s}")
    if modulus is None:
        mod = _default_modulus(p, s)
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != s + 1 or mod[-1] != 1:
            raise ReducibleModulus(
                f"modulus must be monic of degree {s}, got {list(modulus)}"
            )
        if s >= 2 and not _fpx_is_irreducible(list(mod), p):
            raise ReducibleModulus(f"modulus {list(modulus)} is reducible over F_{p}")
    return FieldCtx(p, s, mod, generator_name)


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
    return trace_map(x, 1).prime_value()


class SubfieldEmbedding:
    """Field homomorphism F_{p^n} -> F_{p^s} determined by the generator image.

    The image of the source generator is the canonical-order smallest root of
    the source modulus in the target, so the embedding is deterministic.
    """

    __slots__ = ("source", "target", "image_of_generator", "_pow")

    def __init__(self, source: FieldCtx, target: FieldCtx, image_of_generator: FFElem):
        self.source = source
        self.target = target
        self.image_of_generator = image_of_generator
        pows = [target.one()]
        for _ in range(source.s - 1):
            pows.append(pows[-1] * image_of_generator)
        self._pow = tuple(pows)

    def __call__(self, x: FFElem) -> FFElem:
        if x.ctx != self.source:
            raise IncompatibleContexts("element does not belong to the embedding source")
        acc = self.target.zero()
        for c, pw in zip(x.coeffs, self._pow):
            if c:
                acc = acc + c * pw
        return acc

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
    if source == target:
        return SubfieldEmbedding(source, target, target.gen())
    mod = source.modulus
    for cand in target.elements():
        acc = target.zero()
        pw = target.one()
        for c in mod:
            if c:
                acc = acc + c * pw
            pw = pw * cand
        if acc.is_zero():
            return SubfieldEmbedding(source, target, cand)
    raise NotASubfield("no root of the source modulus found in the target")
