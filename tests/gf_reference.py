"""Reference field arithmetic on coefficient tuples, for differential tests.

An element of F_p[x]/(modulus) is the tuple (c_0, ..., c_{s-1}) of its
coefficients in the power basis of x.  These are the plain schoolbook
formulas that aspw.gf used before elements became integer codes backed by
lookup tables; the tests compare the package against them.  The polynomial
formulas at the end work on lists of FFElems, as upoly did before a Poly
held its coefficients' codes, and check the code-level Poly.
"""

from __future__ import annotations


def reduction_rows(p: int, s: int, modulus) -> tuple:
    """rows[k] = coefficients of x^(s+k) reduced mod the monic modulus."""
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
    return tuple(rows)


def from_int(p: int, s: int, k: int) -> tuple:
    k %= p ** s
    out = []
    for _ in range(s):
        out.append(k % p)
        k //= p
    return tuple(out)


def to_int(p: int, a) -> int:
    k = 0
    for c in reversed(a):
        k = k * p + c
    return k


def add(p: int, a, b) -> tuple:
    return tuple((x + y) % p for x, y in zip(a, b))


def neg(p: int, a) -> tuple:
    return tuple((-x) % p for x in a)


def sub(p: int, a, b) -> tuple:
    return tuple((x - y) % p for x, y in zip(a, b))


def mul(p: int, s: int, rows, a, b) -> tuple:
    conv = [0] * (2 * s - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] = (conv[i + j] + x * y) % p
    out = conv[:s]
    for k in range(s, 2 * s - 1):
        c = conv[k]
        if c:
            row = rows[k - s]
            for i in range(s):
                out[i] = (out[i] + c * row[i]) % p
    return tuple(out)


def power(p: int, s: int, rows, a, e: int) -> tuple:
    """a**e; a zero base raises ZeroDivisionError for e < 0."""
    one = (1,) + (0,) * (s - 1)
    if not any(a):
        if e > 0:
            return a
        if e == 0:
            return one
        raise ZeroDivisionError("0 to a negative power")
    e %= p ** s - 1
    result, acc = one, a
    while e:
        if e & 1:
            result = mul(p, s, rows, result, acc)
        e >>= 1
        if e:
            acc = mul(p, s, rows, acc, acc)
    return result


def inverse(p: int, s: int, rows, a) -> tuple:
    if not any(a):
        raise ZeroDivisionError("inversion of zero field element")
    return power(p, s, rows, a, p ** s - 2)


def to_str(gen: str, a) -> str:
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(("" if c == 1 else str(c)) + gen)
        else:
            parts.append(("" if c == 1 else str(c)) + f"{gen}^{i}")
    return "+".join(parts) if parts else "0"


def equals_int(p: int, a, n: int) -> bool:
    """Only the integers 0..p-1 name prime-field elements."""
    return 0 <= n < p and a[0] == n and not any(a[1:])


def poly_mul(a: list, b: list) -> list:
    """Schoolbook product of FFElem coefficient lists (low to high)."""
    zero = a[0].ctx.zero()
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def poly_divmod(a: list, b: list) -> tuple[list, list]:
    """Schoolbook long division of FFElem coefficient lists; b[-1] != 0."""
    rem = list(a)
    lead_inv = b[-1].inverse()
    quot = [b[0].ctx.zero()] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] * lead_inv
        quot[k] = c
        for i, y in enumerate(b):
            rem[k + i] = rem[k + i] - c * y
    return quot, rem[:len(b) - 1]


# -- the rest of polynomial arithmetic on FFElem lists, low to high ----------
# (the results may keep trailing zeros; Poly(ctx, list) drops them)

def _trim(a: list) -> list:
    a = list(a)
    while a and a[-1].is_zero():
        a.pop()
    return a


def poly_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + list(a[len(b):])


def poly_sub(a: list, b: list) -> list:
    return poly_add(a, [-y for y in b])


def poly_monic(a: list) -> list:
    a = _trim(a)
    return [c / a[-1] for c in a] if a else a


def poly_gcd(a: list, b: list) -> list:
    """Monic gcd by Euclid on schoolbook division; [] for two zeros."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _trim(poly_divmod(a, b)[1])
    return poly_monic(a)


def poly_inverse_mod(a: list, m: list) -> list | None:
    """x with a x = 1 mod m by extended Euclid, or None if gcd(a, m) != 1;
    m has no trailing zero and degree at least 1."""
    r0, r1 = m, _trim(poly_divmod(a, m)[1])
    x0, x1 = [], [m[-1].ctx.one()]
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, _trim(r)
        x0, x1 = x1, _trim(poly_sub(x0, poly_mul(q, x1)))
    if len(r0) != 1:
        return None
    return _trim(poly_divmod([c / r0[0] for c in x0], m)[1])


def pth_power(a: list) -> list:
    a = _trim(a)
    if not a:
        return a
    p = a[0].ctx.p
    out = [a[0].ctx.zero()] * (p * (len(a) - 1) + 1)
    for i, c in enumerate(a):
        out[i * p] = c ** p
    return out


def pth_root(a: list) -> list:
    """Inverse of pth_power; a is supported on exponents divisible by p."""
    a = _trim(a)
    if not a:
        return a
    ctx = a[0].ctx
    return [c ** (ctx.p ** (ctx.s - 1)) for c in a[::ctx.p]]


def derivative(a: list) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def evaluate(a: list, x):
    """sum a_i x^i with one power of x per term."""
    acc = x.ctx.zero()
    for i, c in enumerate(a):
        acc = acc + c * x ** i
    return acc
