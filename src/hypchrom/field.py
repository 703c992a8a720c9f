"""Exact arithmetic in the quartic number field Q(c).

The generator c is the real root near 0.6778 of

    16c^4 + 8c^3 - 12c^2 - 2c + 1 = 0.

Elements are polynomials of degree <= 3 in c with rational coefficients,
stored canonically (four integer numerators over one positive common
denominator, with overall gcd 1), so equality and hashing are structural.
Multiplication and inversion work on the integer numerators only.

Sign and interval queries evaluate the element on an isolating interval of
the root and bisect until the answer is unambiguous; they are exact, never
floating point.  The bisection levels have power-of-two denominators, so
the evaluation is integer interval Horner, and only the bounds handed out
by root_bounds and fe_to_interval become Fractions.  Square roots are
decided exactly through the tower Q < Q(sqrt5) < Q(c): the quartic factors
over Q(sqrt5), so a field square root reduces to square roots in Q(sqrt5)
and ultimately to integer square roots; Q(sqrt5) elements are integer
triples.  Sign, interval and square-root arithmetic is integer-only.

Text is parsed into integer (num, den) pairs and elements are built from
them directly; as_strings writes the reduced pairs back.  Fractions are
made only where the API returns one: here FieldElement.coeffs,
root_bounds, fe_to_interval, interval_sqrt and parse_rational (and, in
geometry.py, ModulePoint.octuple and the bounds of NumericPoint).
Nothing else on the load, growth or export paths builds one.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Optional

# 16c^4 + 8c^3 - 12c^2 - 2c + 1, coefficients by ascending degree
MIN_POLY = (1, -2, -12, 8, 16)


def _parse_ratio(text: str) -> tuple[int, int]:
    """Parse "num/den" (or a bare integer) into an integer pair (num, den),
    not reduced, den nonzero.  int() raises ValueError on a malformed part;
    a zero denominator raises ZeroDivisionError."""
    num, sep, den = text.partition("/")
    n = int(num)
    if not sep:
        return n, 1
    d = int(den)
    if d == 0:
        raise ZeroDivisionError(f"zero denominator in {text.strip()!r}")
    return n, d


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or a bare integer) into a Fraction."""
    return Fraction(*_parse_ratio(text))


def format_rational(q: Fraction) -> str:
    """Serialize a Fraction as "num/den" with the denominator always explicit."""
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# raw kernel: elements as (n0, n1, n2, n3, den), not necessarily reduced
# ---------------------------------------------------------------------------

def _reduced_powers():
    # c^4 from the minimal polynomial, then c^5 = c*c^4, c^6 = c*c^5,
    # re-reducing the degree-4 term each time.
    a0, a1, a2, a3, a4 = MIN_POLY
    c4 = [Fraction(-a0, a4), Fraction(-a1, a4), Fraction(-a2, a4), Fraction(-a3, a4)]
    powers = [c4]
    for _ in range(2):
        prev = powers[-1]
        shifted = [Fraction(0), prev[0], prev[1], prev[2]]
        top = prev[3]
        powers.append([shifted[i] + top * c4[i] for i in range(4)])
    out = []
    for p in powers:
        den = math.lcm(*(f.denominator for f in p))
        out.append(tuple(int(f * den) for f in p) + (den,))
    return out


_C4, _C5, _C6 = _reduced_powers()
_RED_DEN = math.lcm(_C4[4], _C5[4], _C6[4])
_T4 = tuple(n * (_RED_DEN // _C4[4]) for n in _C4[:4])
_T5 = tuple(n * (_RED_DEN // _C5[4]) for n in _C5[:4])
_T6 = tuple(n * (_RED_DEN // _C6[4]) for n in _C6[:4])
_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _raw_mul(an, ad, bn, bd):
    a0, a1, a2, a3 = an
    b0, b1, b2, b3 = bn
    p4 = a1 * b3 + a2 * b2 + a3 * b1
    p5 = a2 * b3 + a3 * b2
    p6 = a3 * b3
    t40, t41, t42, t43 = _T4
    t50, t51, t52, t53 = _T5
    t60, t61, t62, t63 = _T6
    r = _RED_DEN
    return (
        (
            r * (a0 * b0) + p4 * t40 + p5 * t50 + p6 * t60,
            r * (a0 * b1 + a1 * b0) + p4 * t41 + p5 * t51 + p6 * t61,
            r * (a0 * b2 + a1 * b1 + a2 * b0) + p4 * t42 + p5 * t52 + p6 * t62,
            r * (a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0) + p4 * t43 + p5 * t53 + p6 * t63,
        ),
        r * ad * bd,
    )


def _raw_add(an, ad, bn, bd):
    if ad == bd:
        return (an[0] + bn[0], an[1] + bn[1], an[2] + bn[2], an[3] + bn[3]), ad
    return (
        (
            an[0] * bd + bn[0] * ad,
            an[1] * bd + bn[1] * ad,
            an[2] * bd + bn[2] * ad,
            an[3] * bd + bn[3] * ad,
        ),
        ad * bd,
    )


def _raw_sub(an, ad, bn, bd):
    if ad == bd:
        return (an[0] - bn[0], an[1] - bn[1], an[2] - bn[2], an[3] - bn[3]), ad
    return (
        (
            an[0] * bd - bn[0] * ad,
            an[1] * bd - bn[1] * ad,
            an[2] * bd - bn[2] * ad,
            an[3] * bd - bn[3] * ad,
        ),
        ad * bd,
    )


def _raw_is_zero(an) -> bool:
    return an[0] == 0 and an[1] == 0 and an[2] == 0 and an[3] == 0


def _raw_from_ratios(ratios):
    """(n0, n1, n2, n3), den of four (num, den) pairs: the numerators scaled
    to the lcm of the denominators, not reduced."""
    (a0, d0), (a1, d1), (a2, d2), (a3, d3) = ratios
    den = math.lcm(d0, d1, d2, d3)
    return (a0 * (den // d0), a1 * (den // d1), a2 * (den // d2), a3 * (den // d3)), den


def _normalize(an, ad):
    if ad < 0:
        an = (-an[0], -an[1], -an[2], -an[3])
        ad = -ad
    g = math.gcd(math.gcd(an[0], an[1]), math.gcd(an[2], an[3]))
    g = math.gcd(g, ad)
    if g > 1:
        an = (an[0] // g, an[1] // g, an[2] // g, an[3] // g)
        ad //= g
    return an, ad


class FieldElement:
    """An element a0 + a1*c + a2*c^2 + a3*c^3 of Q(c), in canonical form."""

    __slots__ = ("_n", "_d")

    def __init__(self, a0=0, a1=0, a2=0, a3=0):
        f0, f1, f2, f3 = Fraction(a0), Fraction(a1), Fraction(a2), Fraction(a3)
        den = math.lcm(f0.denominator, f1.denominator, f2.denominator, f3.denominator)
        n = (
            int(f0 * den),
            int(f1 * den),
            int(f2 * den),
            int(f3 * den),
        )
        self._n, self._d = _normalize(n, den)

    @classmethod
    def _from_raw(cls, an, ad) -> "FieldElement":
        self = object.__new__(cls)
        self._n, self._d = _normalize(an, ad)
        return self

    # -- accessors ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        d = self._d
        return tuple(Fraction(n, d) for n in self._n)

    def is_zero(self) -> bool:
        return _raw_is_zero(self._n)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            return other
        if isinstance(other, int):
            return FieldElement._from_raw((other, 0, 0, 0), 1)
        if isinstance(other, Fraction):
            return FieldElement(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement._from_raw(*_raw_add(self._n, self._d, o._n, o._d))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement._from_raw(*_raw_sub(self._n, self._d, o._n, o._d))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement._from_raw(*_raw_sub(o._n, o._d, self._n, self._d))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement._from_raw(*_raw_mul(self._n, self._d, o._n, o._d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        n = self._n
        return FieldElement._from_raw((-n[0], -n[1], -n[2], -n[3]), self._d)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse by the adjugate of the multiplication
        matrix, in integers only.

        Column j of M is self*c^j, so M v = e0 solves self*v = 1; with
        the integer matrix B = RED_DEN * M from _raw_mul, v_i is
        RED_DEN * C_0i / det(B), where C_0i are the cofactors of the first
        row.  det(B) is RED_DEN^4 times the norm of self's numerator, which
        is nonzero since the minimal polynomial is irreducible."""
        if self.is_zero():
            raise ZeroDivisionError("division by the zero element of Q(c)")
        cols = [_raw_mul(self._n, 1, e, 1)[0] for e in _BASIS]
        # rows 1-3 of B, and the 2x2 minors of rows 2-3 on column pairs
        (b10, b20, b30), (b11, b21, b31), (b12, b22, b32), (b13, b23, b33) = (
            col[1:] for col in cols
        )
        m01 = b20 * b31 - b21 * b30
        m02 = b20 * b32 - b22 * b30
        m03 = b20 * b33 - b23 * b30
        m12 = b21 * b32 - b22 * b31
        m13 = b21 * b33 - b23 * b31
        m23 = b22 * b33 - b23 * b32
        cof = (
            b11 * m23 - b12 * m13 + b13 * m12,
            -(b10 * m23 - b12 * m03 + b13 * m02),
            b10 * m13 - b11 * m03 + b13 * m01,
            -(b10 * m12 - b11 * m02 + b12 * m01),
        )
        det = sum(col[0] * k for col, k in zip(cols, cof))
        scale = _RED_DEN * self._d
        return FieldElement._from_raw(tuple(scale * k for k in cof), det)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._n == o._n and self._d == o._d

    def __hash__(self):
        return hash((self._n, self._d))

    def __repr__(self):
        return "FieldElement({}, {}, {}, {})".format(*self.coeffs)

    def __str__(self):
        return " ".join(self.as_strings())

    # -- evaluation ----------------------------------------------------------

    def to_float(self) -> float:
        x = generator_float()
        n = self._n
        return (n[0] + x * (n[1] + x * (n[2] + x * n[3]))) / self._d

    # -- serialization --------------------------------------------------------

    def as_strings(self) -> tuple[str, str, str, str]:
        """The coefficients as format_rational writes them, reduced."""
        d = self._d
        out = []
        for n in self._n:
            g = math.gcd(n, d)
            out.append(f"{n // g}/{d // g}")
        return tuple(out)

    @classmethod
    def from_strings(cls, parts) -> "FieldElement":
        if len(parts) != 4:
            raise ValueError("expected four coefficient strings")
        return cls._from_raw(*_raw_from_ratios([_parse_ratio(p) for p in parts]))


ZERO = FieldElement(0)
ONE = FieldElement(1)
GEN = FieldElement(0, 1)  # the generator c itself


# ---------------------------------------------------------------------------
# root isolation and interval evaluation
# ---------------------------------------------------------------------------

def _minpoly_at(num: int, den: int) -> int:
    """den^4 times the minimal polynomial at num/den: the same sign."""
    out = 0
    scale = 1
    for coef in reversed(MIN_POLY):
        out = out * num + coef * scale
        scale *= den
    return out


class _RootCache:
    """The bisection chain of the designated root: level k is the interval
    [L_k, L_k + 1] / (40 * 2^k), of width 1/(40 * 2^k), reached by k
    deterministic halvings of the seed interval [27/40, 28/40], which
    brackets the root and no other.  A level depends only on k, never on
    which widths were asked for before."""

    def __init__(self):
        self._lock = threading.Lock()
        if not _minpoly_at(27, 40) * _minpoly_at(28, 40) < 0:
            raise AssertionError("seed interval does not bracket the root")
        self._lows = [27]  # L_k; the chain only grows

    @staticmethod
    def level(num: int, den: int) -> int:
        """The coarsest level at most num/den wide (num, den > 0)."""
        # smallest k with 1/(40 * 2^k) <= num/den, i.e. 2^k >= ceil(den / (40 num))
        need = -(-den // (40 * num))
        return (need - 1).bit_length()

    @property
    def depth(self) -> int:
        """The deepest level computed so far."""
        return len(self._lows) - 1

    def at(self, level: int) -> tuple[int, int]:
        """Level `level` as (L, D): the interval [L, L + 1] / D."""
        lows = self._lows
        if level >= len(lows):
            with self._lock:
                while len(lows) <= level:
                    # halve [lo, lo + 2] / den at its midpoint lo + 1
                    lo, den = 2 * lows[-1], 40 << len(lows)
                    left = _minpoly_at(lo, den) * _minpoly_at(lo + 1, den) <= 0
                    lows.append(lo if left else lo + 1)
        return lows[level], 40 << level

    def bounds(self, max_width: Fraction) -> tuple[Fraction, Fraction]:
        """The coarsest level at most max_width wide, as rationals."""
        lo, den = self.at(self.level(max_width.numerator, max_width.denominator))
        return Fraction(lo, den), Fraction(lo + 1, den)


_ROOT = _RootCache()


def root_bounds(max_width=Fraction(1, 10**12)) -> tuple[Fraction, Fraction]:
    """Bounds in Q on the generator value, at most max_width wide; the
    same bounds for the same width in every call history."""
    return _ROOT.bounds(Fraction(max_width))


# root enclosures at least this narrow carry the root to full double
# precision; generator_float and fe_to_interval never use wider ones
_FLOAT_ROOT_WIDTH = Fraction(1, 10**18)
_FLOAT_ROOT_LEVEL = _RootCache.level(1, 10**18)


def generator_float() -> float:
    global _GEN_FLOAT
    if _GEN_FLOAT is None:
        lo, hi = _ROOT.bounds(_FLOAT_ROOT_WIDTH)
        _GEN_FLOAT = float((lo + hi) / 2)
    return _GEN_FLOAT


_GEN_FLOAT: Optional[float] = None


def _interval_eval(n, lo: int, den: int) -> tuple[int, int]:
    """Bounds on n0 + n1 x + n2 x^2 + n3 x^3 over x in [lo, lo + 1] / den,
    as numerators over den^3: Horner in interval arithmetic.  x > 0, so
    each step multiplies a lower bound by the end of the interval that
    keeps it lowest, and an upper bound by the one that keeps it highest."""
    hi = lo + 1
    acc_lo = acc_hi = n[3]
    scale = 1
    for coef in (n[2], n[1], n[0]):
        scale *= den
        acc_lo = acc_lo * (lo if acc_lo >= 0 else hi) + coef * scale
        acc_hi = acc_hi * (hi if acc_hi >= 0 else lo) + coef * scale
    return acc_lo, acc_hi


def fe_sign(a: FieldElement) -> int:
    """Sign of a at the designated root: 0 exactly when a is the zero
    element, otherwise decided by interval refinement."""
    n = a._n
    if _raw_is_zero(n):
        return 0
    # the bounds are numerators over a._d * den^3 > 0, so they carry the
    # sign; any enclosure of the root decides it, so start from the deepest
    # level computed so far and go 8 levels (256 times narrower) deeper per
    # round
    level = _ROOT.depth
    while True:
        vlo, vhi = _interval_eval(n, *_ROOT.at(level))
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        level += 8
        if level > 20000:
            raise ArithmeticError("sign refinement failed to terminate")


def _interval_raw(a: FieldElement, tn: int, td: int) -> tuple[int, int, int]:
    """fe_to_interval's bounds as integers (lo, hi, den), den > 0, for a
    target width tn/td > 0."""
    n = a._n
    if _raw_is_zero(n):
        return 0, 0, 1
    d = a._d
    level = max(_RootCache.level(tn, td), _FLOAT_ROOT_LEVEL)
    while True:
        lo, den = _ROOT.at(level)
        vlo, vhi = _interval_eval(n, lo, den)
        scale = d * den**3
        if (vhi - vlo) * td <= tn * scale:
            return vlo, vhi, scale
        level += 1


def fe_to_interval(a: FieldElement, target_width) -> tuple[Fraction, Fraction]:
    """Bounds in Q on the value of a at the root, at most target_width
    wide.  Bounds shrink monotonically as target_width decreases, and
    depend only on a and target_width: they are evaluated on the coarsest
    level of the root's bisection chain that gives a narrow enough value,
    and never on one coarser than generator_float's, so their midpoint is
    as accurate as a double can hold."""
    target = Fraction(target_width)
    if target <= 0:
        raise ValueError("target_width must be positive")
    lo, hi, den = _interval_raw(a, target.numerator, target.denominator)
    return Fraction(lo, den), Fraction(hi, den)


def interval_sqrt(lo: Fraction, hi: Fraction, target_width) -> tuple[Fraction, Fraction]:
    """Outward-rounded square root of a nonnegative rational interval."""
    if lo < 0:
        raise ValueError("interval must be nonnegative")
    target = Fraction(target_width)
    # scale so that integer square roots give the precision we need
    scale = 1
    while Fraction(2, scale) > target:
        scale <<= 1
    lo_s = math.isqrt((lo.numerator * scale * scale) // lo.denominator)
    hi_num = hi.numerator * scale * scale
    hi_s = math.isqrt(-(-hi_num // hi.denominator))
    return Fraction(lo_s, scale), Fraction(hi_s + 1, scale)


# ---------------------------------------------------------------------------
# square roots via the tower Q < Q(sqrt5) < Q(c)
# ---------------------------------------------------------------------------
#
# sqrt5 = 16c^3 + 8c^2 - 8c - 1 lies in Q(c), and the generator satisfies
# c^2 = u*c + 1/4 over Q(sqrt5) with u = (-1 + sqrt5)/4.  Elements of
# Q(sqrt5) are integer triples (a, b, d), d > 0, meaning (a + b*sqrt5)/d.

SQRT5 = FieldElement(-1, -8, 8, 16)


def _q5_reduce(a: int, b: int, d: int):
    g = math.gcd(a, b, d)
    return (a // g, b // g, d // g) if g > 1 else (a, b, d)


def _q5_add(x, y):
    (a, b, d), (e, f, h) = x, y
    if d == h:
        return _q5_reduce(a + e, b + f, d)
    return _q5_reduce(a * h + e * d, b * h + f * d, d * h)


def _q5_sub(x, y):
    return _q5_add(x, (-y[0], -y[1], y[2]))


def _q5_mul(x, y):
    (a, b, d), (e, f, h) = x, y
    return _q5_reduce(a * e + 5 * b * f, a * f + b * e, d * h)


def _q5_div(x, y):
    # x / y = x * conj(y) / N(y), N(y) = (e^2 - 5f^2) / h^2
    (a, b, d), (e, f, h) = x, y
    nrm = e * e - 5 * f * f
    if nrm == 0:
        raise ZeroDivisionError("zero element of Q(sqrt5)")
    if nrm < 0:
        nrm, h = -nrm, -h
    return _q5_reduce(h * (a * e - 5 * b * f), h * (b * e - a * f), d * nrm)


def _rat_sqrt(n: int, d: int) -> Optional[int]:
    """r with sqrt(n/d) = r/d when n/d (d > 0) is a rational square, else
    None: n/d = n*d / d^2."""
    if n < 0:
        return None
    r = math.isqrt(n * d)
    return r if r * r == n * d else None


def _q5_sqrt(g):
    """A square root of g in Q(sqrt5), or None when g is not a square."""
    a, b, d = g
    if b == 0:
        r = _rat_sqrt(a, d)
        if r is not None:
            return (r, 0, d)
        r = _rat_sqrt(a, 5 * d)  # a/d = 5 (r / 5d)^2
        if r is not None:
            return (0, r, 5 * d)
        return None
    # a square's norm (a^2 - 5b^2)/d^2 is a rational square m^2/d^2
    m = _rat_sqrt(a * a - 5 * b * b, 1)
    if m is None:
        return None
    for mm in (m, -m):
        # rational part t0 = sqrt((a + mm) / 2d) = r/2d, then t1 = b/r
        r = _rat_sqrt(a + mm, 2 * d)
        if not r:
            continue
        if r**4 + 20 * d * d * b * b == 4 * a * d * r * r:  # t0^2 + 5 t1^2 = a/d
            return _q5_reduce(r * r, 2 * d * b, 2 * d * r)
    return None


_Q5_U = (-1, 1, 4)               # u
_Q5_TWO_U = (-1, 1, 2)           # 2u
_Q5_FOUR_QA = (11, -1, 2)        # 4(u^2 + 1)
_Q5_INV_TWO_QA = (11, 1, 29)     # 1 / (2(u^2 + 1))


def _from_quad_basis(t0, t1) -> FieldElement:
    # t0 + t1 c, with sqrt5 = -1 - 8c + 8c^2 + 16c^3 and sqrt5 c = -1 + c + 4c^2
    (a0, b0, e0), (a1, b1, e1) = t0, t1
    return FieldElement._from_raw(
        (
            (a0 - b0) * e1 - b1 * e0,
            -8 * b0 * e1 + (a1 + b1) * e0,
            8 * b0 * e1 + 4 * b1 * e0,
            16 * b0 * e1,
        ),
        e0 * e1,
    )


def fe_sqrt(d: FieldElement) -> Optional[FieldElement]:
    """Exact square root of d in Q(c), nonnegative branch, or None when d
    is not a square in the field.  Raises ValueError on negative input."""
    s = fe_sign(d)
    if s < 0:
        raise ValueError("square root of a negative element")
    if s == 0:
        return ZERO
    # d = d0 + d1 c with d0, d1 in Q(sqrt5), by c^2 = u c + 1/4 and
    # c^3 = ((5 - sqrt5)/8) c + (-1 + sqrt5)/16
    n0, n1, n2, n3 = d._n
    den = 16 * d._d
    d0 = _q5_reduce(16 * n0 + 4 * n2 - n3, n3, den)
    d1 = _q5_reduce(16 * n1 - 4 * n2 + 10 * n3, 4 * n2 - 2 * n3, den)
    # a root t0 + t1 c has w = t1^2 solving qa w^2 - qb w + qc = 0 with
    # qa = u^2 + 1 = (11 - sqrt5)/8, qb = 2 u d1 + 4 d0, qc = d1^2
    qb = _q5_add(_q5_mul(_Q5_TWO_U, d1), _q5_mul((4, 0, 1), d0))
    disc = _q5_sub(_q5_mul(qb, qb), _q5_mul(_Q5_FOUR_QA, _q5_mul(d1, d1)))
    sq = _q5_sqrt(disc)
    if sq is None:
        return None
    for qb_pm_sq in (_q5_add(qb, sq), _q5_sub(qb, sq)):
        t1 = _q5_sqrt(_q5_mul(qb_pm_sq, _Q5_INV_TWO_QA))
        if t1 is None:
            continue
        if t1[0] == 0 and t1[1] == 0:
            t0 = _q5_sqrt(d0)
            if t0 is None:
                continue
        else:
            # t0 = (d1/t1 - u t1) / 2
            t0 = _q5_mul(_q5_sub(_q5_div(d1, t1), _q5_mul(_Q5_U, t1)), (1, 0, 2))
        t = _from_quad_basis(t0, t1)
        if t * t == d:
            return t if fe_sign(t) >= 0 else -t
    return None


# ---------------------------------------------------------------------------
# derived constants of the construction
# ---------------------------------------------------------------------------

SIN_SQ = ONE - GEN * GEN          # 1 - c^2
RADIUS_SQ = 2 * GEN - ONE         # 2c - 1, squared Euclidean radius of the base circle
EDGE_INVARIANT = RADIUS_SQ / (ONE - GEN)   # (2c-1)/(1-c), the value taken on edges
