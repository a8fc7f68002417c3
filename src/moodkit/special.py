"""Tail probabilities for the t and F distributions, plus their kernels.

ln_gamma is the stdlib's math.lgamma except on [0.5, 2.5), where
Algorithm 708's gamln1, a rational approximation to ln Gamma(1+a), keeps
full relative accuracy next to the zeros at x = 1 and x = 2 (math.lgamma
loses about 1e-8 relative there to cancellation).  It is finite for x up
to about 2.5e305 and inf above.  The incomplete beta uses the standard
continued fraction evaluated by the modified Lentz method, switched across
x = (a+1)/(a+b+2) for convergence.
Both tails go through one kernel, _f_tail: T_df² is F(1, df), so the t tail
is the F tail at t².  The kernel evaluates the log-beta normaliser once per
(df1, df2) and forms x and 1 - x each as a ratio of the statistic, and the
prefactor takes both its logs through the smaller of the two.
"""

from __future__ import annotations

import math

from .errors import DomainError, _real

# Algorithm 708's gamln1 (DiDonato & Morris, ACM TOMS 18(3), 1992): the
# numerator and denominator coefficients of ln Gamma(1+a) = -a P(a)/Q(a)
# for a < 0.6 and of x R(x)/S(x), x = a - 1, above; constant terms first.
_P = (.577215664901533, .844203922187225, -.168860593646662,
      -.780427615533591, -.402055799310489, -.673562214325671e-1,
      -.271935708322958e-2)
_Q = (1.0, .288743195473681e1, .312755088914843e1, .156875193295039e1,
      .361951990101499, .325038868253937e-1, .667465618796164e-3)
_R = (.422784335098467, .848044614534529, .565221050691933,
      .156513060486551, .170502484022650e-1, .497958207639485e-3)
_S = (1.0, .124313399877507e1, .548042109832463, .101552187439830,
      .713309612391000e-2, .116165475989616e-3)


def _poly(c: tuple, x: float) -> float:
    """The polynomial with coefficients c, constant term first, at x."""
    v = 0.0
    for k in reversed(c):
        v = v * x + k
    return v


def _gamln1(a: float) -> float:
    """ln Gamma(1+a) for -0.2 <= a <= 1.25; +0.0, not -0.0, at a = 0 and 1."""
    if a < 0.6:
        return 0.0 - a * _poly(_P, a) / _poly(_Q, a)
    x = a - 1.0
    return x * _poly(_R, x) / _poly(_S, x)


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function; x must be positive.

    Relative error stays below ~5e-15 for x in (0, 2.5e305], including the
    neighborhoods of the zeros at x = 1 and x = 2.  Above about 2.5e305,
    ln Gamma(x) exceeds the float range and the result is inf.
    """
    x = _real(x, "x")
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x!r}")
    if 0.8 <= x <= 2.25:
        return _gamln1(x - 1.0)
    if 0.5 <= x < 0.8:
        return _gamln1(x) - math.log(x)
    if 2.25 < x < 2.5:
        # ln Gamma(x) = ln Gamma(x-1) + ln(x-1)
        return _gamln1(x - 2.0) + math.log1p(x - 2.0)
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


_BETA_MAXIT = 300
_BETA_EPS = 3e-16
_BETA_FPMIN = 1e-300


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz evaluation."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAXIT + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _BETA_FPMIN:
                d = _BETA_FPMIN
            c = 1.0 + aa / c
            if abs(c) < _BETA_FPMIN:
                c = _BETA_FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    # Not converged, which happens when a and b are both large: at a = b =
    # 5e5 the upper F tail at f = 1 is 4.5e-10 off its 0.5, and at 5e8 it is
    # 0 (ROADMAP item 1).  Returning h keeps the function total.
    return h


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b); 0 <= x <= 1, a > 0, b > 0.

    Nondecreasing in x with I_0 = 0 and I_1 = 1.  While a and b are at most
    about 500 the tails are accurate to about 3e-13 absolute for t (df up
    to 1000) and 6e-13 for F (1000 degrees of freedom each), measured
    against mpmath.  Beyond that the error grows with them: the t tail is
    off by about 8e-12 at df = 1e4 and 5e-10 at 1e6, and
    f_upper_p(1.0, 10**9, 10**9) returns 0.0, not 0.5 (ROADMAP item 1 is
    the fix).
    """
    x = _real(x, "x")
    a = _real(a, "a")
    b = _real(b, "b")
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"reg_inc_beta requires a, b > 0, got a={a!r} b={b!r}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"reg_inc_beta requires 0 <= x <= 1, got {x!r}")
    return _inc_beta(x, 1.0 - x, a, b, _ln_norm(a, b))


def _ln_norm(a: float, b: float) -> float:
    """ln B(a, b)⁻¹, the log of the incomplete beta's normaliser."""
    return ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b)


def _inc_beta(x: float, y: float, a: float, b: float, ln_norm: float) -> float:
    """reg_inc_beta of checked arguments; y is 1 - x, which a caller may
    know to more digits than 1.0 - x keeps, and ln_norm is _ln_norm(a, b)."""
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    # Each log is taken through the smaller of x and y, which is held to
    # full relative precision; the larger lies near 1, where a rounding of
    # 1e-16 times a large a or b would move ln_front by whole units.
    if x < 0.5:
        ln_x, ln_y = math.log(x), math.log1p(-x)
    else:
        ln_x, ln_y = math.log1p(-y), math.log(y)
    ln_front = ln_norm + a * ln_x + b * ln_y
    # exp overflows above 709.78.  The true prefactor is far below the
    # largest double, so there the log-gamma differences in ln_front have
    # cancelled; a NaN is an infinite ln_gamma less another.
    if not ln_front < 709.78:
        raise DomainError(f"reg_inc_beta({x!r}, {a!r}, {b!r}) lost its "
                          "precision: the log prefactor overflows")
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        v = front * _beta_cf(x, a, b) / a
    else:
        v = 1.0 - front * _beta_cf(y, b, a) / b
    # CF rounding can leave the result an ulp or two outside [0,1].
    return min(1.0, max(0.0, v))


def _check_df(df, label: str) -> int:
    if isinstance(df, bool) or not isinstance(df, int):
        raise DomainError(f"{label} must be a positive integer, got {df!r}")
    _real(df, label)
    if df < 1:
        raise DomainError(f"{label} must be >= 1, got {df!r}")
    return df


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T_df| >= |t|) for the Student t distribution.

    T_df² is F(1, df), so this is the F tail at t², I_x(df/2, 1/2) with
    x = df/(df + t²): t = 0 gives exactly 1 and the result is even in t.
    """
    df = _check_df(df, "df")
    t = _real(t, "t statistic")
    if t != t:
        raise DomainError("t statistic is NaN")
    return _f_tail(1, df)(t * t)


def f_upper_p(f: float, df1: int, df2: int) -> float:
    """P(F_{df1,df2} >= f); strictly decreasing in f, 1 at f = 0."""
    df1 = _check_df(df1, "df1")
    df2 = _check_df(df2, "df2")
    f = _real(f, "f statistic")
    if not f >= 0.0:
        raise DomainError(f"f statistic must be >= 0, got {f!r}")
    return _f_tail(df1, df2)(f)


def _f_tail(df1: int, df2: int):
    """f ↦ P(F_{df1,df2} >= f) for checked degrees of freedom and f >= 0,
    with the log-beta normaliser evaluated once, here."""
    a, b = 0.5 * df2, 0.5 * df1
    ln_norm = _ln_norm(a, b)

    def tail(f: float) -> float:
        # x and 1 - x are each formed as a ratio: near x = 1, which a small
        # t or f gives, 1.0 - x would keep few of its digits.
        g = df1 * f
        return _inc_beta(df2 / (df2 + g), g / (df2 + g), a, b, ln_norm)
    return tail
