"""Tail probabilities for the t and F distributions, plus their kernels.

ln_gamma is the stdlib's math.lgamma except on [0.5, 2.5), where a
zeta-series expansion of ln Gamma(1+z) keeps full relative accuracy next to
the zeros at x = 1 and x = 2 (math.lgamma loses about 1e-8 relative there to
cancellation).  It is finite for x up to about 2.5e305 and inf above.  The
incomplete beta uses the standard continued fraction evaluated by the
modified Lentz method, switched across x = (a+1)/(a+b+2) for convergence.
Both tails go through one kernel, _f_tail: T_df² is F(1, df), so the t tail
is the F tail at t².  The kernel evaluates the log-beta normaliser once per
(df1, df2) and forms x and 1 - x each as a ratio of the statistic, and the
prefactor takes both its logs through the smaller of the two.
"""

from __future__ import annotations

import math

from .errors import DomainError, _real

EULER_GAMMA = 0.57721566490153286061

# zeta(k) - 1 for k = 2 .. 41; the series for ln Gamma(1+z) needs ~40 terms
# to reach double precision at |z| = 0.5.
_ZETA_M1 = (
    0.64493406684822643647,
    0.2020569031595942854,
    0.082323233711138191516,
    0.036927755143369926331,
    0.017343061984449139715,
    0.0083492773819228268398,
    0.0040773561979443393787,
    0.0020083928260822144179,
    0.00099457512781808533715,
    0.0004941886041194645587,
    0.00024608655330804829864,
    0.00012271334757848914675,
    0.000061248135058704829259,
    0.000030588236307020493552,
    0.000015282259408651871733,
    7.6371976378997622736e-6,
    3.8172932649998398565e-6,
    1.9082127165539389257e-6,
    9.5396203387279611315e-7,
    4.7693298678780646312e-7,
    2.3845050272773299e-7,
    1.1921992596531107307e-7,
    5.9608189051259479612e-8,
    2.9803503514652280186e-8,
    1.4901554828365041235e-8,
    7.450711789835429492e-9,
    3.7253340247884570548e-9,
    1.8626597235130490064e-9,
    9.3132743241966818287e-10,
    4.656629065033784073e-10,
    2.328311833676505492e-10,
    1.1641550172700519776e-10,
    5.8207720879027008893e-11,
    2.9103850444970996869e-11,
    1.4551921891041984236e-11,
    7.2759598350574810145e-12,
    3.6379795473786511902e-12,
    1.8189896503070659477e-12,
    9.0949478402638892829e-13,
    4.547473783042154027e-13,
)


def _lgamma_1p(z: float) -> float:
    """ln Gamma(1+z) for |z| <= 0.5 via the zeta series; exact at z = 0."""
    total = 0.0
    zk = z * z
    sign = 1.0
    for i, c in enumerate(_ZETA_M1):
        term = sign * c * zk / (i + 2)
        total += term
        if abs(term) < 1e-20 * abs(total):
            break
        zk *= z
        sign = -sign
    return z * (1.0 - EULER_GAMMA) - math.log1p(z) + total


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function; x must be positive.

    Relative error stays below ~5e-15 for x in (0, 2.5e305], including the
    neighborhoods of the zeros at x = 1 and x = 2.  Above about 2.5e305,
    ln Gamma(x) exceeds the float range and the result is inf.
    """
    x = _real(x, "x")
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x!r}")
    if 0.5 <= x < 1.5:
        return _lgamma_1p(x - 1.0)
    if 1.5 <= x < 2.5:
        # ln Gamma(x) = ln Gamma(x-1) + ln(x-1)
        return _lgamma_1p(x - 2.0) + math.log1p(x - 2.0)
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
    try:
        front = math.exp(ln_front)
    except OverflowError:
        # The true prefactor is far below the largest double, so the
        # log-gamma differences in ln_front have cancelled.
        raise DomainError(f"reg_inc_beta({x!r}, {a!r}, {b!r}) lost its "
                          "precision: the log prefactor overflows") from None
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
