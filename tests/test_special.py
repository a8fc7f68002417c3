import math
import random

import pytest

from moodkit import DomainError, f_upper_p, ln_gamma, reg_inc_beta, t_two_sided_p

from tests.oracles import beta_cdf_quad, f_upper_quad, t_two_sided_quad


def test_ln_gamma_trivial_points():
    assert ln_gamma(1.0) == 0.0
    assert ln_gamma(2.0) == 0.0
    assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert ln_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-13)


def test_ln_gamma_against_factorials():
    fact = 1.0
    for n in range(2, 150):
        fact *= n - 1
        if math.isinf(fact):
            break
        assert ln_gamma(float(n)) == pytest.approx(math.log(fact), rel=1e-12)


def test_ln_gamma_recurrence():
    # ln G(x+1) = ln G(x) + ln x, over a wide log-spaced grid
    rng = random.Random(11)
    for _ in range(300):
        x = 10 ** rng.uniform(-3, 5)
        lhs = ln_gamma(x + 1.0)
        rhs = ln_gamma(x) + math.log(x)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_ln_gamma_relative_accuracy_band():
    # spot the zeros of ln Gamma where relative error is hardest to hold;
    # the reference must be arbitrary-precision because libm's lgamma is
    # itself off by ~1e-8 relative right next to the zeros
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for x in (0.5, 0.9999999, 1.0, 1.0000001, 1.5, 1.9999999, 2.0,
              2.0000001, 2.5, 5.0, 65.0, 1e3, 1e6):
        want = mpmath.loggamma(mpmath.mpf(x))
        got = ln_gamma(x)
        if want == 0:
            assert got == 0.0
        else:
            assert float(abs(got - want) / abs(want)) < 1e-12


def test_ln_gamma_dense_relative_accuracy_sweep():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = random.Random(13)
    worst = 0.0
    for _ in range(400):
        x = 10 ** rng.uniform(math.log10(0.5), 6)
        want = mpmath.loggamma(mpmath.mpf(x))
        if want == 0:
            continue
        got = ln_gamma(x)
        worst = max(worst, float(abs(got - want) / abs(want)))
    assert worst < 1e-12


def test_ln_gamma_away_from_the_zeros_and_at_overflow():
    # below 0.5 and from 1e6 up, ln_gamma is math.lgamma, which no other
    # test reaches; above about 2.5e305 ln Gamma(x) leaves the float range
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def log_grid(lo, hi):
        return [10 ** (lo + (hi - lo) * i / 199) for i in range(200)]

    grid = log_grid(-300, math.log10(0.4999)) + log_grid(6, math.log10(2.5e305))
    assert max(grid[:200]) < 0.5 and max(grid) < 2.6e305
    for x in grid:
        want = mpmath.loggamma(mpmath.mpf(x))
        assert float(abs(ln_gamma(x) - want) / abs(want)) < 1e-14, x
    assert ln_gamma(math.inf) == math.inf
    assert ln_gamma(1e306) == math.inf


def test_ln_gamma_domain():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-3.5)


def test_reg_inc_beta_uniform_case():
    for i in range(51):
        x = i / 50.0
        assert abs(reg_inc_beta(x, 1.0, 1.0) - x) <= 1e-12


def test_reg_inc_beta_symmetry_at_half():
    for a in (0.2, 1.0, 3.7, 25.0, 400.0):
        assert reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-12)


def test_reg_inc_beta_endpoints():
    assert reg_inc_beta(0.0, 2.5, 3.5) == 0.0
    assert reg_inc_beta(1.0, 2.5, 3.5) == 1.0


def test_reg_inc_beta_quadrature_point():
    # I_0.3(2, 3) has the closed form 1 - (1-x)^3 (1+3x) at a=2, b=3
    closed = 1.0 - (0.7 ** 3) * (1 + 0.9)
    assert closed == pytest.approx(0.3483, abs=1e-12)
    assert reg_inc_beta(0.3, 2.0, 3.0) == pytest.approx(closed, abs=1e-12)
    assert beta_cdf_quad(0.3, 2.0, 3.0) == pytest.approx(closed, abs=1e-10)


def test_reg_inc_beta_reflection_identity():
    rng = random.Random(23)
    for _ in range(100):
        x = rng.random()
        a = 10 ** rng.uniform(-1, 2)
        b = 10 ** rng.uniform(-1, 2)
        total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
        assert abs(total - 1.0) <= 1e-10


def test_reg_inc_beta_monotone_in_x():
    prev = -1.0
    for i in range(101):
        v = reg_inc_beta(i / 100.0, 3.2, 1.7)
        assert v >= prev
        prev = v


def test_reg_inc_beta_matches_quadrature():
    rng = random.Random(37)
    for _ in range(100):
        x = rng.uniform(0.01, 0.99)
        a = 10 ** rng.uniform(-0.5, 1.7)
        b = 10 ** rng.uniform(-0.5, 1.7)
        assert reg_inc_beta(x, a, b) == pytest.approx(
            beta_cdf_quad(x, a, b), abs=1e-8)


def test_reg_inc_beta_domain():
    with pytest.raises(DomainError):
        reg_inc_beta(0.5, 0.0, 1.0)
    with pytest.raises(DomainError):
        reg_inc_beta(0.5, 1.0, -2.0)
    with pytest.raises(DomainError):
        reg_inc_beta(1.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        reg_inc_beta(-0.1, 1.0, 1.0)


def test_t_center_is_exactly_one():
    for df in (1, 2, 5, 29, 1000):
        assert t_two_sided_p(0.0, df) == 1.0


def test_t_cauchy_closed_form():
    # df=1 is Cauchy: two-sided p at t=1 is exactly 1/2
    assert t_two_sided_p(1.0, 1) == pytest.approx(0.5, abs=1e-10)
    # general Cauchy closed form for a few points
    for t in (0.3, 2.0, 7.5):
        want = 2.0 * (0.5 - math.atan(t) / math.pi)
        assert t_two_sided_p(t, 1) == pytest.approx(want, rel=1e-12)


def test_t_is_even_in_t():
    rng = random.Random(41)
    for _ in range(50):
        t = rng.uniform(-8, 8)
        df = rng.randint(1, 200)
        assert t_two_sided_p(t, df) == t_two_sided_p(-t, df)


def test_t_decreasing_in_abs_t():
    for df in (1, 7, 29):
        values = [t_two_sided_p(t / 4.0, df) for t in range(0, 40)]
        assert all(x > y for x, y in zip(values, values[1:]))


def test_t_normal_limit():
    assert t_two_sided_p(1.96, 1000) == pytest.approx(0.05, abs=5e-3)


def test_t_tabulated_point():
    # classic t-table entry: P(|T_29| > 2.0)
    assert t_two_sided_p(2.0, 29) == pytest.approx(0.0549, abs=5e-5)


def test_t_matches_quadrature():
    rng = random.Random(43)
    for _ in range(100):
        t = rng.uniform(-6, 6)
        df = rng.randint(1, 120)
        assert t_two_sided_p(t, df) == pytest.approx(
            t_two_sided_quad(t, df), abs=1e-8)


def test_t_domain():
    with pytest.raises(DomainError):
        t_two_sided_p(1.0, 0)
    with pytest.raises(DomainError):
        t_two_sided_p(1.0, -4)
    with pytest.raises(DomainError):
        t_two_sided_p(1.0, 2.5)


def test_f_trivial_points():
    assert f_upper_p(0.0, 3, 29) == 1.0
    assert f_upper_p(1.0, 7, 7) == pytest.approx(0.5, abs=1e-12)


def test_f_decreasing():
    values = [f_upper_p(f / 2.0, 3, 29) for f in range(0, 30)]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_f_huge_statistic_underflows_to_zero_tail():
    assert f_upper_p(2734.947, 3, 29) < 1e-12


def test_f_matches_quadrature():
    rng = random.Random(47)
    for _ in range(100):
        f = rng.uniform(0.05, 20.0)
        df1 = rng.randint(1, 40)
        df2 = rng.randint(1, 40)
        assert f_upper_p(f, df1, df2) == pytest.approx(
            f_upper_quad(f, df1, df2), abs=1e-8)


def test_f_domain():
    with pytest.raises(DomainError):
        f_upper_p(-1.0, 3, 29)
    with pytest.raises(DomainError):
        f_upper_p(1.0, 0, 29)
    with pytest.raises(DomainError):
        f_upper_p(1.0, 3, 0)


@pytest.mark.parametrize("call", [
    lambda: t_two_sided_p(1.0, 10**400),
    lambda: f_upper_p(1.0, 10**400, 3),
    lambda: f_upper_p(1.0, 3, 10**400),
    lambda: t_two_sided_p(1.0, -10**5000),
], ids=["t", "f-df1", "f-df2", "t-negative"])
def test_df_without_a_float_value_is_domain_error(call):
    with pytest.raises(DomainError, match="float range"):
        call()


def test_overflowing_prefactor_is_domain_error():
    # At df1·f near 1e69 the log-gamma differences of the prefactor cancel
    # and its exp overflows; that is a lost precision, not an OverflowError.
    with pytest.raises(DomainError, match="precision"):
        f_upper_p(1.904e46, 9 * 10**22, 10**7)
