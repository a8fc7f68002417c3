import math
import random
from fractions import Fraction

import pytest

from moodkit import (
    Dataset, DegenerateModelError, DomainError, InsufficientDataError,
    MissingPredictorError, ModelSpec, RankDeficientError, anova,
    builtin_table1, fit, fit_all_interchange, log_transform, predict,
)

from tests.oracles import gram_inverse_diag_fractions, ols_normal_equations


def make_dataset(columns, rows):
    return Dataset(columns=tuple(columns), rows=tuple(rows))


def random_dataset(rng, n_rows, n_preds, noisy=True):
    cols = [f"x{i}" for i in range(n_preds)] + ["y"]
    true_betas = [rng.uniform(-3, 3) for _ in range(n_preds + 1)]
    rows = []
    for _ in range(n_rows):
        xs = [rng.uniform(-10, 10) for _ in range(n_preds)]
        y = true_betas[0] + sum(b * x for b, x in zip(true_betas[1:], xs))
        if noisy:
            y += rng.gauss(0, 1.0)
        rows.append(tuple(xs) + (y,))
    return make_dataset(cols, rows), true_betas


def test_model_spec_invariants():
    with pytest.raises(ValueError):
        ModelSpec(response="y", predictors=("y", "x"))
    with pytest.raises(ValueError):
        ModelSpec(response="y", predictors=("x", "x"))
    with pytest.raises(ValueError):
        ModelSpec(response="y", predictors=("x",), intercept=False)


def test_spec_rejects_bare_string_predictors():
    with pytest.raises(TypeError, match="str"):
        ModelSpec(response="NOL", predictors="NOC")


def test_exact_linear_data():
    data = make_dataset(["x", "y"], [(i, 1 + 2 * i) for i in range(1, 8)])
    result = fit(data, ModelSpec(response="y", predictors=("x",)))
    assert result.coefficients[0].beta == pytest.approx(1.0, abs=1e-10)
    assert result.coefficients[1].beta == pytest.approx(2.0, rel=1e-12)
    assert result.r_squared == pytest.approx(1.0, abs=1e-12)
    assert result.anova.ss_residual <= 1e-12 * result.anova.ss_total


def test_insufficient_data():
    data = make_dataset(["x", "y"], [(1, 2), (2, 3)])
    with pytest.raises(InsufficientDataError):
        fit(data, ModelSpec(response="y", predictors=("x",)))


def test_rank_deficiency_names_column():
    rng = random.Random(3)
    rows = []
    for _ in range(12):
        x = rng.uniform(0, 5)
        rows.append((x, 2 * x, rng.uniform(0, 5), rng.gauss(0, 1)))
    data = make_dataset(["a", "b", "c", "y"], rows)
    with pytest.raises(RankDeficientError) as exc:
        fit(data, ModelSpec(response="y", predictors=("a", "b", "c")))
    assert exc.value.column == "b"


def test_constant_column_collides_with_intercept():
    rows = [(3.0, i, float(i * 2 + 1)) for i in range(10)]
    data = make_dataset(["const", "x", "y"], rows)
    with pytest.raises(RankDeficientError) as exc:
        fit(data, ModelSpec(response="y", predictors=("const", "x")))
    assert exc.value.column == "const"


def test_all_zero_predictor_is_rank_deficient():
    rows = [(float(i), 0.0, float(3 * i + 1) + (i % 3)) for i in range(10)]
    data = make_dataset(["x", "zero", "y"], rows)
    with pytest.raises(RankDeficientError) as exc:
        fit(data, ModelSpec(response="y", predictors=("x", "zero")))
    assert exc.value.column == "zero"


def test_overflowing_column_is_named_not_rank_deficient():
    # Values near the largest double make diag R inf/NaN; the error names
    # the overflowing column instead of blaming a dependent one.
    big = [1.0, 1.1, 1.25, 1.4, 1.55, 1.7]
    small = [1.0, 2.0, 3.5, 4.0, 5.2, 6.1]
    data = make_dataset(["x", "y"], [(b * 1e308, v) for b, v in zip(big, small)])
    with pytest.raises(DomainError, match="column 'x'.*overflow"):
        fit(data, ModelSpec(response="y", predictors=("x",)))
    data = make_dataset(["x", "y"], [(v, b * 1e308) for b, v in zip(big, small)])
    with pytest.raises(DomainError, match="column 'y'.*overflow"):
        fit(data, ModelSpec(response="y", predictors=("x",)))


def test_overflowing_sums_of_squares_are_named_not_zero_variance():
    # A response near 1e200 factors fine, but its squares overflow; the
    # inf sum of squares must not pass for a constant response.
    data = make_dataset(["x", "y"], [(1, 2.0), (2, 1e200), (3, 5.0), (4, 1.0)])
    with pytest.raises(DomainError, match="response 'y' overflow"):
        fit(data, ModelSpec(response="y", predictors=("x",)))


@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1e12, 1e200, 1e300])
def test_rank_test_does_not_depend_on_column_scale(scale):
    # Each column is tested against its own scale, so rescaling x moves its
    # coefficient and standard error together and leaves t and p as they are.
    ys = [3.0, 1.0, 4.0, 1.0, 5.0]
    spec = ModelSpec(response="y", predictors=("x",))
    ref = fit(make_dataset(["x", "y"], [(k, y) for k, y in enumerate(ys, 1)]), spec)
    got = fit(make_dataset(["x", "y"],
                           [(k * scale, y) for k, y in enumerate(ys, 1)]), spec)
    assert ref.coefficients[1].p_value == pytest.approx(0.559, abs=5e-4)
    for r, g in zip(ref.coefficients, got.coefficients):
        assert g.t_stat == pytest.approx(r.t_stat, rel=1e-12)
        assert g.p_value == pytest.approx(r.p_value, rel=1e-12)
    assert got.coefficients[1].beta * scale == pytest.approx(
        ref.coefficients[1].beta, rel=1e-12)


def test_degenerate_constant_response():
    data = make_dataset(["x", "y"], [(i, 5.0) for i in range(10)])
    with pytest.raises(DegenerateModelError):
        fit(data, ModelSpec(response="y", predictors=("x",)))


@pytest.mark.parametrize("power", [-30, -300])
def test_small_response_fits_like_the_unscaled_one(power):
    # Scaling y by a power of two is exact, so r², t and p are bit for bit
    # those of the unscaled fit; no absolute floor may call y constant.
    rows = [(1.0, 1.0), (3.0, 2.0), (4.0, 5.0), (7.0, 3.0)]
    spec = ModelSpec(response="y", predictors=("x",))
    ref = fit(make_dataset(["x", "y"], rows), spec)
    got = fit(make_dataset(["x", "y"], [(x, math.ldexp(y, power))
                                         for x, y in rows]), spec)
    assert got.r_squared == ref.r_squared
    for r, g in zip(ref.coefficients, got.coefficients):
        assert (g.t_stat, g.p_value) == (r.t_stat, r.p_value)


@pytest.mark.parametrize("value", [0.0, 1e-9])
def test_zero_and_small_constant_responses_are_degenerate(value):
    data = make_dataset(["x", "y"], [(i, value) for i in range(10)])
    with pytest.raises(DegenerateModelError):
        fit(data, ModelSpec(response="y", predictors=("x",)))


def test_anova_returns_fit_table():
    data, _ = random_dataset(random.Random(7), 20, 2)
    result = fit(data, ModelSpec(response="y", predictors=("x0", "x1")))
    assert anova(result) is result.anova


def test_fit_matches_fraction_oracle():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(4, 8)
        rows = []
        for _ in range(n):
            x0 = rng.randint(-20, 20) / 2.0
            x1 = rng.randint(-20, 20) / 2.0
            y = rng.randint(-100, 100) / 4.0
            rows.append((x0, x1, y))
        # regenerate until full rank (tiny n can collide)
        xs = [[r[0], r[1]] for r in rows]
        ys = [r[2] for r in rows]
        try:
            want = ols_normal_equations(xs, ys)
        except ZeroDivisionError:
            continue
        data = make_dataset(["x0", "x1", "y"], rows)
        try:
            result = fit(data, ModelSpec(response="y", predictors=("x0", "x1")))
        except RankDeficientError:
            # oracle pivoted through near-dependence the solver rejects
            continue
        for est, w in zip(result.coefficients, want):
            assert est.beta == pytest.approx(float(w), rel=1e-8, abs=1e-8)


def test_standard_errors_match_fraction_oracle():
    rng = random.Random(133)
    rows = []
    for _ in range(12):
        x0 = rng.randint(-10, 10) * 1.0
        x1 = rng.randint(-10, 10) * 1.0
        y = float(rng.randint(-50, 50))
        rows.append((x0, x1, y))
    data = make_dataset(["x0", "x1", "y"], rows)
    result = fit(data, ModelSpec(response="y", predictors=("x0", "x1")))
    xs = [[r[0], r[1]] for r in rows]
    diag = gram_inverse_diag_fractions(xs)
    n, p = 12, 3
    betas = ols_normal_equations(xs, [r[2] for r in rows])
    resid_ss = Fraction(0)
    for row in rows:
        pred = betas[0] + betas[1] * Fraction(row[0]) + betas[2] * Fraction(row[1])
        resid_ss += (Fraction(row[2]) - pred) ** 2
    s2 = resid_ss / (n - p)
    for est, g in zip(result.coefficients, diag):
        want_se = math.sqrt(float(s2 * g))
        assert est.std_error == pytest.approx(want_se, rel=1e-9)
        assert est.t_stat == pytest.approx(est.beta / est.std_error, rel=1e-12)


def test_residual_orthogonality_and_mean_point():
    rng = random.Random(17)
    for _ in range(50):
        data, _ = random_dataset(rng, rng.randint(8, 40), rng.randint(1, 3))
        preds = tuple(c for c in data.columns if c != "y")
        result = fit(data, ModelSpec(response="y", predictors=preds))
        # residual orthogonal to each design column
        betas = [c.beta for c in result.coefficients]
        resid = []
        for row in data.rows:
            vals = dict(zip(data.columns, row))
            fitted = betas[0] + sum(
                b * vals[p] for b, p in zip(betas[1:], preds))
            resid.append(vals["y"] - fitted)
        scale = math.sqrt(sum(v * v for v in resid)) or 1.0
        for p in ("__intercept__",) + preds:
            col = [1.0] * len(resid) if p == "__intercept__" else list(data.column(p))
            dot = sum(r * c for r, c in zip(resid, col))
            col_norm = math.sqrt(sum(c * c for c in col))
            assert abs(dot) <= 1e-6 * max(1.0, scale * col_norm)
        # prediction at predictor means returns the response mean
        means = {p: sum(data.column(p)) / data.n_rows for p in preds}
        y_mean = sum(data.column("y")) / data.n_rows
        assert predict(result, means) == pytest.approx(y_mean, rel=1e-9, abs=1e-9)


def test_anova_identity_and_f_r2_identity():
    rng = random.Random(19)
    for _ in range(200):
        data, _ = random_dataset(rng, rng.randint(7, 60), rng.randint(1, 3))
        preds = tuple(c for c in data.columns if c != "y")
        result = fit(data, ModelSpec(response="y", predictors=preds))
        a = result.anova
        assert a.ss_regression + a.ss_residual == pytest.approx(
            a.ss_total, rel=1e-9)
        k = a.df_regression
        dfres = a.df_residual
        want_f = (result.r_squared / k) / ((1 - result.r_squared) / dfres)
        assert a.f_stat == pytest.approx(want_f, rel=1e-6)
        assert a.df_regression + a.df_residual == a.df_total == result.n - 1
        assert result.std_error_estimate == pytest.approx(
            math.sqrt(a.ms_residual), rel=1e-12)
        assert result.adj_r_squared == pytest.approx(
            1 - (1 - result.r_squared) * (result.n - 1) / dfres, rel=1e-12)


def test_row_permutation_invariance():
    rng = random.Random(23)
    data, _ = random_dataset(rng, 30, 3)
    preds = tuple(c for c in data.columns if c != "y")
    base = fit(data, ModelSpec(response="y", predictors=preds))
    rows = list(data.rows)
    for _ in range(5):
        rng.shuffle(rows)
        shuffled = make_dataset(data.columns, rows)
        other = fit(shuffled, ModelSpec(response="y", predictors=preds))
        for c1, c2 in zip(base.coefficients, other.coefficients):
            assert c2.beta == pytest.approx(c1.beta, rel=1e-10)
            assert c2.std_error == pytest.approx(c1.std_error, rel=1e-10)
        assert other.r_squared == pytest.approx(base.r_squared, rel=1e-10)
        assert other.anova.f_stat == pytest.approx(base.anova.f_stat, rel=1e-10)


def test_recovery_of_true_coefficients():
    rng = random.Random(29)
    for _ in range(30):
        data, true_betas = random_dataset(rng, 25, 2, noisy=False)
        result = fit(data, ModelSpec(response="y", predictors=("x0", "x1")))
        for est, want in zip(result.coefficients, true_betas):
            assert est.beta == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_predict_missing_and_extra_inputs():
    data, _ = random_dataset(random.Random(31), 15, 2)
    result = fit(data, ModelSpec(response="y", predictors=("x0", "x1")))
    with pytest.raises(MissingPredictorError) as exc:
        predict(result, {"x0": 1.0})
    assert exc.value.column == "x1"
    v1 = predict(result, {"x0": 1.0, "x1": 2.0})
    v2 = predict(result, {"x0": 1.0, "x1": 2.0, "unrelated": 99.0})
    assert v1 == v2
    zeros = predict(result, {"x0": 0.0, "x1": 0.0})
    assert zeros == result.coefficients[0].beta


def test_predict_accepts_column_alias():
    data = builtin_table1()
    result = fit(data, ModelSpec(response="NOC",
                                 predictors=("NOL", "NOM", "NOA")))
    via_canonical = predict(result, {"NOL": 15837, "NOM": 1446, "NOA": 537})
    via_alias = predict(result, {"LOC": 15837, "NOM": 1446, "NOA": 537})
    assert via_canonical == via_alias


def test_fit_all_interchange_order_and_specs():
    results = fit_all_interchange(builtin_table1())
    assert [r.spec.response for r in results] == ["NOL", "NOC", "NOM", "NOA"]
    for r in results:
        assert len(r.spec.predictors) == 3
        assert r.spec.response not in r.spec.predictors
        assert r.n == 33


def test_interchange_on_exact_synthetic_relations():
    # three independent columns plus one exact combination: every response
    # is then an exact linear function of the other three
    nocs = (1.0, 2.0, 4.0, 8.0, 16.0)
    noms = (3.0, 1.0, 4.0, 1.0, 5.0)
    noas = (2.0, 7.0, 1.0, 8.0, 2.0)
    rows = [(2 * c + 3 * m - a + 7, c, m, a)
            for c, m, a in zip(nocs, noms, noas)]
    data = make_dataset(["NOL", "NOC", "NOM", "NOA"], rows)
    for result in fit_all_interchange(data):
        assert result.r_squared == pytest.approx(1.0, abs=1e-9)
        assert result.anova.ss_residual <= 1e-9 * max(result.anova.ss_total, 1.0)


def test_interchange_with_collinear_predictors_raises():
    # every column an affine image of one driver: predictors are dependent
    rows = [(a, 2 * a + 1, 3 * a - 2, 0.5 * a + 4)
            for a in (1.0, 2.0, 3.0, 4.0, 5.0)]
    data = make_dataset(["NOL", "NOC", "NOM", "NOA"], rows)
    with pytest.raises(RankDeficientError):
        fit_all_interchange(data)


def test_interchange_fit_quality_on_builtin():
    results = fit_all_interchange(builtin_table1())
    for r in results:
        assert 0.0 <= r.r_squared <= 1.0
        assert r.anova.df_total == 32


def test_log_transform_values_and_names():
    data = make_dataset(["NOL", "NOC"], [(1000.0, 1.0), (10.0, 100.0)])
    out10 = log_transform(data, base10=True)
    assert out10.columns == ("NOL_log10", "NOC_log10")
    assert out10.rows[0] == (3.0, 0.0)
    out_e = log_transform(data, base10=False)
    assert out_e.columns == ("NOL_ln", "NOC_ln")
    assert out_e.rows[0][0] == pytest.approx(math.log(1000.0), rel=1e-15)


def test_log_transform_first_builtin_row():
    out = log_transform(builtin_table1())
    assert out.rows[0][0] == pytest.approx(4.199672916720621, rel=1e-12)


def test_log_transform_rejects_nonpositive():
    data = make_dataset(["a", "b"], [(1.0, 2.0), (0.0, 3.0)])
    from moodkit import NonPositiveValueError
    with pytest.raises(NonPositiveValueError) as exc:
        log_transform(data)
    assert exc.value.row == 1 and exc.value.column == "a"


def test_log_transform_reports_first_nonpositive_in_row_order():
    from moodkit import NonPositiveValueError
    # Column by column, a's 0 in row 1 would be found before c's -3 in row
    # 0.  Within a row, the leftmost value is reported.
    for rows, want in [([(1.0, 2.0, -3.0), (0.0, 1.0, 1.0)], (0, "c", -3.0)),
                       ([(1.0, 1.0, 1.0), (1.0, -2.0, 0.0)], (1, "b", -2.0))]:
        with pytest.raises(NonPositiveValueError) as exc:
            log_transform(make_dataset(["a", "b", "c"], rows))
        assert (exc.value.row, exc.value.column, exc.value.value) == want


def test_predict_non_finite_result_is_domain_error():
    result = fit(builtin_table1(), ModelSpec(response="NOL",
                                             predictors=("NOC", "NOM", "NOA")))
    with pytest.raises(DomainError):
        predict(result, {"NOC": 1e308, "NOM": 1e308, "NOA": 1e308})
    with pytest.raises(DomainError):
        predict(result, {"NOC": math.nan, "NOM": 1.0, "NOA": 1.0})


def test_fit_result_json_shape():
    result = fit_all_interchange(builtin_table1())[0]
    payload = result.to_json()
    assert set(payload) == {"spec", "n", "coefficients", "r_squared",
                            "adj_r_squared", "std_error_estimate", "anova"}
    assert [c["name"] for c in payload["coefficients"]] == [
        "intercept", "NOC", "NOM", "NOA"]
    for c in payload["coefficients"]:
        assert set(c) == {"name", "beta", "std_error", "t", "p"}
    assert set(payload["anova"]) == {
        "ss_regression", "ss_residual", "ss_total", "df_regression",
        "df_residual", "df_total", "ms_regression", "ms_residual",
        "f_stat", "p_value"}
