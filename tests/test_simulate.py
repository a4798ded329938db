"""Simulation tests: function specs, scenarios, paths, noise decomposition.

Oracles: closed-form interval averages (midpoint rule is exact for
linear specs, the antiderivative of a sinusoid is explicit), hand-built
price ladders with known log-returns, and moment checks against the
Gaussian law the sampler draws from.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from voltrack import (
    DataError,
    FuncSpec,
    Scenario,
    ScenarioError,
    compute_heteroscedasticity,
    decomposition_diagnostics,
    format_scenario_config,
    generate_path,
    parse_scenario_config,
    path_csv_text,
    sample_paths,
)
from voltrack.simulate import _interval_means

CONST = Scenario(
    mu_spec=FuncSpec("constant", (0.05,)),
    v_spec=FuncSpec("constant", (0.09,)),
)

ONE = FuncSpec("constant", (1.0,))

SINU = Scenario(
    mu_spec=FuncSpec("constant", (0.05,)),
    v_spec=FuncSpec("sinusoid", (0.09, 0.04, 2.0, 0.3)),
)


class TestFuncSpec:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            FuncSpec("quadratic", (1.0, 2.0, 3.0))

    def test_param_counts_checked(self):
        with pytest.raises(ValueError):
            FuncSpec("constant", (1.0, 2.0))
        with pytest.raises(ValueError):
            FuncSpec("linear", (1.0,))
        with pytest.raises(ValueError):
            FuncSpec("sinusoid", (1.0, 2.0, 3.0))

    def test_non_finite_params_rejected(self):
        with pytest.raises(ValueError):
            FuncSpec("constant", (math.nan,))

    def test_regime_switch_shape_checked(self):
        with pytest.raises(ValueError):
            FuncSpec("regime_switch", levels=(0.1, 0.2), breakpoints=(0.3, 0.6))
        with pytest.raises(ValueError):
            FuncSpec("regime_switch", levels=(0.1, 0.2, 0.3), breakpoints=(0.6, 0.3))

    @pytest.mark.parametrize(
        "levels, breakpoints",
        [
            ((0.05, 0.2), (math.nan,)),
            ((0.05, 0.2, 0.1), (0.5, math.nan)),
            ((0.05, 0.2), (math.inf,)),
            ((0.05, math.inf), (0.5,)),
            ((math.nan,), ()),
        ],
    )
    def test_regime_switch_non_finite_rejected(self, levels, breakpoints):
        # a nan breakpoint compares false both ways, so it passed the order
        # check and silently dropped the levels after it
        with pytest.raises(ValueError, match="finite"):
            FuncSpec("regime_switch", levels=levels, breakpoints=breakpoints)

    def test_sum_must_not_nest(self):
        inner = FuncSpec("sum", terms=(FuncSpec("constant", (1.0,)),))
        with pytest.raises(ValueError):
            FuncSpec("sum", terms=(inner,))
        with pytest.raises(ValueError):
            FuncSpec("sum", terms=())

    def test_constant_values(self):
        spec = FuncSpec("constant", (0.07,))
        assert np.all(spec.values(np.linspace(0, 1, 11)) == 0.07)

    def test_linear_values(self):
        spec = FuncSpec("linear", (0.05, 0.04))
        t = np.array([0.0, 0.5, 1.0])
        assert_allclose(spec.values(t), [0.05, 0.07, 0.09], rtol=1e-15)

    def test_sinusoid_values(self):
        spec = FuncSpec("sinusoid", (0.09, 0.04, 2.0, 0.3))
        t = np.array([0.0, 0.2, 0.7])
        expected = 0.09 + 0.04 * np.sin(2.0 * math.pi * 2.0 * t + 0.3)
        assert_allclose(spec.values(t), expected, rtol=1e-15)

    def test_regime_switch_values(self):
        spec = FuncSpec("regime_switch", levels=(0.04, 0.16, 0.09), breakpoints=(0.3, 0.7))
        t = np.array([0.0, 0.29, 0.3, 0.5, 0.7, 0.9])
        # a breakpoint belongs to the regime it opens
        assert_allclose(spec.values(t), [0.04, 0.04, 0.16, 0.16, 0.09, 0.09], rtol=0)

    def test_sum_values(self):
        spec = FuncSpec(
            "sum",
            terms=(FuncSpec("constant", (0.05,)), FuncSpec("linear", (0.0, 0.02))),
        )
        t = np.array([0.0, 1.0])
        assert_allclose(spec.values(t), [0.05, 0.07], rtol=1e-15)

    def test_smoothness_order(self):
        smooth = (
            FuncSpec("constant", (0.09,)),
            FuncSpec("linear", (0.09, 0.01)),
            FuncSpec("sinusoid", (0.09, 0.04, 2.0, 0.0)),
        )
        jumpy = FuncSpec("regime_switch", levels=(0.04, 0.16), breakpoints=(0.5,))
        flat = FuncSpec("regime_switch", levels=(0.04,))
        assert [spec.smoothness_order for spec in smooth] == [math.inf] * 3
        assert jumpy.smoothness_order == flat.smoothness_order == 0.0
        # a sum is as smooth as its roughest term
        assert FuncSpec("sum", terms=smooth).smoothness_order == math.inf
        assert FuncSpec("sum", terms=(*smooth, jumpy)).smoothness_order == 0.0

    @pytest.mark.parametrize(
        "kind, fields, stray",
        [
            ("constant", {"params": (0.05,), "levels": (1.0, 2.0), "breakpoints": (0.5,)},
             "levels"),
            ("linear", {"params": (0.05, 0.1), "breakpoints": (0.5,)}, "breakpoints"),
            ("sinusoid", {"params": (0.1, 0.05, 1.0, 0.0), "terms": (ONE,)}, "terms"),
            ("regime_switch", {"params": (9.0,), "levels": (0.1,)}, "params"),
            ("sum", {"terms": (ONE,), "levels": (0.1,)}, "levels"),
            ("sum", {"terms": (ONE,), "params": (0.1,)}, "params"),
        ],
    )
    def test_fields_of_another_kind_refused(self, kind, fields, stray):
        # an ignored field would be dropped by format_scenario_config, and
        # the scenario would parse back unequal
        with pytest.raises(ValueError, match=f"^{kind} spec takes no {stray}$"):
            FuncSpec(kind, **fields)


class TestScenario:
    def test_valid_scenario(self):
        assert CONST.horizon_t == 1.0 and CONST.s0 == 1.0
        assert CONST.v_spec.smoothness_order == math.inf

    def test_rejects_non_positive_volatility(self):
        with pytest.raises(ScenarioError):
            Scenario(
                mu_spec=FuncSpec("constant", (0.05,)),
                v_spec=FuncSpec("constant", (-0.01,)),
            )
        # dips through zero mid-horizon
        with pytest.raises(ScenarioError):
            Scenario(
                mu_spec=FuncSpec("constant", (0.05,)),
                v_spec=FuncSpec("sinusoid", (0.03, 0.04, 1.0, 0.0)),
            )

    def test_rejects_non_positive_drift(self):
        with pytest.raises(ScenarioError):
            Scenario(
                mu_spec=FuncSpec("linear", (0.05, -0.2)),
                v_spec=FuncSpec("constant", (0.09,)),
            )

    def test_rejects_bad_horizon_and_price(self):
        with pytest.raises(ScenarioError):
            Scenario(CONST.mu_spec, CONST.v_spec, horizon_t=0.0)
        with pytest.raises(ScenarioError):
            Scenario(CONST.mu_spec, CONST.v_spec, s0=-1.0)


class TestGeneratePath:
    def test_shapes_and_delta(self):
        path = generate_path(CONST, 1000, seed=3)
        assert path.prices.shape == (1001,)
        assert path.xs.shape == (1000,)
        assert path.v_bar.shape == (1000,)
        assert path.delta == 0.001
        assert path.seed == 3

    def test_deterministic_per_seed(self):
        a = generate_path(CONST, 1000, seed=3)
        b = generate_path(CONST, 1000, seed=3)
        c = generate_path(CONST, 1000, seed=4)
        assert np.array_equal(a.prices, b.prices)
        assert np.array_equal(a.xs, b.xs)
        assert not np.array_equal(a.prices, c.prices)

    def test_observations_reconstruct_from_prices(self):
        path = generate_path(SINU, 500, seed=3)
        assert np.array_equal(path.xs, compute_heteroscedasticity(path.prices, path.delta))

    def test_constant_interval_means(self):
        path = generate_path(CONST, 1000, seed=3)
        assert_allclose(path.v_bar, 0.09, rtol=1e-14)
        assert_allclose(path.mu_bar, 0.05, rtol=1e-14)

    def test_linear_interval_means_hit_midpoints(self):
        # The average of a linear function over an interval is its value
        # at the midpoint.
        scen = Scenario(
            mu_spec=FuncSpec("constant", (0.05,)),
            v_spec=FuncSpec("linear", (0.05, 0.04)),
        )
        path = generate_path(scen, 500, seed=3)
        i = np.arange(500)
        mid = 0.05 + 0.04 * ((i + 0.5) * path.delta)
        assert_allclose(path.v_bar, mid, rtol=1e-13)

    def test_sinusoid_interval_means_match_antiderivative(self):
        path = generate_path(SINU, 500, seed=3)
        i = np.arange(500)
        w = 2.0 * math.pi * 2.0
        t1, t2 = i * path.delta, (i + 1) * path.delta
        exact = 0.09 - 0.04 * (np.cos(w * t2 + 0.3) - np.cos(w * t1 + 0.3)) / (
            w * path.delta
        )
        assert_allclose(path.v_bar, exact, rtol=1e-12)

    def test_interval_means_vary_slowly_for_smooth_specs(self):
        path = generate_path(SINU, 500, seed=3)
        lip = 0.04 * 2.0 * math.pi * 2.0
        assert float(np.max(np.abs(np.diff(path.v_bar)))) <= lip * path.delta

    def test_sample_mean_matches_shifted_signal(self):
        # E[X_i] = v + 0.25*delta*(2 mu - v)^2 for the constant scenario.
        path = generate_path(CONST, 100_000, seed=12345)
        mean = float(np.mean(path.xs))
        se = float(np.std(path.xs, ddof=1)) / math.sqrt(path.xs.size)
        target = 0.09 + 0.25 * path.delta * (2 * 0.05 - 0.09) ** 2
        assert abs(mean - target) < 3.0 * se

    def test_rejects_tiny_sample_size(self):
        with pytest.raises(ValueError):
            generate_path(CONST, 1, seed=0)

    def test_arrays_are_read_only(self):
        path = generate_path(CONST, 100, seed=0)
        with pytest.raises(ValueError):
            path.xs[0] = 1.0

    def test_volatility_positivity_checked_inside_intervals(self):
        # Positive on the scenario grid but dipping negative between
        # check points cannot happen for these kinds at n this small, so
        # instead drive the quadrature directly onto a sign change.
        spec = FuncSpec("linear", (0.001, -0.01))
        with pytest.raises(ScenarioError, match="interval"):
            _interval_means(spec, 1.0, 4, require_positive=True)

    @pytest.mark.parametrize("value", [1e307, -1e307, np.finfo(float).max])
    def test_interval_means_stay_finite_near_the_float_maximum(self, value):
        # Simpson's weighted sums reach 48 times a node value; unscaled they
        # overflowed to inf for finite values above about 1e307
        means = _interval_means(FuncSpec("constant", (value,)), 1.0, 100)
        assert np.all(np.isfinite(means))
        assert_allclose(means, value, rtol=1e-15)

    @settings(max_examples=80)
    @given(st.data())
    def test_quadrature_is_scipy_simpson_bit_for_bit(self, data):
        # the Simpson sum is written out in NumPy; scipy.integrate.simpson,
        # applied to the same scaled nodes, stays its reference
        from scipy import integrate

        magnitude = 10.0 ** data.draw(_finite(-300.0, 300.0))
        spec = data.draw(
            st.one_of(
                positive_specs(),
                st.builds(
                    lambda amp, freq, phase: FuncSpec(
                        "sinusoid", (magnitude, amp * magnitude, freq, phase)
                    ),
                    _finite(-0.99, 0.99), _finite(0.0, 50.0), _finite(-10.0, 10.0),
                ),
            )
        )
        horizon, n = data.draw(_finite(1e-3, 1e3)), data.draw(st.integers(1, 300))
        delta = horizon / n
        h = delta / 16
        nodes = (np.arange(n) * delta)[:, None] + (np.arange(17) * h)[None, :]
        scaled = spec.values(nodes) * 2.0**-6
        want = integrate.simpson(scaled, dx=h, axis=1) / delta / 2.0**-6
        assert _interval_means(spec, horizon, n).tobytes() == want.tobytes()

    def test_integer_levels_integrate_like_floats(self):
        # the quadrature scales the node values in place, which an integer
        # array returned by FuncSpec.values could not hold
        as_ints = FuncSpec("regime_switch", levels=(1, 2), breakpoints=(0.3,))
        as_floats = FuncSpec("regime_switch", levels=(1.0, 2.0), breakpoints=(0.3,))
        means = _interval_means(as_ints, 1.0, 10)
        assert means.tobytes() == _interval_means(as_floats, 1.0, 10).tobytes()


class TestHeteroscedasticity:
    def test_single_ratio_arithmetic(self):
        # ln(e^0.02) = 0.02, squared and scaled by 1/0.001 gives 0.4.
        prices = [1.0, math.exp(0.02)]
        x = compute_heteroscedasticity(prices, 0.001)
        assert_allclose(x, [0.4], rtol=1e-12)

    def test_flat_prices_give_zero(self):
        x = compute_heteroscedasticity([2.0, 2.0, 2.0], 0.001)
        assert np.all(x == 0.0)

    def test_rejects_non_positive_price_with_index(self):
        with pytest.raises(DataError, match="index 2"):
            compute_heteroscedasticity([1.0, 1.1, 0.0, 1.2], 0.001)
        with pytest.raises(DataError, match="index 1"):
            compute_heteroscedasticity([1.0, -2.0, 1.2], 0.001)

    def test_rejects_bad_delta_and_shape(self):
        with pytest.raises(ValueError):
            compute_heteroscedasticity([1.0, 1.1], 0.0)
        with pytest.raises(ValueError):
            compute_heteroscedasticity([1.0], 0.001)


class TestDecomposition:
    def test_split_is_exact_by_construction(self):
        path = generate_path(SINU, 500, seed=3)
        dec = decomposition_diagnostics(path)
        swing = 2.0 * path.mu_bar - path.v_bar
        theta = 0.25 * path.delta * swing**2
        assert np.array_equal(dec.theta, theta)
        assert np.array_equal(dec.eta, path.xs - path.v_bar - theta)
        assert_allclose(
            dec.sigma_sq, path.delta * path.v_bar * swing**2 + 2.0 * path.v_bar**2,
            rtol=1e-15,
        )

    def test_constant_scenario_shift_and_variance(self):
        # With mu=0.05, v=0.09, delta=0.001: theta = 2.5e-8 and
        # sigma_sq = 0.0162 + 9e-9.
        path = generate_path(CONST, 1000, seed=3)
        dec = decomposition_diagnostics(path)
        assert_allclose(dec.theta, 2.5e-8, rtol=1e-12)
        assert_allclose(dec.sigma_sq, 0.0162, rtol=1e-5)

    def test_shift_bounded_and_non_negative(self):
        path = generate_path(SINU, 500, seed=3)
        dec = decomposition_diagnostics(path)
        bound = 0.25 * path.delta * float(np.max((2.0 * path.mu_bar - path.v_bar) ** 2))
        assert np.all(dec.theta >= 0.0)
        assert np.all(dec.theta <= bound)

    def test_noise_moments_on_one_path(self):
        path = generate_path(CONST, 100_000, seed=12345)
        dec = decomposition_diagnostics(path)
        n = dec.eta.size
        se_mean = float(np.std(dec.eta, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(dec.eta))) < 3.0 * se_mean
        # sample variance against the model variance, at its own scale
        assert_allclose(float(np.var(dec.eta, ddof=1)), 0.0162, rtol=0.05)


class TestScenarioConfig:
    def test_round_trip(self):
        scen = Scenario(
            mu_spec=FuncSpec("constant", (0.05,)),
            v_spec=FuncSpec(
                "sum",
                terms=(
                    FuncSpec("constant", (0.09,)),
                    FuncSpec("sinusoid", (0.0, 0.02, 2.0, 0.3)),
                ),
            ),
            horizon_t=2.0,
            s0=100.0,
        )
        text = format_scenario_config(scen)
        back = parse_scenario_config(text)
        assert back == scen

    def test_round_trip_regime_switch(self):
        scen = Scenario(
            mu_spec=FuncSpec("linear", (0.05, 0.01)),
            v_spec=FuncSpec(
                "regime_switch", levels=(0.04, 0.16), breakpoints=(0.5,)
            ),
        )
        assert parse_scenario_config(format_scenario_config(scen)) == scen

    def test_defaults_and_comments(self):
        text = """
        # drift and volatility only; T and s0 default to 1
        mu.kind = constant
        mu.params = 0.05
        v.kind = constant   # flat
        v.params = 0.09
        """
        scen = parse_scenario_config(text)
        assert scen.horizon_t == 1.0 and scen.s0 == 1.0
        assert scen.v_spec.params == (0.09,)

    def test_duplicate_key_rejected(self):
        text = "mu.kind = constant\nmu.kind = linear\n"
        with pytest.raises(DataError, match="duplicate"):
            parse_scenario_config(text)

    def test_missing_key_rejected(self):
        with pytest.raises(DataError, match="missing"):
            parse_scenario_config("mu.kind = constant\nmu.params = 0.05\n")

    @pytest.mark.parametrize("key", ["v.levels", "v.breakpoints"])
    def test_missing_regime_switch_key_named(self, key):
        lines = {
            "mu.kind": "constant",
            "mu.params": "0.05",
            "v.kind": "regime_switch",
            "v.levels": "0.09",
            "v.breakpoints": "",
        }
        del lines[key]
        text = "".join(f"{k} = {v}\n" for k, v in lines.items())
        with pytest.raises(DataError, match=f"^missing config key {re.escape(key)}$"):
            parse_scenario_config(text)

    def test_unknown_key_rejected(self):
        text = (
            "mu.kind = constant\nmu.params = 0.05\n"
            "v.kind = constant\nv.params = 0.09\nvol.floor = 1\n"
        )
        with pytest.raises(DataError, match="unknown config keys"):
            parse_scenario_config(text)

    def test_bad_number_rejected(self):
        text = "mu.kind = constant\nmu.params = fast\nv.kind = constant\nv.params = 0.09\n"
        with pytest.raises(DataError, match="bad number"):
            parse_scenario_config(text)

    def test_round_trip_one_level_regime_switch(self):
        # the empty breakpoint list is written as an empty value
        scen = Scenario(
            mu_spec=FuncSpec("constant", (0.05,)),
            v_spec=FuncSpec("regime_switch", levels=(0.09,)),
        )
        text = format_scenario_config(scen)
        assert "v.breakpoints = \n" in text
        assert parse_scenario_config(text) == scen

    @pytest.mark.parametrize("key", ["mu.params", "v.levels"])
    def test_empty_number_list_rejected(self, key):
        # an empty value is the empty list; only a regime_switch's
        # breakpoints may be empty, and FuncSpec words the refusal
        words = {
            "mu.params": "constant spec needs 1 params",
            "v.levels": "regime_switch needs len(levels) == len(breakpoints)+1",
        }
        lines = {
            "mu.kind": "constant",
            "mu.params": "0.05",
            "v.kind": "regime_switch",
            "v.levels": "0.09",
            "v.breakpoints": "",
        }
        lines[key] = ""
        text = "".join(f"{k} = {v}\n" for k, v in lines.items())
        with pytest.raises(DataError, match=f"^{re.escape(words[key])}$"):
            parse_scenario_config(text)

    def test_line_without_equals_rejected(self):
        with pytest.raises(DataError, match="line 1"):
            parse_scenario_config("mu.kind constant\n")

    def test_wrong_param_count_surfaces_as_data_error(self):
        text = "mu.kind = constant\nmu.params = 0.05, 0.3\nv.kind = constant\nv.params = 0.09\n"
        with pytest.raises(DataError, match="needs 1 params"):
            parse_scenario_config(text)

    @pytest.mark.parametrize("breakpoints", ["nan", "0.5, nan"])
    def test_non_finite_breakpoint_surfaces_as_data_error(self, breakpoints):
        levels = "0.05, 0.2" if breakpoints == "nan" else "0.05, 0.2, 0.1"
        text = (
            "mu.kind = constant\nmu.params = 0.05\nv.kind = regime_switch\n"
            f"v.levels = {levels}\nv.breakpoints = {breakpoints}\n"
        )
        with pytest.raises(DataError, match="must be finite"):
            parse_scenario_config(text)

    def test_invalid_scenario_keeps_its_own_error(self):
        text = "mu.kind = constant\nmu.params = 0.05\nv.kind = constant\nv.params = -0.09\n"
        with pytest.raises(ScenarioError):
            parse_scenario_config(text)


def _finite(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def positive_specs(draw, allow_sum: bool = True):
    """A FuncSpec of any kind that stays strictly positive on t >= 0."""
    kinds = ["constant", "linear", "sinusoid", "regime_switch"]
    kind = draw(st.sampled_from(kinds + ["sum"] if allow_sum else kinds))
    if kind == "constant":
        return FuncSpec(kind, (draw(_finite(1e-6, 1e6)),))
    if kind == "linear":
        return FuncSpec(kind, (draw(_finite(1e-6, 1e6)), draw(_finite(0.0, 1e6))))
    if kind == "sinusoid":
        base = draw(_finite(1e-6, 1e6))
        amp = base * draw(_finite(-0.99, 0.99))
        freq, phase = draw(_finite(0.0, 50.0)), draw(_finite(-10.0, 10.0))
        return FuncSpec(kind, (base, amp, freq, phase))
    if kind == "regime_switch":
        breaks = sorted(draw(st.lists(_finite(-10.0, 10.0), max_size=4, unique=True)))
        levels = draw(
            st.lists(_finite(1e-6, 1e6), min_size=len(breaks) + 1, max_size=len(breaks) + 1)
        )
        return FuncSpec(kind, levels=tuple(levels), breakpoints=tuple(breaks))
    terms = draw(st.lists(positive_specs(allow_sum=False), min_size=1, max_size=3))
    return FuncSpec("sum", terms=tuple(terms))


@st.composite
def scenarios(draw):
    return Scenario(
        mu_spec=draw(positive_specs()),
        v_spec=draw(positive_specs()),
        horizon_t=draw(_finite(1e-3, 1e3)),
        s0=draw(_finite(1e-6, 1e6)),
    )


@st.composite
def field_mixes(draw):
    """FuncSpec arguments: the kind and fields of a positive spec, each of
    its four data fields kept or swapped for the same field of another
    positive spec of any kind, so empty or not whatever the kind."""
    spec = draw(positive_specs())
    fields = {"kind": spec.kind}
    for name in ("params", "levels", "breakpoints", "terms"):
        source = draw(positive_specs()) if draw(st.booleans()) else spec
        fields[name] = getattr(source, name)
    return fields


class TestScenarioConfigProperties:
    @settings(max_examples=60)
    @given(scenarios())
    def test_format_then_parse_is_identity(self, scen):
        assert parse_scenario_config(format_scenario_config(scen)) == scen

    @settings(max_examples=300)
    @given(field_mixes())
    def test_a_spec_is_refused_or_round_trips(self, fields):
        # a field the kind does not read would be dropped by the format
        try:
            spec = FuncSpec(**fields)
        except ValueError:
            return
        scen = Scenario(mu_spec=spec, v_spec=spec)
        assert parse_scenario_config(format_scenario_config(scen)) == scen


class TestPathCsv:
    def test_layout_and_round_trip(self):
        path = generate_path(CONST, 5, seed=3)
        text = path_csv_text(path)
        lines = text.strip().split("\n")
        assert lines[0] == "t,price,x,v_bar"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first == ["0.0", "1.0", "", ""]
        for i, line in enumerate(lines[2:]):
            t, price, x, v_bar = line.split(",")
            assert float(t) == (i + 1) * path.delta
            assert float(price) == path.prices[i + 1]
            assert float(x) == path.xs[i]
            assert float(v_bar) == path.v_bar[i]


def reference_path(scenario, n, seed):
    """One seed's path, written out plainly with its own quadrature: the
    arithmetic sample_paths must reproduce bit for bit.  Returns the
    prices and either the observations or the DataError they raise."""
    delta = scenario.horizon_t / n
    v_bar = _interval_means(scenario.v_spec, scenario.horizon_t, n, require_positive=True)
    mu_bar = _interval_means(scenario.mu_spec, scenario.horizon_t, n)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    log_returns = delta * (mu_bar - 0.5 * v_bar) + np.sqrt(delta * v_bar) * z
    log_prices = math.log(scenario.s0) + np.cumsum(log_returns)
    prices = np.concatenate(([scenario.s0], np.exp(log_prices)))
    try:
        xs = compute_heteroscedasticity(prices, delta)
    except DataError as exc:
        xs = exc
    return prices, xs, v_bar, mu_bar, delta


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestSamplePaths:
    @settings(max_examples=100)
    @given(
        scenarios(),
        st.integers(2, 3000),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4).map(
            lambda seeds: seeds + seeds[:1]
        ),
    )
    def test_every_path_matches_the_reference_bit_for_bit(self, scen, n, seeds):
        # out-of-range draws are allowed here; the sampler must refuse them
        with np.errstate(all="ignore"):
            expected = [reference_path(scen, n, seed) for seed in seeds]
        paths = sample_paths(scen, n, seeds)
        for seed, (prices, xs, v_bar, mu_bar, delta) in zip(seeds, expected):
            if isinstance(xs, DataError):
                # "non-positive price at index i": the end of interval i - 1
                index = int(str(xs).rpartition(" ")[2])
                with pytest.raises(ScenarioError, match=f"price .* interval {index - 1}$"):
                    next(paths)
                return
            if not np.all(np.isfinite(xs)):
                first = int(np.flatnonzero(~np.isfinite(xs))[0])
                with pytest.raises(ScenarioError, match=f"observation .* interval {first}$"):
                    next(paths)
                return
            path = next(paths)
            for got, want in zip(
                (path.prices, path.xs, path.v_bar, path.mu_bar), (prices, xs, v_bar, mu_bar)
            ):
                assert_same_bits(got, want)
            assert path.delta == delta
            assert path.seed == seed
        assert next(paths, None) is None
        # generate_path is the one-seed case
        one = generate_path(scen, n, seeds[0])
        assert_same_bits(one.prices, expected[0][0])
        assert_same_bits(one.xs, expected[0][1])

    def test_paths_share_read_only_interval_means(self):
        a, b, c = sample_paths(SINU, 200, [3, 4, 3])
        assert a.v_bar is b.v_bar is c.v_bar
        assert a.mu_bar is b.mu_bar is c.mu_bar
        assert np.array_equal(a.prices, c.prices)
        assert not np.array_equal(a.prices, b.prices)
        for arr in (a.v_bar, a.mu_bar, a.prices, a.xs):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_checks_run_before_the_first_path(self):
        with pytest.raises(ValueError, match="at least 2"):
            next(sample_paths(CONST, 1, [0]))
        assert list(sample_paths(CONST, 10, [])) == []

    def test_every_seed_checked_before_the_first_path(self):
        # seed 5 is valid, so its path would come first without the check
        with pytest.raises(ValueError, match="^seed must be non-negative, got -5$"):
            next(sample_paths(CONST, 10, [5, -5, 6]))
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            generate_path(CONST, 10, -1)

    @pytest.mark.parametrize(
        "scen, n, match",
        [
            # the drift carries the price past the largest float
            (Scenario(FuncSpec("constant", (5.0,)), CONST.v_spec, s0=1e308), 100,
             "price leaves the float range in interval 11$"),
            # the volatility drives it below the smallest one at once
            (Scenario(CONST.mu_spec, FuncSpec("constant", (1e300,))), 100,
             "price leaves the float range in interval 0$"),
            # a jump of e^750 between two prices in range overflows their ratio
            (Scenario(
                FuncSpec("regime_switch", levels=(1500.0, 1e-9), breakpoints=(0.5,)),
                CONST.v_spec,
                s0=1e-320,
            ), 2, "observation leaves the float range in interval 0$"),
            (Scenario(CONST.mu_spec, CONST.v_spec, horizon_t=5e-324), 100,
             "T/n underflows to zero at n = 100$"),
        ],
        ids=["overflow", "underflow", "observation", "interval"],
    )
    def test_path_out_of_float_range_is_a_scenario_error(self, scen, n, match):
        with pytest.raises(ScenarioError, match=match):
            generate_path(scen, n, seed=0)
