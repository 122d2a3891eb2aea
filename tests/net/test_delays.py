"""Tests for the delay-distribution families."""

from __future__ import annotations

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro import net
from repro.net.delays import (
    ConstantDelay,
    DelayDistribution,
    EmpiricalDelay,
    ExponentialDelay,
    GammaDelay,
    LogNormalDelay,
    MixtureDelay,
    ParetoDelay,
    ShiftedExponentialDelay,
    UniformDelay,
)
from repro.net.topology import PathDelay

ALL_FAMILIES = [
    ExponentialDelay(0.02),
    ShiftedExponentialDelay(0.01, 0.02),
    UniformDelay(0.01, 0.05),
    ConstantDelay(0.1),
    GammaDelay(2.0, 0.01),
    LogNormalDelay(-4.0, 0.5),
    ParetoDelay(3.0, 0.01),
    MixtureDelay([ExponentialDelay(0.02), ConstantDelay(0.2)], [0.9, 0.1]),
    EmpiricalDelay([0.01, 0.02, 0.02, 0.05, 0.3]),
]


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: type(d).__name__)
class TestCommonContract:
    def test_moments_finite_and_positive(self, dist):
        assert math.isfinite(dist.mean) and dist.mean > 0
        assert math.isfinite(dist.variance) and dist.variance >= 0
        assert dist.std == pytest.approx(math.sqrt(dist.variance))

    def test_cdf_limits(self, dist):
        assert dist.cdf(0.0) == pytest.approx(0.0, abs=1e-12)
        assert dist.cdf(-1.0) == pytest.approx(0.0, abs=1e-12)
        big = dist.mean + 200 * max(dist.std, dist.mean)
        assert dist.cdf(big) == pytest.approx(1.0, abs=1e-6)

    def test_cdf_monotone(self, dist):
        xs = np.linspace(0.0, dist.mean * 10, 200)
        cdf = np.asarray(dist.cdf(xs))
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_sf_complements_cdf(self, dist):
        xs = np.linspace(0.0, dist.mean * 5, 50)
        np.testing.assert_allclose(
            np.asarray(dist.sf(xs)) + np.asarray(dist.cdf(xs)), 1.0, atol=1e-12
        )

    def test_prob_less_is_cdf_minus_atom(self, dist):
        for x in [dist.mean, dist.mean * 2, 0.1, 0.2]:
            assert dist.prob_less(x) == pytest.approx(
                dist.cdf(x) - dist.atom(x), abs=1e-12
            )
            assert 0.0 <= dist.prob_less(x) <= 1.0

    def test_scalar_and_array_agree(self, dist):
        xs = np.array([0.0, dist.mean, dist.mean * 3])
        arr = np.asarray(dist.cdf(xs))
        for i, x in enumerate(xs):
            assert float(dist.cdf(float(x))) == pytest.approx(arr[i])

    def test_samples_positive(self, dist, rng):
        s = dist.sample(rng, 1000)
        assert s.shape == (1000,)
        assert np.all(s > 0)

    def test_sample_moments_match(self, dist, rng):
        s = dist.sample(rng, 200_000)
        assert s.mean() == pytest.approx(dist.mean, rel=0.05)
        if dist.variance > 0:
            # Heavy tails (Pareto) converge slowly; be generous.
            assert s.var() == pytest.approx(dist.variance, rel=0.35)

    def test_sample_cdf_matches_analytic(self, dist, rng):
        s = dist.sample(rng, 100_000)
        for q in (0.25, 0.5, 0.9):
            x = np.quantile(s, q)
            # The quantile may sit on an atom; the empirical q must fall
            # in [P(D < x), P(D <= x)] up to sampling noise.
            assert float(dist.prob_less(x)) <= q + 0.02
            assert float(dist.cdf(x)) >= q - 0.02


#: one instance of every concrete law, the multi-hop path included
SAMPLED_LAWS = ALL_FAMILIES + [
    PathDelay([ExponentialDelay(0.02), UniformDelay(0.01, 0.05)], seed=1),
]


class TestSampleOwnership:
    """``sample`` returns a fresh float array the caller may overwrite."""

    def test_every_concrete_law_is_listed(self):
        """Every law defined anywhere in ``repro.net`` is in
        :data:`SAMPLED_LAWS`, so no family skips these checks or the
        ``draw`` contract."""
        modules = [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(net.__path__, "repro.net.")
        ]
        concrete = {
            cls
            for module in modules
            for cls in vars(module).values()
            if isinstance(cls, type)
            and issubclass(cls, DelayDistribution)
            and not inspect.isabstract(cls)
            and cls.__module__ == module.__name__
        }
        assert concrete == {type(law) for law in SAMPLED_LAWS}

    @pytest.mark.parametrize("law", SAMPLED_LAWS, ids=lambda d: type(d).__name__)
    def test_overwriting_a_draw_leaves_the_next_one_alone(self, law):
        first = law.sample(np.random.default_rng(7), 257)
        assert first.dtype == np.float64 and first.flags.writeable
        saved = first.copy()
        first[:] = np.inf
        again = law.sample(np.random.default_rng(7), 257)
        np.testing.assert_array_equal(again, saved)


class TestDrawContract:
    """``draw(rng)`` is ``sample(rng, 1)[0]``: the same value from the
    same randomness, so the link's per-message draw and a batched
    ``sample`` of one see one stream."""

    @pytest.mark.parametrize("law", SAMPLED_LAWS, ids=lambda d: type(d).__name__)
    def test_draw_is_a_sample_of_one(self, law):
        a = np.random.default_rng(0xD7A)
        b = np.random.default_rng(0xD7A)
        for _ in range(1000):
            got = law.draw(a)
            assert type(got) is float
            assert got == law.sample(b, 1)[0]
        assert a.bit_generator.state == b.bit_generator.state

    def test_subclass_overriding_sample_draws_through_it(self):
        class Doubled(ExponentialDelay):
            def sample(self, rng, size):
                return super().sample(rng, size) * 2.0

        law = Doubled(0.02)
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        assert law.draw(a) == law.sample(b, 1)[0]
        assert a.bit_generator.state == b.bit_generator.state


class TestValidation:
    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(InvalidParameterError):
            ExponentialDelay(0.0)
        with pytest.raises(InvalidParameterError):
            ExponentialDelay(-1.0)

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(InvalidParameterError):
            UniformDelay(0.05, 0.01)
        with pytest.raises(InvalidParameterError):
            UniformDelay(-0.1, 0.2)

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            ConstantDelay(0.0)

    def test_pareto_requires_finite_variance(self):
        with pytest.raises(InvalidParameterError):
            ParetoDelay(2.0, 0.1)  # alpha = 2: infinite variance

    def test_mixture_weight_validation(self):
        with pytest.raises(InvalidParameterError):
            MixtureDelay([ExponentialDelay(0.1)], [0.5])
        with pytest.raises(InvalidParameterError):
            MixtureDelay(
                [ExponentialDelay(0.1), ExponentialDelay(0.2)], [0.9]
            )
        with pytest.raises(InvalidParameterError):
            MixtureDelay([], [])

    def test_empirical_rejects_bad_samples(self):
        with pytest.raises(InvalidParameterError):
            EmpiricalDelay([])
        with pytest.raises(InvalidParameterError):
            EmpiricalDelay([0.1, -0.2])
        with pytest.raises(InvalidParameterError):
            EmpiricalDelay([0.1, float("inf")])


class TestSpecificShapes:
    def test_exponential_memoryless_sf(self):
        d = ExponentialDelay(0.02)
        assert float(d.sf(0.02)) == pytest.approx(math.exp(-1))
        assert float(d.sf(0.04)) == pytest.approx(math.exp(-2))

    def test_shifted_exponential_support(self):
        d = ShiftedExponentialDelay(0.01, 0.02)
        assert float(d.cdf(0.009)) == 0.0
        assert d.mean == pytest.approx(0.03)
        assert d.kinks() == (0.01,)

    def test_constant_atom(self):
        d = ConstantDelay(0.1)
        assert float(d.atom(0.1)) == 1.0
        assert float(d.atom(0.2)) == 0.0
        assert float(d.prob_less(0.1)) == 0.0
        assert float(d.cdf(0.1)) == 1.0

    def test_uniform_from_mean_std_round_trip(self):
        d = UniformDelay.from_mean_std(0.1, 0.02)
        assert d.mean == pytest.approx(0.1)
        assert d.std == pytest.approx(0.02)

    def test_uniform_from_mean_std_rejects_negative_support(self):
        with pytest.raises(InvalidParameterError):
            UniformDelay.from_mean_std(0.01, 0.02)

    def test_gamma_from_mean_std_round_trip(self):
        d = GammaDelay.from_mean_std(0.1, 0.03)
        assert d.mean == pytest.approx(0.1)
        assert d.std == pytest.approx(0.03)

    def test_gamma_shape_one_is_exponential(self):
        g = GammaDelay(1.0, 0.02)
        e = ExponentialDelay(0.02)
        xs = np.linspace(0, 0.2, 20)
        np.testing.assert_allclose(
            np.asarray(g.cdf(xs)), np.asarray(e.cdf(xs)), atol=1e-10
        )

    def test_lognormal_from_mean_std_round_trip(self):
        d = LogNormalDelay.from_mean_std(0.05, 0.1)
        assert d.mean == pytest.approx(0.05)
        assert d.std == pytest.approx(0.1)

    def test_pareto_from_mean_std_round_trip(self):
        d = ParetoDelay.from_mean_std(0.1, 0.05)
        assert d.mean == pytest.approx(0.1)
        assert d.std == pytest.approx(0.05)

    def test_pareto_power_tail(self):
        d = ParetoDelay(3.0, 0.01)
        assert float(d.sf(0.02)) == pytest.approx((0.01 / 0.02) ** 3)
        assert float(d.cdf(0.005)) == 0.0

    def test_mixture_moments_law_of_total_variance(self):
        a, b = ExponentialDelay(0.02), ConstantDelay(0.2)
        mix = MixtureDelay([a, b], [0.75, 0.25])
        assert mix.mean == pytest.approx(0.75 * 0.02 + 0.25 * 0.2)
        second = 0.75 * (a.variance + a.mean**2) + 0.25 * (0.2**2)
        assert mix.variance == pytest.approx(second - mix.mean**2)

    def test_mixture_kinks_union(self):
        mix = MixtureDelay(
            [ConstantDelay(0.1), UniformDelay(0.2, 0.3)], [0.5, 0.5]
        )
        assert mix.kinks() == (0.1, 0.2, 0.3)

    def test_empirical_cdf_steps(self):
        d = EmpiricalDelay([1.0, 2.0, 2.0, 4.0])
        assert float(d.cdf(0.5)) == 0.0
        assert float(d.cdf(1.0)) == 0.25
        assert float(d.cdf(2.0)) == 0.75
        assert float(d.atom(2.0)) == 0.5
        assert float(d.prob_less(2.0)) == 0.25
        assert float(d.cdf(5.0)) == 1.0

    def test_empirical_moments(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        d = EmpiricalDelay(samples)
        assert d.mean == pytest.approx(2.5)
        assert d.variance == pytest.approx(np.var(samples, ddof=1))

    def test_empirical_kinks_capped(self):
        d = EmpiricalDelay(np.linspace(0.01, 1.0, 500))
        assert len(d.kinks()) <= 65


@given(
    mean=st.floats(min_value=1e-4, max_value=10.0),
    x=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=60, deadline=None)
def test_exponential_cdf_formula_property(mean, x):
    d = ExponentialDelay(mean)
    assert float(d.cdf(x)) == pytest.approx(1.0 - math.exp(-x / mean), abs=1e-12)


@given(
    low=st.floats(min_value=0.0, max_value=1.0),
    width=st.floats(min_value=1e-3, max_value=5.0),
    q=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_uniform_cdf_interpolates(low, width, q):
    d = UniformDelay(low, low + width)
    x = low + q * width
    assert float(d.cdf(x)) == pytest.approx(q, abs=1e-9)
