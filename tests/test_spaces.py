"""State spaces, targets, and restart/initial distributions."""

import math
import pickle

import numpy as np
import pytest

from restartk import (
    ConfigError,
    DomainError,
    FiniteSet,
    FiniteSupport,
    HalfLinePositive,
    Interval,
    PointMass,
    RealLine,
    Subset,
    UnsupportedTarget,
    exponential,
    gaussian,
    gaussian_raw_moment,
    indicator,
    lognormal,
    nu_weights,
)


class TestSpaces:
    def test_real_line_membership(self):
        space = RealLine()
        assert space.contains(0.0) and space.contains(-1e300)
        assert not space.contains(math.inf)
        assert not space.contains(math.nan)

    def test_half_line_membership(self):
        space = HalfLinePositive()
        assert space.contains(1e-300) and space.contains(5.0)
        assert not space.contains(0.0)
        assert not space.contains(-1.0)
        assert not space.contains(math.inf)

    def test_finite_set_basics(self):
        space = FiniteSet((0.3, -1.2, 2.5))
        assert space.n == 3
        assert space.contains(0) and space.contains(np.int64(2))
        assert not space.contains(3)
        assert not space.contains(-1)
        assert not space.contains(1.5)

    def test_finite_set_refuses_non_finite_indices(self):
        # int() raises on NaN and inf, outside the config-error path
        space = FiniteSet((0.3, -1.2, 2.5))
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="integer indices"):
                space.state(x)
            with pytest.raises(ConfigError, match="integer index lists"):
                space.target([0, x])
        assert space.state(2.0) == 2 and space.target([0, 1.0]) == Subset([0, 1])

    def test_finite_set_validation(self):
        with pytest.raises(DomainError):
            FiniteSet(())
        with pytest.raises(DomainError):
            FiniteSet((1.0, math.inf))
        with pytest.raises(DomainError):
            FiniteSet((1.0, 2.0, 1.0))

    def test_interval_validation_and_membership(self):
        iv = Interval(-1.0, 2.0)
        assert iv.contains(-1.0) and iv.contains(2.0) and iv.contains(0.5)
        assert not iv.contains(2.0000001)
        assert Interval().contains(1e308)
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
        with pytest.raises(DomainError):
            Interval(math.nan, 1.0)

    def test_subset(self):
        sub = Subset([0, 2, 2])
        assert sub.indices == frozenset({0, 2})
        assert sub.contains(2) and not sub.contains(1)

    def test_whole_space(self):
        assert FiniteSet((1.0, 2.0)).whole().indices == frozenset({0, 1})
        hl = HalfLinePositive().whole()
        assert hl.lower == 0.0 and hl.upper == math.inf
        rl = RealLine().whole()
        assert rl.lower == -math.inf and rl.upper == math.inf

    def test_validate_target(self):
        RealLine().check_target(Interval(0.0, 1.0))
        HalfLinePositive().check_target(Interval(0.0, 1.0))
        FiniteSet((1.0, 2.0)).check_target(Subset([0]))
        with pytest.raises(UnsupportedTarget):
            RealLine().check_target(Subset([0]))
        with pytest.raises(UnsupportedTarget):
            FiniteSet((1.0, 2.0)).check_target(Interval(0.0, 1.0))
        with pytest.raises(DomainError):
            FiniteSet((1.0, 2.0)).check_target(Subset([5]))

    def test_indicator(self):
        assert indicator(Interval(0.0, 1.0), 0.5) == 1.0
        assert indicator(Interval(0.0, 1.0), 1.5) == 0.0


class TestGaussianMoments:
    def test_low_orders(self):
        m, s = 0.7, 1.3
        assert gaussian_raw_moment(0, m, s) == 1.0
        assert gaussian_raw_moment(1, m, s) == m
        assert abs(gaussian_raw_moment(2, m, s) - (m * m + s * s)) < 1e-15
        assert abs(gaussian_raw_moment(3, m, s) - (m**3 + 3 * m * s * s)) < 1e-14
        assert abs(gaussian_raw_moment(4, m, s) - (m**4 + 6 * m * m * s * s + 3 * s**4)) < 1e-13

    def test_against_quadrature(self):
        m, s = 0.7, 1.3
        dist = gaussian(m, s)
        for k in range(1, 7):
            numeric = dist.expect(lambda y, k=k: y**k)
            assert abs(gaussian_raw_moment(k, m, s) - numeric) < 1e-8 * max(1.0, abs(numeric))

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            gaussian_raw_moment(-1, 0.0, 1.0)


class TestPointMass:
    def test_behaviour(self):
        pm = PointMass(1.5)
        rng = np.random.default_rng(0)
        assert pm.sample(rng) == 1.5
        assert pm.expect(lambda y: y * y) == 2.25
        assert pm.moment(3) == 1.5**3
        assert pm.supported_in(RealLine())
        assert pm.supported_in(HalfLinePositive())
        assert not PointMass(-1.0).supported_in(HalfLinePositive())

    def test_weights_on_finite_space(self):
        space = FiniteSet((1.0, 2.0, 3.0))
        w = PointMass(1).weights(space)
        assert w.tolist() == [0.0, 1.0, 0.0]


class TestFiniteSupport:
    def test_validation(self):
        with pytest.raises(DomainError):
            FiniteSupport(())
        with pytest.raises(DomainError):
            FiniteSupport(((0.0, 0.5), (1.0, 0.6)))
        with pytest.raises(DomainError):
            FiniteSupport(((0.0, -0.1), (1.0, 1.1)))

    def test_expect_and_moment(self):
        dist = FiniteSupport(((0.0, 0.25), (2.0, 0.75)))
        assert abs(dist.expect(lambda y: y) - 1.5) < 1e-15
        assert abs(dist.moment(2) - 3.0) < 1e-15

    def test_sampler_matches_weights(self):
        dist = FiniteSupport(((0.0, 0.25), (2.0, 0.75)))
        rng = np.random.default_rng(7)
        draws = np.array([dist.sample(rng) for _ in range(20000)])
        assert abs((draws == 2.0).mean() - 0.75) < 0.01

    def test_weights_accumulate_duplicates(self):
        space = FiniteSet((5.0, 6.0))
        dist = FiniteSupport(((0, 0.25), (0, 0.25), (1, 0.5)))
        assert dist.weights(space).tolist() == [0.5, 0.5]

    def test_supported_in(self):
        dist = FiniteSupport(((1.0, 0.5), (2.0, 0.5)))
        assert dist.supported_in(HalfLinePositive())
        assert not FiniteSupport(((0.0, 1.0),)).supported_in(HalfLinePositive())


class TestDensityDistributions:
    def test_closed_form_moments_match_quadrature(self):
        for dist, ks in (
            (gaussian(-0.2, 0.8), (1, 2, 3, 4)),
            (exponential(1.7), (1, 2, 3)),
            (lognormal(0.2, 0.5), (1, 2)),
        ):
            for k in ks:
                numeric = dist.expect(lambda y, k=k: y**k)
                closed = dist.moment(k)
                assert abs(closed - numeric) < 1e-7 * max(1.0, abs(closed))

    def test_exponential_moment_values(self):
        dist = exponential(2.0)
        assert dist.moment(1) == 0.5
        assert dist.moment(2) == 0.5
        assert dist.moment(3) == 0.75

    def test_samplers_are_exact(self):
        n = 60000
        for dist in (gaussian(0.5, 2.0), exponential(1.5), lognormal(0.0, 0.3)):
            rng = np.random.default_rng(11)
            draws = np.array([dist.sample(rng) for _ in range(n)])
            mean, second = dist.moment(1), dist.moment(2)
            sd = math.sqrt(second - mean * mean)
            assert abs(draws.mean() - mean) < 5.0 * sd / math.sqrt(n)

    def test_sized_draws_are_the_scalar_draws(self):
        # a sized draw takes the same variates, in order, as repeated scalar
        # draws on a twin generator (lognormal exponentiates through numpy)
        for dist in (
            PointMass(1.5),
            FiniteSupport(((0.5, 0.2), (1.5, 0.3), (3.0, 0.5))),
            FiniteSupport(((0, 0.4), (2, 0.6))),
            gaussian(0.5, 2.0),
            exponential(1.5),
            lognormal(0.0, 0.3),
        ):
            a, b = np.random.default_rng(5), np.random.default_rng(5)
            sized = dist.sample(a, 500)
            scalar = np.array([dist.sample(b) for _ in range(500)])
            assert sized.shape == (500,) and sized.dtype == scalar.dtype
            assert np.allclose(sized, scalar, rtol=1e-14, atol=0.0)
            assert a.random() == b.random()

    def test_supported_in(self):
        assert gaussian(0.0, 1.0).supported_in(RealLine())
        assert not gaussian(0.0, 1.0).supported_in(HalfLinePositive())
        assert exponential(1.0).supported_in(HalfLinePositive())
        assert lognormal(0.0, 1.0).supported_in(HalfLinePositive())
        assert not exponential(1.0).supported_in(FiniteSet((1.0, 2.0)))

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            gaussian(0.0, 0.0)
        with pytest.raises(DomainError):
            exponential(-1.0)
        with pytest.raises(DomainError):
            lognormal(0.0, -0.5)

    def test_picklable_for_worker_processes(self):
        for dist in (gaussian(0.5, 2.0), exponential(1.5), lognormal(0.0, 0.3)):
            clone = pickle.loads(pickle.dumps(dist))
            assert clone.pdf(0.7) == dist.pdf(0.7)
            assert clone.moment(2) == dist.moment(2)


class TestHelpers:
    def test_nu_weights(self):
        space = FiniteSet((1.0, 2.0, 3.0))
        w = nu_weights(FiniteSupport(((0, 0.2), (2, 0.8))), space)
        assert np.allclose(w, [0.2, 0.0, 0.8])
        with pytest.raises(DomainError):
            nu_weights(PointMass(0), RealLine())
        with pytest.raises(DomainError):
            nu_weights(gaussian(0.0, 1.0), space)
