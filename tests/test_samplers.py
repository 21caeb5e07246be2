import math

import numpy as np
import pytest

from prva.distributions import ExponentialSpec, GaussianSpec, UniformSpec
from prva.samplers import (
    AcceptRejectSampler,
    DisjointSupportError,
    EnvelopeError,
    OpCounter,
    SeededStream,
    derive_seed,
    inversion_sample,
    merge_counters,
    reference_gaussian_sample,
    tight_envelope_constant,
)
from prva.stats import fit_gaussian, histogram, kl_divergence


class ScriptedStream:
    """Stream double that hands out a fixed list of uniforms."""

    def __init__(self, values):
        self._values = list(values)
        self.counter = OpCounter()
        self.draws_taken = 0

    def uniforms(self, size=None):
        n = 1 if size is None else int(size)
        out = np.array([self._values.pop(0) for _ in range(n)])
        self.draws_taken += n
        self.counter.uniform_draws += n
        return float(out[0]) if size is None else out


def test_seeded_stream_determinism_and_draw_count():
    a = SeededStream(42)
    b = SeededStream(42)
    np.testing.assert_array_equal(a.uniforms(100), b.uniforms(100))
    assert a.draws_taken == 100
    assert a.counter.uniform_draws == 100
    # frozen first draws guard against a silent generator change
    first = SeededStream(42).uniforms(3)
    np.testing.assert_allclose(
        first,
        [0.7739560485559633, 0.4388784397520523, 0.8585979199113825],
        rtol=0,
        atol=0,
    )
    assert SeededStream(42).uniforms() == pytest.approx(0.7739560485559633, abs=0)


def test_seeded_stream_rejects_bad_seeds():
    with pytest.raises(ValueError):
        SeededStream(-1)
    with pytest.raises(ValueError):
        SeededStream(2**64)


def test_derive_seed_is_stable_and_separating():
    assert derive_seed(7, 1, 2) == 6837620415509415036
    assert derive_seed(7, 0) == 16920295385781661272
    assert derive_seed(7, 1) == 6635463128224577688
    assert derive_seed(7, 0) != derive_seed(8, 0)


def test_op_counter_arithmetic():
    a = OpCounter(multiplications=2, additions=3, uniform_draws=5)
    b = OpCounter(multiplications=1, divisions=4, rejections=2)
    s = a + b
    assert s.multiplications == 3 and s.additions == 3 and s.divisions == 4
    assert s.uniform_draws == 5 and s.rejections == 2
    d = s - a
    assert d.as_dict() == b.as_dict()
    assert merge_counters([a, b]).as_dict() == s.as_dict()
    assert a.total_ops == 5  # draws and rejections are not arithmetic


def test_inversion_uniform_forced_midpoint():
    stream = ScriptedStream([0.5])
    assert inversion_sample(stream, UniformSpec(2.0, 6.0)) == 4.0
    assert stream.draws_taken == 1


def test_inversion_exponential_forced_points():
    stream = ScriptedStream([0.5, 1.0 - math.exp(-1.0)])
    x = inversion_sample(stream, ExponentialSpec(1.0), 2)
    np.testing.assert_allclose(x, [math.log(2.0), 1.0], rtol=1e-12)


def test_inversion_op_charges():
    stream = ScriptedStream(list(np.linspace(0.01, 0.99, 50)))
    inversion_sample(stream, UniformSpec(0.0, 1.0), 50)
    assert stream.counter.multiplications == 50
    assert stream.counter.additions == 50
    assert stream.counter.uniform_draws == 50
    stream2 = ScriptedStream(list(np.linspace(0.01, 0.99, 50)))
    inversion_sample(stream2, ExponentialSpec(2.0), 50)
    assert stream2.counter.transcendental_evals == 50
    assert stream2.counter.divisions == 50
    assert stream2.counter.additions == 50


def test_inversion_determinism_and_frozen_values():
    a = inversion_sample(SeededStream(9), UniformSpec(2.0, 6.0), 3)
    b = inversion_sample(SeededStream(9), UniformSpec(2.0, 6.0), 3)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(
        a,
        [5.480996815880339, 3.1472688363502215, 4.412592600206247],
        rtol=0,
        atol=0,
    )
    e = inversion_sample(SeededStream(9), ExponentialSpec(1.0), 3)
    np.testing.assert_allclose(
        e,
        [2.042139621849638, 0.33801752268353474, 0.9241922418750715],
        rtol=0,
        atol=0,
    )


def test_inversion_exponential_mean():
    x = inversion_sample(SeededStream(123), ExponentialSpec(1.0), 100_000)
    assert abs(x.mean() - 1.0) < 0.02
    assert x.min() >= 0.0


def test_tight_envelope_constant():
    # symmetric support around the mean: c = width * peak density
    c = tight_envelope_constant(GaussianSpec(0.0, 1.0), UniformSpec(-6.0, 6.0))
    assert math.isclose(c, 12.0 / math.sqrt(2.0 * math.pi), rel_tol=1e-12)
    # support that misses the mean: peak sits at the nearest edge
    c_off = tight_envelope_constant(GaussianSpec(0.0, 1.0), UniformSpec(2.0, 6.0))
    peak = math.exp(-2.0) / math.sqrt(2.0 * math.pi)
    assert math.isclose(c_off, 4.0 * peak, rel_tol=1e-9)


def test_accept_reject_envelope_violation():
    target = GaussianSpec(0.0, 1.0)
    proposal = UniformSpec(-6.0, 6.0)
    with pytest.raises(EnvelopeError):
        AcceptRejectSampler(target, proposal, 4.0)  # needs c >= 4.787...
    with pytest.raises(ValueError):
        AcceptRejectSampler(target, proposal, 0.5)  # c >= 1 by definition


def test_accept_reject_disjoint_support():
    with pytest.raises(DisjointSupportError):
        AcceptRejectSampler(GaussianSpec(0.0, 1.0), UniformSpec(100.0, 110.0), 50.0)


def test_accept_reject_distribution():
    target = GaussianSpec(0.0, 1.0)
    proposal = UniformSpec(-6.0, 6.0)
    c = tight_envelope_constant(target, proposal)
    sampler = AcceptRejectSampler(target, proposal, c)
    x = sampler.sample(SeededStream(5), 200_000)
    fit = fit_gaussian(x)
    assert abs(fit.mean) < 0.015
    assert abs(fit.sigma - 1.0) < 0.012
    hist = histogram(x, 256, (-4.0, 4.0))
    assert kl_divergence(hist, target) < 0.01
    assert x.min() >= proposal.lo and x.max() <= proposal.hi


def test_accept_reject_determinism_and_scalar():
    target = GaussianSpec(0.0, 1.0)
    proposal = UniformSpec(-6.0, 6.0)
    c = tight_envelope_constant(target, proposal)
    a = AcceptRejectSampler(target, proposal, c).sample(SeededStream(77), 5_000)
    b = AcceptRejectSampler(target, proposal, c).sample(SeededStream(77), 5_000)
    np.testing.assert_array_equal(a, b)
    one = AcceptRejectSampler(target, proposal, c).sample(SeededStream(77))
    assert isinstance(one, float)


def test_accept_reject_op_accounting():
    target = GaussianSpec(0.0, 1.0)
    proposal = UniformSpec(-6.0, 6.0)
    c = tight_envelope_constant(target, proposal)
    sampler = AcceptRejectSampler(target, proposal, c)
    stream = SeededStream(3)
    n = 30_000
    x = sampler.sample(stream, n)
    counter = stream.counter
    assert counter.uniform_draws % 2 == 0
    attempts = counter.uniform_draws // 2
    # exactly two draws per attempt, at least ten ops per attempt
    assert attempts >= n
    assert counter.total_ops >= 10 * attempts
    assert counter.rejections <= attempts - n
    # observed acceptance rate near the analytic one
    p = sampler.accept_probability
    p_hat = (attempts - counter.rejections) / attempts
    assert abs(p_hat - p) < 3.0 * math.sqrt(p * (1.0 - p) / attempts)
    assert x.size == n


def test_polar_reference_moments():
    spec = GaussianSpec(980.794, 7.178)
    x = reference_gaussian_sample(SeededStream(1), spec, 1_000_000)
    assert abs(x.mean() - spec.mean) < 5.0 * spec.sigma / 1000.0
    assert abs(x.std() - spec.sigma) < 5.0 * spec.sigma / math.sqrt(2e6)
    inside = np.mean(np.abs(x - spec.mean) <= spec.sigma)
    assert abs(inside - 0.6826894921370859) < 0.005


def test_polar_determinism_and_frozen_values():
    a = reference_gaussian_sample(SeededStream(42), GaussianSpec(0.0, 1.0), 4)
    b = reference_gaussian_sample(SeededStream(42), GaussianSpec(0.0, 1.0), 4)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(
        a,
        [
            1.4965899079154232,
            0.2981903184989306,
            -0.09884030271178385,
            -0.7053555941541498,
        ],
        rtol=0,
        atol=0,
    )
    one = reference_gaussian_sample(SeededStream(42), GaussianSpec(0.0, 1.0))
    assert one == a[0]


def test_polar_rejection_accounting():
    stream = SeededStream(8)
    reference_gaussian_sample(stream, GaussianSpec(0.0, 1.0), 100_000)
    counter = stream.counter
    pairs = counter.uniform_draws // 2
    rate = counter.rejections / pairs
    # unit-square-to-disc rejection rate is 1 - pi/4
    assert abs(rate - (1.0 - math.pi / 4.0)) < 0.01
    assert counter.transcendental_evals > 0
