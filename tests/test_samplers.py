import math
import sys
import threading
import time

import numpy as np
import pytest

from prva.distributions import GaussianSpec, UniformSpec
from prva.samplers import (
    SPLIT_SIZE,
    OpCounter,
    SeededStream,
    derive_seed,
    inversion_sample,
    reference_gaussian_sample,
    split,
)


def test_seeded_stream_determinism_and_draw_count():
    a = SeededStream(42)
    b = SeededStream(42)
    np.testing.assert_array_equal(a.uniforms(100), b.uniforms(100))
    assert a.counter.uniform_draws == 100
    # frozen first draws guard against a silent generator change
    first = SeededStream(42).uniforms(3)
    np.testing.assert_allclose(
        first,
        [0.7739560485559633, 0.4388784397520523, 0.8585979199113825],
        rtol=0,
        atol=0,
    )


def test_seeded_stream_empty_and_negative_sizes():
    stream = SeededStream(42)
    empty = stream.uniforms(0)
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    assert stream.counter.as_dict() == OpCounter().as_dict()
    with pytest.raises(ValueError, match="non-negative"):
        stream.uniforms(-1)
    assert stream.counter.uniform_draws == 0
    # an empty draw leaves the sequence where it was
    assert stream.uniforms(1)[0] == 0.7739560485559633


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
    assert sum([a, b], OpCounter()).as_dict() == s.as_dict()
    assert a.total_ops == 5  # draws and rejections are not arithmetic


def test_op_counter_copy_is_independent_and_dict_keeps_field_order():
    a = OpCounter(multiplications=2, additions=3, uniform_draws=5)
    snap = a.copy()
    assert snap is not a and snap == a
    a.multiplications += 7
    snap.rejections += 1
    assert snap.multiplications == 2 and a.rejections == 0
    # the tracer's span diffs and the benchmark CSV's ops columns read
    # fields in declaration order
    assert list(a.as_dict()) == [
        "multiplications",
        "additions",
        "divisions",
        "comparisons",
        "transcendental_evals",
        "uniform_draws",
        "rejections",
    ]
    assert (a - snap).as_dict() == {
        "multiplications": 7,
        "additions": 0,
        "divisions": 0,
        "comparisons": 0,
        "transcendental_evals": 0,
        "uniform_draws": 0,
        "rejections": -1,
    }
    assert sum([], OpCounter()).as_dict() == OpCounter().as_dict()


def test_inversion_uniform_forced_midpoint(scripted_stream):
    stream = scripted_stream([0.5])
    assert inversion_sample(stream, UniformSpec(2.0, 6.0), 1).tolist() == [4.0]
    assert stream.counter.uniform_draws == 1


def test_inversion_is_right_inverse(scripted_stream):
    spec = UniformSpec(-1.5, 4.0)
    p = np.linspace(0.01, 0.99, 99)
    x = inversion_sample(scripted_stream(p), spec, p.size)
    # the closed-form CDF (x - lo) / width
    np.testing.assert_allclose((x - spec.lo) / spec.width, p, atol=1e-12)


def test_inversion_op_charges(scripted_stream):
    stream = scripted_stream(np.linspace(0.01, 0.99, 50))
    inversion_sample(stream, UniformSpec(0.0, 1.0), 50)
    assert stream.counter.multiplications == 50
    assert stream.counter.additions == 50
    assert stream.counter.uniform_draws == 50
    assert stream.counter.total_ops == 100


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
    # one variate is still an array, and a size this small draws the same
    # first round of candidate pairs
    one = reference_gaussian_sample(SeededStream(42), GaussianSpec(0.0, 1.0), 1)
    assert one.tolist() == [a[0]]


def test_polar_rejection_accounting():
    stream = SeededStream(8)
    reference_gaussian_sample(stream, GaussianSpec(0.0, 1.0), 100_000)
    counter = stream.counter
    pairs = counter.uniform_draws // 2
    rate = counter.rejections / pairs
    # unit-square-to-disc rejection rate is 1 - pi/4
    assert abs(rate - (1.0 - math.pi / 4.0)) < 0.01
    assert counter.transcendental_evals > 0


def test_split_surfaces_a_raising_half_after_the_other_finishes():
    for raising in (0, 1):
        finished = []

        def work(lo, hi):
            if (lo > 0) == raising:
                raise RuntimeError(f"half from {lo}")
            time.sleep(0.2)
            finished.append(lo)

        with pytest.raises(RuntimeError, match="half from"):
            split(SPLIT_SIZE, work)
        # the other half ran to its end before the error reached the caller
        assert finished == [SPLIT_SIZE // 2 if raising == 0 else 0]


def test_split_runs_small_work_inline_and_cuts_on_the_grain():
    calls = []
    assert split(SPLIT_SIZE - 1, lambda lo, hi: calls.append((lo, hi))) == SPLIT_SIZE - 1
    assert calls == [(0, SPLIT_SIZE - 1)]
    calls.clear()
    n = SPLIT_SIZE + 5
    cut = split(n, lambda lo, hi: calls.append((lo, hi)), 1000)
    assert cut == n // 2 // 1000 * 1000
    assert sorted(calls) == [(0, cut), (cut, n)]


def test_concurrent_split_draws_match_one_draw_each():
    # more callers than cores share the one helper thread; each stream's
    # split draws must still equal its own single draw
    n, callers = SPLIT_SIZE + 3, 4
    results = [None] * callers

    def draw(k):
        stream = SeededStream(k)
        results[k] = [stream.uniforms(n) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=draw, args=(k,)) for k in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "a split draw hung"
    finally:
        sys.setswitchinterval(interval)
    for k in range(callers):
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(k))).random(3 * n)
        np.testing.assert_array_equal(np.concatenate(results[k]), want)
