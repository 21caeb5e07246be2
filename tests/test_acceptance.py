"""End-to-end acceptance gate.

Each test reports one ``ACCEPTANCE <tag>: PASS|FAIL - <figures>`` line
through the ``acceptance`` fixture, which replays every line in the
terminal summary so a plain pytest run always ends with the verdict
table. These are whole-package statistical checks — KL regime
separation, quantization trend, Monte Carlo error structure, transform
fidelity, operation economy, drift compensation, bit-level determinism,
and a brute-force quadrature oracle — each with a wall-clock budget.
"""

import time
from dataclasses import asdict

import numpy as np
import pytest

from prva.distributions import GaussianSpec, UniformSpec, gaussian_pdf
from prva.montecarlo import mc_integrate, run_benchmark
from prva.samplers import (
    OpCounter,
    SeededStream,
    derive_seed,
    inversion_sample,
    reference_gaussian_sample,
)
from prva.sensor import AdcModel, default_adc, default_grid, generate_trace
from prva.stats import (
    fit_gaussian,
    histogram,
    kl_divergence,
    quantization_sweep,
    unit_code_kl,
)
from prva.transform import VariateCache, apply, compensate, fill_cache, make_coeffs

SENSOR = GaussianSpec(980.794, 7.178)
SEED = 0


def test_criterion_1_kl_regime_separation(acceptance):
    t0 = time.perf_counter()
    reps, n = 100, 100_000
    uni = UniformSpec(SENSOR.mean - 3 * SENSOR.sigma, SENSOR.mean + 3 * SENSOR.sigma)
    adc = AdcModel(4096, SENSOR.mean - 4 * SENSOR.sigma, SENSOR.mean + 4 * SENSOR.sigma)
    kl_uni = np.empty(reps)
    kl_gauss = np.empty(reps)
    for rep in range(reps):
        u = inversion_sample(SeededStream(derive_seed(SEED, 1, rep)), uni, n)
        kl_uni[rep] = unit_code_kl(u)[1]
        g = reference_gaussian_sample(SeededStream(derive_seed(SEED, 2, rep)), SENSOR, n)
        kl_gauss[rep] = unit_code_kl(adc.value(adc.quantize(g)))[1]
    mu_u, mu_g = float(kl_uni.mean()), float(kl_gauss.mean())
    elapsed = time.perf_counter() - t0
    in_band = 0.116 * 0.75 <= mu_u <= 0.116 * 1.25
    ratio_ok = mu_g <= mu_u / 3.0
    ok = in_band and ratio_ok and elapsed < 120
    detail = (
        f"uniform[+/-3 sigma] unit-code KL {mu_u:.4f} (band 0.087..0.145), "
        f"quantized gaussian KL {mu_g:.5f}, separation {mu_u / mu_g:.0f}x "
        f"(need >= 3x), {elapsed:.1f}s < 120s"
    )
    assert acceptance("1", ok, detail), detail


def test_criterion_2_quantization_trend(acceptance):
    t0 = time.perf_counter()
    bin_counts = (16, 64, 256, 1024, 4096)
    rows = quantization_sweep(SENSOR, 100_000, bin_counts, 100, seed=SEED)
    elapsed = time.perf_counter() - t0
    kls = [kl for _, kl in rows]
    increasing = all(a < b for a, b in zip(kls, kls[1:]))
    ok = increasing and elapsed < 300
    detail = (
        f"mean KL over bins {list(bin_counts)}: "
        + ", ".join(f"{kl:.3g}" for kl in kls)
        + f" ({'strictly increasing' if increasing else 'NOT increasing'}), "
        f"{elapsed:.1f}s < 300s"
    )
    assert acceptance("2", ok, detail), detail


@pytest.fixture(scope="module")
def error_structure_benchmark():
    t0 = time.perf_counter()
    report = run_benchmark(
        ("uniform:10", "uniform:100", "uniform:1000", "gaussian"),
        GaussianSpec(0.0, 1.0),
        1_000_000,
        100,
        threads=4,
        seed=SEED,
    )
    return report, time.perf_counter() - t0


def _ci_verdict(matched, uniform):
    """W if the matched source's error CI90 lies strictly below the uniform
    source's, L if strictly above, ? if the two overlap."""
    if matched.error_ci90[1] < uniform.error_ci90[0]:
        return "W"
    if matched.error_ci90[0] > uniform.error_ci90[1]:
        return "L"
    return "?"


def test_criterion_3a_matched_gaussian_beats_uniform(
    error_structure_benchmark, acceptance
):
    # With matched i.i.d. gaussian abscissae the trapezoid rule misses only
    # the mass outside the sample range, ~2/(N+1); on uniform:k abscissae the
    # error falls ~300x per decade once the samples resolve the density. The
    # matched source therefore wins below a crossover N that grows with k and
    # loses above it. The ladder reuses the fixture's configuration at smaller
    # N; its top rung is the fixture's own N = 10^6 report.
    report, fixture_s = error_structure_benchmark
    t0 = time.perf_counter()
    sources = tuple(s.source for s in report.sources)
    ladder = [
        run_benchmark(
            sources,
            report.target,
            n,
            report.repetitions,
            threads=report.threads,
            seed=report.seed,
        )
        for n in (10, 100, 1_000, 10_000, 100_000)
    ] + [report]
    elapsed = fixture_s + time.perf_counter() - t0
    rungs = [r.n for r in ladder]
    by_rung = [{s.source: s for s in r.sources} for r in ladder]
    verdicts, crossovers = {}, {}
    for k in (10, 100, 1000):
        v = "".join(_ci_verdict(by["gaussian"], by[f"uniform:{k}"]) for by in by_rung)
        wins = len(v) - len(v.lstrip("W"))
        stepped = 0 < wins < len(v) and v == "W" * wins + "L" * (len(v) - wins)
        verdicts[k] = v
        crossovers[k] = rungs[wins] if stepped else None
    found = all(c is not None for c in crossovers.values())
    rising = found and crossovers[10] < crossovers[100] < crossovers[1000]
    # the N = 10^6 reversal: the gaussian CI90 lies above every uniform CI90
    reversal = all(v.endswith("L") for v in verdicts.values())
    ok = found and rising and reversal and elapsed < 600

    def fmt(s):
        return f"{s.mean_error:.3g} [{s.error_ci90[0]:.3g}, {s.error_ci90[1]:.3g}]"

    top = by_rung[-1]
    detail = (
        "gaussian vs uniform:k by mean |1-area| CI90 at N = "
        + ", ".join(str(n) for n in rungs)
        + f" ({report.repetitions} reps; W = gaussian below, L = above, ? = overlap): "
        + "; ".join(
            f"k={k} {verdicts[k]} crossover N="
            + (str(crossovers[k]) if crossovers[k] else "none")
            for k in crossovers
        )
        + f" ({'strictly rising' if rising else 'NOT strictly rising'} with k); "
        f"at N={rungs[-1]} gaussian {fmt(top['gaussian'])} "
        f"{'lies above' if reversal else 'does NOT lie above'} "
        + ", ".join(f"uniform:{k} {fmt(top[f'uniform:{k}'])}" for k in crossovers)
        + f" ({elapsed:.1f}s < 600s)"
    )
    assert acceptance("3a", ok, detail), detail


def test_criterion_3b_uniform_trend_and_gaussian_flatness(
    error_structure_benchmark, acceptance
):
    report, _ = error_structure_benchmark
    by = {s.source: s for s in report.sources}
    e10, e100, e1000 = (by[f"uniform:{k}"].mean_error for k in (10, 100, 1000))
    nondecreasing = e10 <= e100 <= e1000
    # the gaussian source takes no half-width: rerunning it alone, on
    # different streams, must reproduce the same error level
    solo = run_benchmark(
        ("gaussian",), GaussianSpec(0.0, 1.0), 1_000_000, 100, threads=4, seed=SEED
    ).sources[0]
    joint = by["gaussian"]
    h_joint = (joint.error_ci90[1] - joint.error_ci90[0]) / 2
    h_solo = (solo.error_ci90[1] - solo.error_ci90[0]) / 2
    flat = abs(joint.mean_error - solo.mean_error) <= 2 * (h_joint + h_solo)
    ok = nondecreasing and flat
    detail = (
        f"uniform mean error {e10:.3g} <= {e100:.3g} <= {e1000:.3g} over "
        f"k = 10, 100, 1000; gaussian error {joint.mean_error:.3g} vs "
        f"{solo.mean_error:.3g} on independent streams (range-free within CI noise)"
    )
    assert acceptance("3b", ok, detail), detail


def test_criterion_3c_ci_separation_at_large_k(error_structure_benchmark, acceptance):
    report, _ = error_structure_benchmark
    by = {s.source: s for s in report.sources}
    lo100, hi100 = by["uniform:100"].error_ci90
    lo1000, hi1000 = by["uniform:1000"].error_ci90
    ok = by["uniform:100"].mean_error < by["uniform:1000"].mean_error and hi100 < lo1000
    detail = (
        f"uniform:100 CI90 [{lo100:.3g}, {hi100:.3g}] sits strictly below "
        f"uniform:1000 CI90 [{lo1000:.3g}, {hi1000:.3g}] "
        f"(gaussian CI90 [{by['gaussian'].error_ci90[0]:.3g}, "
        f"{by['gaussian'].error_ci90[1]:.3g}] lies above both)"
    )
    assert acceptance("3c", ok, detail), detail


def test_criterion_4_transform_fidelity(acceptance):
    t0 = time.perf_counter()
    n = 100_000
    grid = default_grid()
    adc = default_adc(grid, 10.0, 2.6)
    stream = SeededStream(derive_seed(SEED, 4))
    trace = generate_trace(stream, grid, 10.0, 2.6, adc, n)
    values = compensate(trace, grid, stream=stream)
    coeffs = make_coeffs(GaussianSpec(0.0, 1.0), SENSOR)
    cache = VariateCache(65_536, SENSOR)
    fill_cache(cache, values, coeffs, counter=stream.counter, background=True)
    out = cache.get_many(n)
    fit = fit_gaussian(out)
    hist = histogram(
        out, 256, (SENSOR.mean - 4 * SENSOR.sigma, SENSOR.mean + 4 * SENSOR.sigma)
    )
    kl = kl_divergence(hist, SENSOR)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(fit.mean - SENSOR.mean) < 0.114
        and abs(fit.sigma - SENSOR.sigma) < 0.081
        and kl < 0.01
        and elapsed < 60
    )
    detail = (
        f"{n} cache-drained variates: fitted mean {fit.mean:.4f} "
        f"(980.794 +/- 0.114), fitted sigma {fit.sigma:.4f} (7.178 +/- 0.081), "
        f"256-bin KL {kl:.5f} (< 0.01), {elapsed:.1f}s < 60s"
    )
    assert acceptance("4", ok, detail), detail


def test_criterion_5_operation_economy(acceptance):
    t0 = time.perf_counter()
    n = 100_000
    values = reference_gaussian_sample(
        SeededStream(derive_seed(SEED, 5)), GaussianSpec(0.0, 1.0), n
    )
    coeffs = make_coeffs(GaussianSpec(0.0, 1.0), SENSOR)
    counter = OpCounter()
    w0 = time.perf_counter()
    apply(coeffs, values, counter)
    wall_ns = (time.perf_counter() - w0) / n * 1e9
    transform_ok = (
        counter.multiplications == n
        and counter.additions == n
        and counter.total_ops == 2 * n
    )
    # the host side of prva: on n codes, compensate and apply charge 3 ops
    # to dequantize, 2 to standardize and 2 to retarget, and 1 draw, per
    # variate; the polar sampler pays more ops per variate at the same n
    grid = default_grid()
    adc = default_adc(grid, 10.0, 2.6)
    trace = generate_trace(SeededStream(derive_seed(SEED, 52)), grid, 10.0, 2.6, adc, n)
    host = OpCounter()
    standard = compensate(trace, grid, stream=SeededStream(derive_seed(SEED, 53), host))
    apply(coeffs, standard, host)
    polar = OpCounter()
    reference_gaussian_sample(SeededStream(derive_seed(SEED, 54), polar), SENSOR, n)
    host_ok = (
        host.total_ops == 7 * n
        and host.uniform_draws == n
        and host.total_ops < polar.total_ops
    )
    elapsed = time.perf_counter() - t0
    ok = transform_ok and host_ok and elapsed < 60
    detail = (
        f"transform charged {counter.total_ops / n:g} ops/variate "
        f"(1 mul + 1 add; wall {wall_ns:.1f} ns/variate, reported only); "
        f"prva's host side (compensate + apply) charged "
        f"{host.total_ops / n:g} ops and {host.uniform_draws / n:g} draws per "
        f"variate (7 and 1) against polar's {polar.total_ops / n:g} ops, "
        f"{elapsed:.1f}s < 60s"
    )
    assert acceptance("5", ok, detail), detail


def test_criterion_6_drift_and_compensation(acceptance):
    t0 = time.perf_counter()
    grid = default_grid()
    trends = (
        bool(np.all(np.diff(grid.means, axis=0) < 0)),  # hotter -> lower mean
        bool(np.all(np.diff(grid.means, axis=1) > 0)),  # higher supply -> higher mean
        bool(np.all(np.diff(grid.sigmas, axis=0) < 0)),  # hotter -> tighter
        bool(np.all(np.diff(grid.sigmas, axis=1) < 0)),  # higher supply -> tighter
    )
    n = 100_000
    comp_means, comp_sigmas, fixed_ref_means = [], [], []
    cell = 0
    for ti, temp in enumerate(grid.temperatures):
        for vi, volt in enumerate(grid.voltages):
            stream = SeededStream(derive_seed(SEED, 6, cell))
            cell += 1
            adc = default_adc(grid, temp, volt)
            trace = generate_trace(stream, grid, temp, volt, adc, n)
            fit = fit_gaussian(compensate(trace, grid, stream=stream))
            comp_means.append(fit.mean)
            comp_sigmas.append(fit.sigma)
            # the same acquisition standardized against the fixed nominal
            # operating point — what a consumer sees with compensation off
            raw_mean = fit.mean * grid.sigmas[ti, vi] + grid.means[ti, vi]
            fixed_ref_means.append((raw_mean - SENSOR.mean) / SENSOR.sigma)
    comp_means = np.array(comp_means)
    comp_sigmas = np.array(comp_sigmas)
    fixed_ref_means = np.array(fixed_ref_means)
    comp_spread = float(comp_means.max() - comp_means.min())
    raw_spread = float(fixed_ref_means.max() - fixed_ref_means.min())
    worst_mean = float(np.max(np.abs(comp_means)))
    elapsed = time.perf_counter() - t0
    ok = (
        all(trends)
        and worst_mean < 0.02
        and comp_sigmas.min() > 0.98
        and comp_sigmas.max() < 1.02
        and raw_spread >= 10 * comp_spread
        and elapsed < 300
    )
    detail = (
        f"{sum(trends)}/4 monotone drift trends; {cell} cells at n={n}: "
        f"max |compensated mean| {worst_mean:.4f} (< 0.02), sigma range "
        f"[{comp_sigmas.min():.4f}, {comp_sigmas.max():.4f}] (within "
        f"[0.98, 1.02]); uncompensated mean spread {raw_spread:.3f} sigma vs "
        f"compensated {comp_spread:.4f} ({raw_spread / comp_spread:.0f}x >= 10x), "
        f"{elapsed:.1f}s < 300s"
    )
    assert acceptance("6", ok, detail), detail


def test_criterion_7_determinism(acceptance, strip_timing):
    t0 = time.perf_counter()
    checks = {}
    checks["inversion uniform"] = np.array_equal(
        inversion_sample(SeededStream(7), UniformSpec(-2.0, 2.0), 10_000),
        inversion_sample(SeededStream(7), UniformSpec(-2.0, 2.0), 10_000),
    )
    checks["polar gaussian"] = np.array_equal(
        reference_gaussian_sample(SeededStream(7), SENSOR, 10_000),
        reference_gaussian_sample(SeededStream(7), SENSOR, 10_000),
    )
    grid = default_grid()
    adc = default_adc(grid, 10.0, 2.6)
    checks["trace codes"] = np.array_equal(
        generate_trace(SeededStream(7), grid, 10.0, 2.6, adc, 20_000).codes,
        generate_trace(SeededStream(7), grid, 10.0, 2.6, adc, 20_000).codes,
    )
    sources = ("uniform:5", "gaussian", "prva")
    d1, d2, d4 = (
        strip_timing(
            asdict(run_benchmark(sources, SENSOR, 5_000, 4, threads=t, seed=7))
        )
        for t in (1, 1, 4)
    )
    for d in (d1, d2, d4):
        d.pop("threads")
    checks["benchmark rerun"] = d1 == d2
    checks["benchmark 1 vs 4 threads"] = d1 == d4
    elapsed = time.perf_counter() - t0
    ok = all(checks.values()) and elapsed < 60
    failed = [name for name, good in checks.items() if not good]
    detail = (
        f"{sum(checks.values())}/{len(checks)} bit-identity checks"
        + (f" (failed: {', '.join(failed)})" if failed else "")
        + f": samplers, trace codes, benchmark across runs and thread counts, "
        f"{elapsed:.1f}s < 60s"
    )
    assert acceptance("7", ok, detail), detail


def test_criterion_8_brute_force_oracles(acceptance):
    t0 = time.perf_counter()
    target = GaussianSpec(0.0, 1.0)
    x = inversion_sample(
        SeededStream(derive_seed(SEED, 8)), UniformSpec(-10.0, 10.0), 100_000
    )
    area_mc = mc_integrate(x, target).area
    dense = np.linspace(-10.0, 10.0, 1_000_001)
    # the trapezoid rule written out: np.trapezoid needs numpy 2.0, and
    # np.trapz warns there
    pdf = gaussian_pdf(dense, target)
    area_dense = float((np.diff(dense) * (pdf[1:] + pdf[:-1]) / 2.0).sum())
    quad_gap = abs(area_mc - area_dense)
    elapsed = time.perf_counter() - t0
    ok = quad_gap < 1e-6 and elapsed < 120
    detail = (
        f"random-abscissa trapezoid vs dense uniform-grid quadrature gap "
        f"{quad_gap:.2e} (< 1e-6), {elapsed:.1f}s < 120s"
    )
    assert acceptance("8", ok, detail), detail
