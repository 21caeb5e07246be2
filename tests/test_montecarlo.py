import csv
import json
import math
import multiprocessing
import threading
import time
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from prva import montecarlo
from prva.distributions import GaussianSpec, UniformSpec
from prva.montecarlo import mc_integrate, parse_source, run_benchmark
from prva.samplers import SeededStream, inversion_sample
from prva.sensor import default_adc, default_grid, generate_trace, store_trace

TARGET = GaussianSpec(980.794, 7.178)


def test_trapezoid_on_wide_even_grid_is_nearly_exact():
    x = np.linspace(-10.0, 10.0, 100_001)
    r = mc_integrate(x, GaussianSpec(0.0, 1.0))
    assert r.error < 1e-6
    assert r.n == 100_001


def test_trapezoid_sees_truncation_as_error():
    # samples confined to +/-3 sigma leave the 0.0027 tail mass on the table
    x = inversion_sample(SeededStream(0), UniformSpec(-3.0, 3.0), 100_000)
    r = mc_integrate(x, GaussianSpec(0.0, 1.0))
    assert 0.0025 < r.error < 0.0029


def test_integration_is_sort_invariant():
    rng = SeededStream(11)
    x = rng.uniforms(5_000) * 12.0 - 6.0
    shuffled = x[np.argsort(rng.uniforms(5_000))]
    a = mc_integrate(x, GaussianSpec(0.0, 1.0))
    b = mc_integrate(shuffled, GaussianSpec(0.0, 1.0))
    assert a.area == b.area
    assert a.error == b.error


def test_degenerate_samples_give_zero_area():
    r = mc_integrate([5.0, 5.0], GaussianSpec(5.0, 1.0))
    assert r.area == 0.0
    assert r.error == 1.0


def test_integrate_needs_two_samples():
    with pytest.raises(ValueError):
        mc_integrate([1.0], GaussianSpec(0.0, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_integrate_rejects_non_finite_samples(bad, where):
    # a NaN used to surface as "error must equal |1 - area|" and an
    # infinity as a silent area of inf
    x = [0.5, -1.0, 2.0, 0.0, 1.5]
    x[where] = bad
    with pytest.raises(ValueError, match="must be finite"):
        mc_integrate(x, GaussianSpec(0.0, 1.0))
    with pytest.raises(ValueError, match="must be finite"):
        mc_integrate(np.array([bad, bad]), GaussianSpec(0.0, 1.0))


@pytest.mark.parametrize("x", [[-1.7e308, 1.7e308], [1.7e308, 0.0, -1.7e308, 1.0]])
def test_integrate_rejects_span_that_overflows(x):
    # finite samples whose span overflows used to make an infinite width,
    # warn "overflow encountered in subtract" and then fail with the
    # misleading "error must equal |1 - area|"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"span \[-1\.7e\+308, 1\.7e\+308\]"):
            mc_integrate(x, GaussianSpec(0.0, 1.0))


def test_integrate_rejects_area_that_overflows():
    # a finite span times a tiny sigma's density peak used to warn
    # "overflow encountered in multiply" and return area=inf silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"sigma 1e-300 .* \[-1e\+300, 1e\+300\]"):
            mc_integrate([-1e300, 0.0, 1e300], GaussianSpec(0.0, 1e-300))


@pytest.mark.parametrize("x", [[0.0, 1.0], [0.0, 0.0, 1.0]])
def test_integrate_rejects_a_peak_that_overflows(x):
    # a subnormal sigma's density peak is inf; it used to warn "overflow
    # encountered in divide", and times a zero width between repeated
    # samples "invalid value encountered in multiply"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"sigma 5e-324 .* \[0\.0, 1\.0\]"):
            mc_integrate(x, GaussianSpec(0.0, 5e-324))


def test_integrate_accepts_the_widest_finite_span():
    r = mc_integrate([-8e307, 8e307], GaussianSpec(0.0, 1.0))
    assert r.area == 0.0 and r.error == 1.0


def test_parse_source_variants():
    u = parse_source("uniform:10")
    assert (u.kind, u.half_width_sigmas) == ("uniform", 10.0)
    assert parse_source("uniform:2.5").half_width_sigmas == 2.5
    g = parse_source("gaussian")
    assert g.kind == "gaussian" and g.trace_path is None
    p = parse_source("prva")
    assert p.kind == "prva" and p.trace_path is None
    pr = parse_source("prva:/tmp/t.txt")
    assert pr.trace_path == "/tmp/t.txt"
    assert parse_source("  gaussian ").label == "gaussian"


def test_parse_source_rejections():
    for bad, fault in (
        ("uniform", "uniform needs a half-width multiple"),
        ("uniform:", "uniform needs a half-width multiple"),
        ("uniform:abc", "half-width multiple 'abc' is not a number"),
        ("uniform:-3", "half-width multiple must be positive"),
        ("gaussian:2", "gaussian takes no argument"),
        ("prva:", "replay needs a trace path"),
    ):
        with pytest.raises(ValueError, match=f"^source '{bad}': {fault}"):
            parse_source(bad)
    with pytest.raises(ValueError, match="^unknown source 'triangular'$"):
        parse_source("triangular")


def test_benchmark_same_seed_same_numbers(strip_timing):
    sources = ("uniform:5", "gaussian", "prva")
    a = run_benchmark(sources, TARGET, 2_000, 3, seed=7)
    b = run_benchmark(sources, TARGET, 2_000, 3, seed=7)
    assert strip_timing(asdict(a)) == strip_timing(asdict(b))


def test_benchmark_thread_count_does_not_change_results(strip_timing):
    sources = ("uniform:5", "gaussian", "prva")
    one = run_benchmark(sources, TARGET, 2_000, 4, seed=3, threads=1)
    four = run_benchmark(sources, TARGET, 2_000, 4, seed=3, threads=4)
    d1, d4 = strip_timing(asdict(one)), strip_timing(asdict(four))
    d1.pop("threads")
    d4.pop("threads")
    assert d1 == d4


def test_mean_time_covers_integration(monkeypatch):
    # the job's clock window must span the integral, not the draw alone
    real = montecarlo.mc_integrate

    def slow_integrate(*args, **kwargs):
        time.sleep(0.05)
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "mc_integrate", slow_integrate)
    report = run_benchmark(("uniform:4", "gaussian", "prva"), TARGET, 500, 1, seed=2)
    for s in report.sources:
        assert s.mean_time_s >= 0.05, s.source


def test_benchmark_reuses_its_worker_threads(monkeypatch):
    # calls with one thread count share one long-lived pool
    real = montecarlo.mc_integrate
    names = []

    def recording_integrate(*args, **kwargs):
        names.append(threading.current_thread().name)
        time.sleep(0.01)  # a busy worker makes the other take jobs too
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "mc_integrate", recording_integrate)
    per_call = []
    for seed in range(3):
        names.clear()
        run_benchmark(("uniform:4", "gaussian"), TARGET, 500, 4, seed=seed, threads=2)
        per_call.append(set(names))
    assert len(per_call[0]) == 2
    assert per_call[0] == per_call[1] == per_call[2]


def test_benchmark_keeps_only_the_last_thread_counts_pool(monkeypatch):
    # a pool per thread count, kept forever, left 1 + 2 + 3 idle workers
    # after calls at 1, 2 and 3 threads; a replaced pool's workers exit
    real = montecarlo.mc_integrate
    workers = []

    def recording_integrate(*args, **kwargs):
        workers[-1].add(threading.current_thread())
        time.sleep(0.01)  # a busy worker makes the others take jobs too
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "mc_integrate", recording_integrate)
    for threads in (1, 2, 3):
        workers.append(set())
        run_benchmark(("uniform:4",), TARGET, 500, 6, seed=1, threads=threads)
    *replaced, last = workers
    replaced = set().union(*replaced)
    deadline = time.monotonic() + 10.0
    while replaced & set(threading.enumerate()):
        assert time.monotonic() < deadline, "a replaced pool's workers still run"
        time.sleep(0.01)
    # the last pool stays warm for the next call at its thread count
    assert len(last) == 3 and last <= set(threading.enumerate())


def test_raising_job_surfaces_after_every_job_finished(monkeypatch):
    real = montecarlo.mc_integrate
    finished = []

    def failing_draw(*args, **kwargs):
        raise RuntimeError("draw failed")

    def slow_integrate(*args, **kwargs):
        time.sleep(0.05)
        result = real(*args, **kwargs)
        finished.append(result)
        return result

    monkeypatch.setattr(montecarlo, "inversion_sample", failing_draw)
    monkeypatch.setattr(montecarlo, "mc_integrate", slow_integrate)
    # the first job in reduction order raises at once; the caller must
    # still see its error only after the three gaussian jobs are done
    with pytest.raises(RuntimeError, match="draw failed"):
        run_benchmark(("uniform:4", "gaussian"), TARGET, 500, 3, threads=2)
    assert len(finished) == 3


def _benchmark_in_child():
    run_benchmark(("uniform:4", "gaussian", "prva"), TARGET, 500, 2, threads=2)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_runs_the_benchmark():
    # the child inherits the warmed pool object but none of its threads,
    # so work submitted to that pool would never run
    run_benchmark(("uniform:4",), TARGET, 500, 2, threads=2)
    child = multiprocessing.get_context("fork").Process(target=_benchmark_in_child)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung in run_benchmark")
    assert child.exitcode == 0


def test_benchmark_uniform_ops_are_two_per_variate():
    n, reps = 1_000, 2
    report = run_benchmark(("uniform:5",), TARGET, n, reps, seed=0)
    ops = report.sources[0].ops
    assert ops.multiplications == n * reps
    assert ops.additions == n * reps
    assert ops.total_ops == 2 * n * reps
    assert ops.uniform_draws == n * reps
    assert ops.rejections == 0


def test_benchmark_error_regimes():
    report = run_benchmark(
        ("uniform:3", "uniform:50", "gaussian", "prva"), TARGET, 20_000, 2, seed=1
    )
    by_label = {s.source: s for s in report.sources}
    # +/-3 sigma truncation dominates; +/-50 sigma wastes samples on dead space
    assert 0.002 < by_label["uniform:3"].mean_error < 0.004
    assert by_label["uniform:50"].mean_error < 1e-4
    assert by_label["gaussian"].mean_error < 0.01
    assert by_label["prva"].mean_error < 0.05
    for s in report.sources:
        lo, hi = s.error_ci90
        assert lo <= s.mean_error <= hi


def test_benchmark_replay_from_stored_trace(tmp_path):
    grid = default_grid()
    adc = default_adc(grid, 10.0, 2.6)
    trace = generate_trace(SeededStream(21), grid, 10.0, 2.6, adc, 6_000)
    path = tmp_path / "capture.txt"
    store_trace(trace, path)
    report = run_benchmark((f"prva:{path}",), TARGET, 5_000, 2, seed=2, grid=grid)
    src = report.sources[0]
    assert src.kind == "prva"
    assert src.mean_error < 0.1
    # replaying the same file is deterministic
    again = run_benchmark((f"prva:{path}",), TARGET, 5_000, 2, seed=2, grid=grid)
    assert again.sources[0].mean_error == src.mean_error


def test_benchmark_replay_is_charged_only_for_delivered_codes(tmp_path):
    grid = default_grid()
    adc = default_adc(grid, 10.0, 2.6)
    n = 2_000
    trace = generate_trace(SeededStream(8), grid, 10.0, 2.6, adc, 3 * n)
    long_path, short_path = tmp_path / "long.txt", tmp_path / "short.txt"
    store_trace(trace, long_path)
    store_trace(replace(trace, codes=trace.codes[:n]), short_path)
    long_src, short_src = (
        run_benchmark((f"prva:{p}",), TARGET, n, 2, seed=3, grid=grid).sources[0]
        for p in (long_path, short_path)
    )
    assert long_src.ops == short_src.ops
    assert long_src.ops.uniform_draws == 2 * n
    assert long_src.mean_error == short_src.mean_error


def test_benchmark_replay_outside_grid_self_calibrates(tmp_path):
    from prva.sensor import SampleTrace

    grid = default_grid()
    adc = default_adc(grid, 10.0, 2.6)
    codes = generate_trace(SeededStream(5), grid, 10.0, 2.6, adc, 4_000).codes
    # re-label the capture conditions outside the calibrated envelope
    trace = SampleTrace(
        codes=codes,
        adc=adc,
        temperature_c=55.0,
        voltage_v=2.6,
        sample_rate_hz=1154.0,
        source="test",
    )
    path = tmp_path / "hot.txt"
    store_trace(trace, path)
    report = run_benchmark((f"prva:{path}",), TARGET, 4_000, 1, seed=0, grid=grid)
    assert report.sources[0].mean_error < 0.1


def test_benchmark_replay_needs_enough_codes(tmp_path):
    grid = default_grid()
    adc = default_adc(grid, 10.0, 2.6)
    trace = generate_trace(SeededStream(1), grid, 10.0, 2.6, adc, 100)
    path = tmp_path / "short.txt"
    store_trace(trace, path)
    with pytest.raises(ValueError, match="100"):
        run_benchmark((f"prva:{path}",), TARGET, 5_000, 1, grid=grid)


def test_benchmark_argument_validation():
    with pytest.raises(ValueError):
        run_benchmark(("gaussian",), TARGET, 1, 1)
    with pytest.raises(ValueError):
        run_benchmark(("gaussian",), TARGET, 100, 0)
    with pytest.raises(ValueError):
        run_benchmark(("gaussian",), TARGET, 100, 1, threads=0)
    with pytest.raises(ValueError):
        run_benchmark((), TARGET, 100, 1)
    with pytest.raises(ValueError, match="^unknown source 'sobol'$"):
        run_benchmark(("sobol",), TARGET, 100, 1)


def test_report_json_round_trip(tmp_path):
    report = run_benchmark(("uniform:4", "gaussian"), TARGET, 500, 2, seed=5)
    path = tmp_path / "report.json"
    report.write_json(path)
    loaded = json.loads(path.read_text())
    assert loaded["n"] == 500
    assert loaded["target"] == {"mean": 980.794, "sigma": 7.178}
    assert [s["source"] for s in loaded["sources"]] == ["uniform:4", "gaussian"]
    assert loaded["sources"][0]["mean_error"] == report.sources[0].mean_error


def test_report_csv_shape(tmp_path):
    report = run_benchmark(("uniform:4", "gaussian"), TARGET, 500, 2, seed=5)
    single = run_benchmark(("uniform:4",), TARGET, 500, 1, seed=5)
    p1, p2 = tmp_path / "r.csv", tmp_path / "s.csv"
    report.write_csv(p1)
    single.write_csv(p2)
    with p1.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "source" and len(rows) == 3
    assert float(rows[1][4]) == report.sources[0].mean_error
    with p2.open() as fh:
        srows = list(csv.reader(fh))
    assert srows[1][5] == "" and srows[1][6] == ""  # no CI from one repetition


def _hand_built_dict(report):
    """The report dictionary written out field by field, as json.dump sees it."""
    return {
        "target": {"mean": report.target.mean, "sigma": report.target.sigma},
        "n": report.n,
        "repetitions": report.repetitions,
        "threads": report.threads,
        "seed": report.seed,
        "sources": [
            {
                "source": s.source,
                "kind": s.kind,
                "n": s.n,
                "repetitions": s.repetitions,
                "mean_error": s.mean_error,
                "error_ci90": list(s.error_ci90) if s.error_ci90 else None,
                "mean_time_s": s.mean_time_s,
                "time_ci90": list(s.time_ci90) if s.time_ci90 else None,
                "ops": s.ops.as_dict(),
            }
            for s in report.sources
        ],
    }


def _hand_built_csv(report, path):
    """The report's CSV written cell by cell, floats as repr and absent CIs empty."""
    ops = (
        "multiplications",
        "additions",
        "divisions",
        "comparisons",
        "transcendental_evals",
        "uniform_draws",
        "rejections",
    )
    header = (
        "source", "kind", "n", "repetitions", "mean_error", "error_ci_lo",
        "error_ci_hi", "mean_time_s", "time_ci_lo", "time_ci_hi", *ops,
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for s in report.sources:
            e_lo, e_hi = s.error_ci90 if s.error_ci90 else (None, None)
            t_lo, t_hi = s.time_ci90 if s.time_ci90 else (None, None)
            counts = s.ops.as_dict()
            writer.writerow(
                [
                    s.source,
                    s.kind,
                    s.n,
                    s.repetitions,
                    repr(s.mean_error),
                    "" if e_lo is None else repr(e_lo),
                    "" if e_hi is None else repr(e_hi),
                    repr(s.mean_time_s),
                    "" if t_lo is None else repr(t_lo),
                    "" if t_hi is None else repr(t_hi),
                    *[counts[k] for k in ops],
                ]
            )


@pytest.mark.parametrize("repetitions", [1, 3])
def test_report_files_match_hand_built_serialization(tmp_path, repetitions):
    # one repetition leaves every CI empty; several fill them
    sources = ("uniform:4", "gaussian", "prva")
    report = run_benchmark(sources, TARGET, 2_000, repetitions, seed=5, threads=2)
    report.write_json(tmp_path / "r.json")
    expect = json.dumps(_hand_built_dict(report), indent=2) + "\n"
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == expect
    report.write_csv(tmp_path / "r.csv")
    _hand_built_csv(report, tmp_path / "expect.csv")
    assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "expect.csv").read_bytes()


def test_summary_lines_have_no_wall_clock():
    report = run_benchmark(("uniform:4",), TARGET, 500, 2, seed=5)
    lines = report.summary_lines()
    assert len(lines) == 1
    assert "uniform:4" in lines[0] and "mean_error" in lines[0]
    assert "time" not in lines[0]
    assert repr(report.sources[0].mean_error) in lines[0]
