import dataclasses
import json
import time
import tracemalloc

import numpy as np
import pytest

from prva import cli, transform
from prva.cli import build_parser, main
from prva.distributions import GaussianSpec
from prva.samplers import SeededStream
from prva.sensor import (
    AdcModel,
    SampleTrace,
    default_adc,
    default_grid,
    generate_trace,
    load_trace,
    store_trace,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_identical_files_for_same_seed(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["generate", "--temp", "10", "--volt", "2.6", "--n", "500", "--seed", "42"]
    code1, out1, _ = run_cli(capsys, *args, "--out", str(a))
    code2, out2, _ = run_cli(capsys, *args, "--out", str(b))
    assert code1 == 0 and code2 == 0
    assert a.read_bytes() == b.read_bytes()
    assert "500 codes" in out1
    assert "temperature_c=10.0" in out1
    trace = load_trace(a)
    assert len(trace) == 500
    assert trace.voltage_v == 2.6


def test_generate_rejects_nonpositive_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "0", "--out", "x.txt"])
    assert exc.value.code == 2


def test_generate_rejects_overlong_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "10", "--out", "x.txt", "--seed", str(2**64)])
    assert exc.value.code == 2


def test_generate_rejects_bits_beyond_float64_codes(capsys, tmp_path):
    out = tmp_path / "t.txt"
    code, _, err = run_cli(capsys, "generate", "--n", "10", "--bits", "64", "--out", str(out))
    assert code == 1
    assert "bin_count 18446744073709551616" in err
    assert not out.exists()


def test_kl_trace_mode(capsys, tmp_path):
    gen = tmp_path / "trace.txt"
    code, _, _ = run_cli(
        capsys, "generate", "--n", "50000", "--out", str(gen), "--seed", "7"
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "kl", "--trace", str(gen))
    assert code == 0
    fields = dict(
        line.split("=", 1) for line in out.splitlines() if "=" in line
    )
    assert fields["n"] == "50000"
    assert float(fields["kl_nats"]) < 0.01  # quantized gaussian scores low
    assert 975.0 < float(fields["fit_mean"]) < 986.0


def test_kl_trace_constant_codes_fails_cleanly(capsys, tmp_path):
    adc = AdcModel(255, 90.0, 110.0)
    trace = SampleTrace(
        codes=np.full(100, 42, dtype=np.int64),
        adc=adc,
        temperature_c=10.0,
        voltage_v=2.6,
        sample_rate_hz=1154.0,
        source="flat",
    )
    path = tmp_path / "flat.txt"
    store_trace(trace, path)
    code, out, err = run_cli(capsys, "kl", "--trace", str(path))
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_kl_uniform_mode_lands_in_band(capsys):
    code, out, _ = run_cli(
        capsys, "kl", "--source", "uniform", "--n", "100000", "--repetitions", "5"
    )
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    assert 0.085 < float(fields["kl_mean"]) < 0.094
    assert "kl_ci90" in fields


def test_kl_uniform_too_wide_for_unit_bins_fails_cleanly(capsys):
    # +/-1e9 sigma over unit-width bins would need about 1.4e10 of them
    code, out, err = run_cli(
        capsys, "kl", "--source", "uniform", "--half-width", "1e9", "--n", "1000"
    )
    assert code == 1
    assert err.startswith("error:") and "bins" in err
    assert out == ""


def test_kl_stdout_is_deterministic(capsys):
    args = ["kl", "--source", "gaussian", "--n", "20000", "--repetitions", "3",
            "--seed", "9"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_sweep_prints_rows_and_writes_file(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep", "--bins", "16,256", "--n", "20000", "--repetitions", "3",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bins,mean_kl"
    assert len(lines) == 3
    b16 = float(lines[1].split(",")[1])
    b256 = float(lines[2].split(",")[1])
    assert b16 < b256  # finer bins expose more sampling noise
    assert out_file.read_text().splitlines() == lines


def test_sweep_with_more_bins_than_samples_or_a_block_fails_cleanly(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--n", "10", "--repetitions", "1", "--bins", "65537"
    )
    assert code == 1
    assert err.startswith("error:") and "65537 bins" in err
    assert out == ""


def test_transform_synthesizes_and_retargets(capsys, tmp_path):
    out_file = tmp_path / "variates.txt"
    code, out, _ = run_cli(
        capsys,
        "transform", "--n", "20000",
        "--target-mean", "5.0", "--target-sigma", "2.0",
        "--out", str(out_file), "--seed", "3",
    )
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    assert abs(float(fields["fit_mean"]) - 5.0) < 0.1
    values = [float(v) for v in out_file.read_text().split()]
    assert len(values) == 20000
    assert abs(np.mean(values) - 5.0) < 0.1
    assert "cache capacity=20000" in out


def test_transform_prints_the_target_as_its_coeffs(capsys):
    # from N(0, 1) the retarget map's scale and offset are the target's
    # sigma and mean, printed as their reprs
    code, out, _ = run_cli(
        capsys, "transform", "--n", "2000", "--target-mean", "5", "--target-sigma", "2"
    )
    assert code == 0
    assert out.splitlines()[1] == "coeffs scale=2.0 offset=5.0"


@pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1])
def test_transform_out_is_the_joined_text_across_blocks(capsys, tmp_path, n):
    out_file = tmp_path / "variates.txt"
    code, _, _ = run_cli(
        capsys,
        "transform", "--n", str(n), "--target-mean", "5", "--target-sigma", "2",
        "--out", str(out_file), "--seed", "7",
    )
    assert code == 0
    # the same pipeline without the cache's chunks, which move no value
    grid, stream = default_grid(), SeededStream(7)
    trace = generate_trace(stream, grid, 10.0, 2.6, default_adc(grid), n)
    values = transform.compensate(trace, grid, stream=stream)
    coeffs = transform.make_coeffs(GaussianSpec(0.0, 1.0), GaussianSpec(5.0, 2.0))
    want = transform.apply(coeffs, values)
    text = "\n".join(repr(float(v)) for v in want) + "\n"
    assert out_file.read_bytes() == text.encode()


def test_transform_out_memory_stays_bounded(capsys, tmp_path):
    # at 2**19 variates the whole --out text's floats and strs at once came
    # to a 56 MB peak; by 2**16-line blocks the run peaks near 17 MB
    argv = ["transform", "--n", str(2**19), "--target-mean", "5",
            "--target-sigma", "2", "--out", str(tmp_path / "v.txt")]
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 32 * 2**20


def test_transform_stdout_ignores_thread_scheduling(capsys, monkeypatch):
    argv = ("transform", "--n", "20000", "--target-mean", "5", "--target-sigma", "2")
    real_apply, real_fill = transform.apply, cli.fill_cache

    def slow_apply(*args, **kwargs):
        time.sleep(0.01)  # the consumer drains each chunk as it lands
        return real_apply(*args, **kwargs)

    def fill_then_join(*args, **kwargs):
        worker = real_fill(*args, **kwargs)
        worker.join(timeout=30)  # the consumer starts only once the cache is full
        assert not worker.is_alive()
        return worker

    with monkeypatch.context() as m:
        m.setattr(transform, "apply", slow_apply)
        _, slow_producer, _ = run_cli(capsys, *argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "fill_cache", fill_then_join)
        _, slow_consumer, _ = run_cli(capsys, *argv)
    assert slow_producer == slow_consumer


def test_transform_cache_capacity_is_fixed(capsys):
    code, out, _ = run_cli(
        capsys, "transform", "--n", "70000", "--target-mean", "0", "--target-sigma", "1"
    )
    assert code == 0
    assert "cache capacity=65536 produced=70000 consumed=70000" in out
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--target-mean", "0", "--target-sigma", "1",
              "--cache-capacity", "5"])
    assert exc.value.code == 2


def test_transform_self_calibrate_needs_no_grid(capsys, tmp_path):
    # a trace captured outside the calibration grid standardizes only
    # against its own fit
    code, _, _ = run_cli(
        capsys, "generate", "--n", "20000", "--out", str(tmp_path / "t.txt")
    )
    assert code == 0
    hot = dataclasses.replace(load_trace(tmp_path / "t.txt"), temperature_c=55.0)
    store_trace(hot, tmp_path / "hot.txt")
    argv = ("transform", "--trace", str(tmp_path / "hot.txt"),
            "--target-mean", "5", "--target-sigma", "2")
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and "error:" in err
    code, out, _ = run_cli(capsys, *argv, "--self-calibrate")
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    assert abs(float(fields["fit_mean"]) - 5.0) < 1e-9
    assert abs(float(fields["fit_sigma"]) - 2.0) < 1e-9


def test_transform_requires_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--n", "100"])
    assert exc.value.code == 2


def test_transform_missing_trace_file_exits_one(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "transform", "--trace", str(tmp_path / "absent.txt"),
        "--target-mean", "0", "--target-sigma", "1",
    )
    assert code == 1
    assert err.startswith("error:")


def test_benchmark_stdout_json_csv(capsys, tmp_path):
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    args = [
        "benchmark", "--sources", "uniform:4,gaussian", "--n", "2000",
        "--repetitions", "2", "--seed", "5",
        "--json", str(jpath), "--csv", str(cpath),
    ]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    lines = out1.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("uniform:4: mean_error=")
    report = json.loads(jpath.read_text())
    assert report["n"] == 2000
    assert [s["source"] for s in report["sources"]] == ["uniform:4", "gaussian"]
    csv_lines = cpath.read_text().splitlines()
    assert csv_lines[0].startswith("source,kind,n,")
    assert len(csv_lines) == 3


def test_benchmark_unknown_source_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "benchmark", "--sources", "triangular", "--n", "100",
        "--repetitions", "1",
    )
    assert code == 1
    assert "triangular" in err


def test_benchmark_has_no_cache_capacity_option(capsys):
    # the prefilled FIFO is the only timing the benchmark offers
    with pytest.raises(SystemExit) as exc:
        main(["benchmark", "--cache-capacity", "5"])
    assert exc.value.code == 2


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2



SITE = dict(temp=10.0, volt=2.6, grid=None)
ADC = dict(bits=12, span_sigmas=4.0)
SYNTHETIC = dict(mean=980.794, sigma=7.178)
DEFAULTS = {
    "generate": (
        ["--n", "5", "--out", "t.txt"],
        dict(n=5, out="t.txt", sample_rate=1154.0, label="synthetic", **SITE, **ADC),
    ),
    "kl": (
        [],
        dict(
            trace=None,
            source="uniform",
            half_width=3.0,
            n=100_000,
            repetitions=10,
            **SYNTHETIC,
        ),
    ),
    "sweep": (
        [],
        dict(n=100_000, bins="16,64,256,1024,4096", repetitions=20, out=None, **SYNTHETIC),
    ),
    "transform": (
        ["--target-mean", "5", "--target-sigma", "2"],
        dict(
            trace=None,
            n=100_000,
            target_mean=5.0,
            target_sigma=2.0,
            self_calibrate=False,
            out=None,
            **SITE,
            **ADC,
        ),
    ),
    "benchmark": (
        [],
        dict(
            sources="uniform:3,uniform:1000,gaussian,prva",
            target_mean=0.0,
            target_sigma=1.0,
            n=100_000,
            repetitions=10,
            threads=1,
            json=None,
            csv=None,
            **SITE,
        ),
    ),
}


@pytest.mark.parametrize("command", DEFAULTS)
def test_subcommand_defaults_and_types(command):
    # every option each subcommand parses, with its default, given only
    # the required ones
    required, want = DEFAULTS[command]
    got = vars(build_parser().parse_args([command, *required]))
    want = dict(command=command, seed=0, **want)
    assert got == want
    # 10 and 10.0 compare equal, so the types are pinned apart
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}
