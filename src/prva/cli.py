"""Command-line front end.

Subcommands map one-to-one onto the library's workflows:

* ``generate``  — simulate an acquisition and write a trace file
* ``kl``        — sensor-native KL score of a trace or a synthetic batch
* ``sweep``     — mean KL as a function of histogram resolution
* ``transform`` — compensate a trace and retarget it to a requested Gaussian
* ``benchmark`` — Monte Carlo integration benchmark across variate sources

Every run is fully determined by its :class:`RunConfig` (command, seed,
options): two runs with the same config produce byte-identical artifacts
and stdout, except for wall-clock fields inside benchmark report files,
which are measurements. Usage errors exit with status 2 (argparse),
runtime failures print ``error: ...`` to stderr and exit 1, success is 0.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import GaussianSpec, UniformSpec
from .samplers import SeededStream, derive_seed, inversion_sample, reference_gaussian_sample
from .sensor import (
    default_adc,
    default_grid,
    generate_trace,
    load_calibration,
    load_trace,
    store_trace,
)
from .stats import (
    confidence_interval_90,
    fit_gaussian,
    histogram,
    kl_divergence,
    quantization_sweep,
    unit_code_kl,
)
from .transform import VariateCache, compensate, fill_cache, make_coeffs
from .montecarlo import run_benchmark


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run depends on; equal configs give equal output."""

    command: str
    seed: int
    options: dict

    @classmethod
    def from_namespace(cls, ns: argparse.Namespace) -> "RunConfig":
        options = {k: v for k, v in vars(ns).items() if k not in ("command", "seed")}
        return cls(command=ns.command, seed=ns.seed, options=options)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _seed_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be a 64-bit unsigned integer")
    return value


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_seed_int, default=0, help="master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prva",
        description="Programmable random variate generation from a modeled "
        "sensor noise source.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate an acquisition, write a trace file")
    p.add_argument("--temp", type=float, default=10.0, help="die temperature, C")
    p.add_argument("--volt", type=float, default=2.6, help="supply voltage, V")
    p.add_argument("--n", type=_positive_int, required=True, help="number of codes")
    p.add_argument("--out", required=True, help="trace file to write")
    p.add_argument("--grid", default=None, help="calibration CSV (default: synthetic)")
    p.add_argument("--bits", type=_positive_int, default=12, help="ADC resolution")
    p.add_argument("--span-sigmas", type=float, default=4.0, help="ADC half-range")
    p.add_argument("--sample-rate", type=float, default=1154.0, help="Hz, metadata")
    p.add_argument("--label", default="synthetic", help="source field of the header")
    _add_seed(p)

    p = sub.add_parser("kl", help="sensor-native KL score")
    p.add_argument("--trace", default=None, help="score this trace file")
    p.add_argument(
        "--source",
        choices=("uniform", "gaussian"),
        default="uniform",
        help="synthetic batch family (ignored with --trace)",
    )
    p.add_argument("--mean", type=float, default=980.794, help="synthetic mean")
    p.add_argument("--sigma", type=float, default=7.178, help="synthetic sigma")
    p.add_argument(
        "--half-width",
        type=float,
        default=3.0,
        help="uniform half-width in sigmas",
    )
    p.add_argument("--n", type=_positive_int, default=100_000)
    p.add_argument("--repetitions", type=_positive_int, default=10)
    _add_seed(p)

    p = sub.add_parser("sweep", help="mean KL vs histogram resolution")
    p.add_argument("--mean", type=float, default=980.794)
    p.add_argument("--sigma", type=float, default=7.178)
    p.add_argument("--n", type=_positive_int, default=100_000)
    p.add_argument("--bins", default="16,64,256,1024,4096", help="comma list")
    p.add_argument("--repetitions", type=_positive_int, default=20)
    p.add_argument("--out", default=None, help="also write rows to this CSV")
    _add_seed(p)

    p = sub.add_parser("transform", help="compensate a trace, retarget, drain cache")
    p.add_argument("--trace", default=None, help="trace to transform (default: synthesize)")
    p.add_argument("--temp", type=float, default=10.0)
    p.add_argument("--volt", type=float, default=2.6)
    p.add_argument("--n", type=_positive_int, default=100_000)
    p.add_argument("--bits", type=_positive_int, default=12)
    p.add_argument("--span-sigmas", type=float, default=4.0)
    p.add_argument("--target-mean", type=float, required=True)
    p.add_argument("--target-sigma", type=float, required=True)
    p.add_argument("--grid", default=None, help="calibration CSV (default: synthetic)")
    p.add_argument(
        "--self-calibrate",
        action="store_true",
        help="fit source parameters from the trace instead of the grid",
    )
    p.add_argument("--cache-capacity", type=_positive_int, default=65_536)
    p.add_argument("--out", default=None, help="write variates here, one per line")
    _add_seed(p)

    p = sub.add_parser("benchmark", help="Monte Carlo integration benchmark")
    p.add_argument(
        "--sources",
        default="uniform:3,uniform:1000,gaussian,prva",
        help="comma list: uniform:<k>, gaussian, prva, prva:<trace>",
    )
    p.add_argument("--target-mean", type=float, default=0.0)
    p.add_argument("--target-sigma", type=float, default=1.0)
    p.add_argument("--n", type=_positive_int, default=100_000)
    p.add_argument("--repetitions", type=_positive_int, default=10)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--temp", type=float, default=10.0)
    p.add_argument("--volt", type=float, default=2.6)
    p.add_argument("--grid", default=None, help="calibration CSV (default: synthetic)")
    p.add_argument("--json", default=None, help="write the full report here")
    p.add_argument("--csv", default=None, help="write per-source rows here")
    _add_seed(p)

    return parser


def cmd_generate(config: RunConfig) -> int:
    o = config.options
    grid = load_calibration(o["grid"]) if o["grid"] else default_grid()
    adc = default_adc(
        grid, o["temp"], o["volt"], bits=o["bits"], span_sigmas=o["span_sigmas"]
    )
    stream = SeededStream(config.seed)
    trace = generate_trace(
        stream,
        grid,
        o["temp"],
        o["volt"],
        adc,
        o["n"],
        sample_rate_hz=o["sample_rate"],
        source=o["label"],
    )
    store_trace(trace, o["out"])
    print(
        f"wrote {o['out']}: {len(trace)} codes, bins={adc.bin_count}, "
        f"range=[{adc.range_lo!r}, {adc.range_hi!r}], "
        f"temperature_c={float(o['temp'])!r}, voltage_v={float(o['volt'])!r}"
    )
    return 0


def cmd_kl(config: RunConfig) -> int:
    o = config.options
    if o["trace"]:
        trace = load_trace(o["trace"])
        # score in sensor units (dequantized bin centers), where one unit
        # is the native code width; raw ADC codes would be far finer-grained
        # than that and the histogram would drown in per-bin noise
        fit, kl = unit_code_kl(trace.adc.value(trace.codes))
        print(f"mode=trace file={o['trace']}")
        print(f"n={len(trace)}")
        print(f"kl_nats={kl!r}")
        print(f"fit_mean={fit.mean!r}")
        print(f"fit_sigma={fit.sigma!r}")
        return 0
    spec_mean, spec_sigma = o["mean"], o["sigma"]
    reps = o["repetitions"]
    kls = np.empty(reps)
    fit_means = np.empty(reps)
    fit_sigmas = np.empty(reps)
    for rep in range(reps):
        stream = SeededStream(derive_seed(config.seed, rep))
        if o["source"] == "uniform":
            h = o["half_width"] * spec_sigma
            x = inversion_sample(
                stream, UniformSpec(spec_mean - h, spec_mean + h), o["n"]
            )
        else:
            x = reference_gaussian_sample(
                stream, GaussianSpec(spec_mean, spec_sigma), o["n"]
            )
        fit, kl = unit_code_kl(x)
        kls[rep], fit_means[rep], fit_sigmas[rep] = kl, fit.mean, fit.sigma
    print(f"mode={o['source']} half_width_sigmas={o['half_width']!r}")
    print(f"n={o['n']} repetitions={reps}")
    print(f"kl_mean={float(kls.mean())!r}")
    if reps > 1:
        lo, hi = confidence_interval_90(kls)
        print(f"kl_ci90=[{lo!r}, {hi!r}]")
    print(f"fit_mean={float(fit_means.mean())!r}")
    print(f"fit_sigma={float(fit_sigmas.mean())!r}")
    return 0


def cmd_sweep(config: RunConfig) -> int:
    o = config.options
    bin_counts = [int(b) for b in o["bins"].split(",") if b.strip()]
    if not bin_counts:
        raise ValueError("no bin counts given")
    rows = quantization_sweep(
        GaussianSpec(o["mean"], o["sigma"]),
        o["n"],
        bin_counts,
        o["repetitions"],
        seed=config.seed,
    )
    lines = ["bins,mean_kl"] + [f"{b},{kl!r}" for b, kl in rows]
    for line in lines:
        print(line)
    if o["out"]:
        with open(o["out"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def cmd_transform(config: RunConfig) -> int:
    o = config.options
    grid = load_calibration(o["grid"]) if o["grid"] else default_grid()
    stream = SeededStream(config.seed)
    if o["trace"]:
        trace = load_trace(o["trace"])
    else:
        adc = default_adc(
            grid, o["temp"], o["volt"], bits=o["bits"], span_sigmas=o["span_sigmas"]
        )
        trace = generate_trace(stream, grid, o["temp"], o["volt"], adc, o["n"])
    values = compensate(
        trace, grid, stream=stream, self_calibrate=o["self_calibrate"]
    )
    target = GaussianSpec(o["target_mean"], o["target_sigma"])
    coeffs = make_coeffs(GaussianSpec(0.0, 1.0), target)
    cache = VariateCache(min(o["cache_capacity"], values.size), target)
    fill_cache(cache, values, coeffs, counter=stream.counter, background=True)
    out = cache.get_many(values.size)
    fit = fit_gaussian(out)
    hist = histogram(
        out, 256, (target.mean - 4 * target.sigma, target.mean + 4 * target.sigma)
    )
    kl = kl_divergence(hist, target)
    print(f"n={out.size}")
    print(f"coeffs scale={coeffs.scale!r} offset={coeffs.offset!r}")
    print(f"fit_mean={fit.mean!r}")
    print(f"fit_sigma={fit.sigma!r}")
    print(f"kl_nats={kl!r}")
    # high_water is left out: it depends on thread scheduling
    s = cache.stats()
    print(
        f"cache capacity={s['capacity']} "
        f"produced={s['total_produced']} consumed={s['total_consumed']}"
    )
    if o["out"]:
        with open(o["out"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(repr(float(v)) for v in out) + "\n")
    return 0


def cmd_benchmark(config: RunConfig) -> int:
    o = config.options
    sources = [s.strip() for s in o["sources"].split(",") if s.strip()]
    grid = load_calibration(o["grid"]) if o["grid"] else default_grid()
    report = run_benchmark(
        sources,
        GaussianSpec(o["target_mean"], o["target_sigma"]),
        o["n"],
        o["repetitions"],
        threads=o["threads"],
        seed=config.seed,
        grid=grid,
        temperature=o["temp"],
        voltage=o["volt"],
    )
    for line in report.summary_lines():
        print(line)
    if o["json"]:
        report.write_json(o["json"])
    if o["csv"]:
        report.write_csv(o["csv"])
    return 0


_HANDLERS = {
    "generate": cmd_generate,
    "kl": cmd_kl,
    "sweep": cmd_sweep,
    "transform": cmd_transform,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    config = RunConfig.from_namespace(ns)
    try:
        return _HANDLERS[config.command](config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
