"""Command-line front end.

Subcommands map one-to-one onto the library's workflows:

* ``generate``  — simulate an acquisition and write a trace file
* ``kl``        — sensor-native KL score of a trace or a synthetic batch
* ``sweep``     — mean KL as a function of histogram resolution
* ``transform`` — compensate a trace and retarget it to a requested Gaussian
* ``benchmark`` — Monte Carlo integration benchmark across variate sources

Every run is fully determined by its command, seed and options: two runs
with the same arguments produce byte-identical artifacts and stdout,
except for wall-clock fields inside benchmark report files, which are
measurements. Usage errors exit with status 2 (argparse), runtime
failures print ``error: ...`` to stderr and exit 1, success is 0.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .distributions import GaussianSpec, UniformSpec
from .samplers import SeededStream, derive_seed, inversion_sample, reference_gaussian_sample
from .sensor import (
    DEFAULT_SAMPLE_RATE_HZ,
    default_adc,
    default_grid,
    generate_trace,
    load_calibration,
    load_trace,
    store_trace,
    _write_lines,
)
from .stats import (
    confidence_interval_90,
    fit_gaussian,
    histogram,
    kl_divergence,
    quantization_sweep,
    unit_code_kl,
)
from .transform import VariateCache, compensate, fill_cache
from .montecarlo import run_benchmark

# room in the FIFO between the transform's producer and its drain
_CACHE_CAPACITY = 65_536


def _int_in(lo: int, hi: float, message: str):
    """argparse type: an integer in [lo, hi), refused with ``message`` outside it."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if not lo <= value < hi:
            raise argparse.ArgumentTypeError(message)
        return value

    return parse


_positive_int = _int_in(1, float("inf"), "must be a positive integer")
_seed_int = _int_in(0, 2**64, "seed must be a 64-bit unsigned integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prva",
        description="Programmable random variate generation from a modeled "
        "sensor noise source.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # parent parsers for the options several subcommands share
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_seed_int, default=0, help="master seed")
    site = argparse.ArgumentParser(add_help=False)
    site.add_argument("--temp", type=float, default=10.0, help="die temperature, C")
    site.add_argument("--volt", type=float, default=2.6, help="supply voltage, V")
    site.add_argument("--grid", help="calibration CSV (default: synthetic)")
    adc = argparse.ArgumentParser(add_help=False)
    adc.add_argument("--bits", type=_positive_int, default=12, help="ADC resolution")
    adc.add_argument("--span-sigmas", type=float, default=4.0, help="ADC half-range")
    gaussian = argparse.ArgumentParser(add_help=False)
    gaussian.add_argument("--mean", type=float, default=980.794, help="synthetic mean")
    gaussian.add_argument("--sigma", type=float, default=7.178, help="synthetic sigma")

    p = sub.add_parser(
        "generate",
        parents=[seed, site, adc],
        help="simulate an acquisition, write a trace file",
    )
    p.add_argument("--n", type=_positive_int, required=True, help="number of codes")
    p.add_argument("--out", required=True, help="trace file to write")
    p.add_argument(
        "--sample-rate", type=float, default=DEFAULT_SAMPLE_RATE_HZ, help="Hz, metadata"
    )
    p.add_argument("--label", default="synthetic", help="source field of the header")

    p = sub.add_parser("kl", parents=[seed, gaussian], help="sensor-native KL score")
    p.add_argument("--trace", default=None, help="score this trace file")
    p.add_argument(
        "--source",
        choices=("uniform", "gaussian"),
        default="uniform",
        help="synthetic batch family (ignored with --trace)",
    )
    p.add_argument(
        "--half-width",
        type=float,
        default=3.0,
        help="uniform half-width in sigmas",
    )
    p.add_argument("--n", type=_positive_int, default=100_000)
    p.add_argument("--repetitions", type=_positive_int, default=10)

    p = sub.add_parser(
        "sweep", parents=[seed, gaussian], help="mean KL vs histogram resolution"
    )
    p.add_argument("--n", type=_positive_int, default=100_000)
    p.add_argument("--bins", default="16,64,256,1024,4096", help="comma list")
    p.add_argument("--repetitions", type=_positive_int, default=20)
    p.add_argument("--out", default=None, help="also write rows to this CSV")

    p = sub.add_parser(
        "transform",
        parents=[seed, site, adc],
        help="compensate a trace, retarget, drain cache",
    )
    p.add_argument("--trace", default=None, help="trace to transform (default: synthesize)")
    p.add_argument("--n", type=_positive_int, default=100_000)
    p.add_argument("--target-mean", type=float, required=True)
    p.add_argument("--target-sigma", type=float, required=True)
    p.add_argument(
        "--self-calibrate",
        action="store_true",
        help="fit source parameters from the trace instead of the grid",
    )
    p.add_argument("--out", default=None, help="write variates here, one per line")

    p = sub.add_parser(
        "benchmark", parents=[seed, site], help="Monte Carlo integration benchmark"
    )
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
    p.add_argument("--json", default=None, help="write the full report here")
    p.add_argument("--csv", default=None, help="write per-source rows here")

    return parser


def _grid(args: argparse.Namespace):
    """The calibration grid of ``--grid``, or the synthetic default."""
    return load_calibration(args.grid) if args.grid else default_grid()


def _synthesize(args: argparse.Namespace, grid, stream: SeededStream, **metadata):
    """A trace of ``--n`` codes at ``--temp``/``--volt`` through the ``--bits`` ADC."""
    adc = default_adc(
        grid, args.temp, args.volt, bits=args.bits, span_sigmas=args.span_sigmas
    )
    return generate_trace(stream, grid, args.temp, args.volt, adc, args.n, **metadata)


def cmd_generate(args: argparse.Namespace) -> int:
    trace = _synthesize(
        args,
        _grid(args),
        SeededStream(args.seed),
        sample_rate_hz=args.sample_rate,
        source=args.label,
    )
    store_trace(trace, args.out)
    print(
        f"wrote {args.out}: {len(trace)} codes, bins={trace.adc.bin_count}, "
        f"range=[{trace.adc.range_lo!r}, {trace.adc.range_hi!r}], "
        f"temperature_c={float(args.temp)!r}, voltage_v={float(args.volt)!r}"
    )
    return 0


def cmd_kl(args: argparse.Namespace) -> int:
    if args.trace:
        trace = load_trace(args.trace)
        # score the codes' bin centers in sensor units, binned one unit
        # wide: about 67.5 codes a bin at the default ADC, where a bin per
        # code would drown the histogram in per-bin noise
        fit, kl = unit_code_kl(trace.adc.value(trace.codes))
        print(f"mode=trace file={args.trace}")
        print(f"n={len(trace)}")
        print(f"kl_nats={kl!r}")
        print(f"fit_mean={fit.mean!r}")
        print(f"fit_sigma={fit.sigma!r}")
        return 0
    spec = GaussianSpec(args.mean, args.sigma)
    reps = args.repetitions
    kls = np.empty(reps)
    fit_means = np.empty(reps)
    fit_sigmas = np.empty(reps)
    for rep in range(reps):
        stream = SeededStream(derive_seed(args.seed, rep))
        if args.source == "uniform":
            h = args.half_width * spec.sigma
            x = inversion_sample(
                stream, UniformSpec(spec.mean - h, spec.mean + h), args.n
            )
        else:
            x = reference_gaussian_sample(stream, spec, args.n)
        fit, kl = unit_code_kl(x)
        kls[rep], fit_means[rep], fit_sigmas[rep] = kl, fit.mean, fit.sigma
    print(f"mode={args.source} half_width_sigmas={args.half_width!r}")
    print(f"n={args.n} repetitions={reps}")
    print(f"kl_mean={float(kls.mean())!r}")
    if reps > 1:
        lo, hi = confidence_interval_90(kls)
        print(f"kl_ci90=[{lo!r}, {hi!r}]")
    print(f"fit_mean={float(fit_means.mean())!r}")
    print(f"fit_sigma={float(fit_sigmas.mean())!r}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    bin_counts = [int(b) for b in args.bins.split(",") if b.strip()]
    if not bin_counts:
        raise ValueError("no bin counts given")
    rows = quantization_sweep(
        GaussianSpec(args.mean, args.sigma),
        args.n,
        bin_counts,
        args.repetitions,
        seed=args.seed,
    )
    lines = ["bins,mean_kl"] + [f"{b},{kl!r}" for b, kl in rows]
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    grid = _grid(args)
    stream = SeededStream(args.seed)
    trace = load_trace(args.trace) if args.trace else _synthesize(args, grid, stream)
    values = compensate(trace, None if args.self_calibrate else grid, stream=stream)
    target = GaussianSpec(args.target_mean, args.target_sigma)
    cache = VariateCache(min(_CACHE_CAPACITY, values.size), target)
    fill_cache(cache, values, target, counter=stream.counter, background=True)
    out = cache.get_many(values.size)
    fit = fit_gaussian(out)
    hist = histogram(
        out, 256, (target.mean - 4 * target.sigma, target.mean + 4 * target.sigma)
    )
    kl = kl_divergence(hist, target)
    print(f"n={out.size}")
    print(f"coeffs scale={target.sigma!r} offset={target.mean!r}")
    print(f"fit_mean={fit.mean!r}")
    print(f"fit_sigma={fit.sigma!r}")
    print(f"kl_nats={kl!r}")
    # high_water is left out: it depends on thread scheduling
    print(
        f"cache capacity={cache.capacity} "
        f"produced={cache.total_produced} consumed={cache.total_consumed}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_lines(fh, out)
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    sources = [s.strip() for s in args.sources.split(",") if s.strip()]
    grid = _grid(args)
    report = run_benchmark(
        sources,
        GaussianSpec(args.target_mean, args.target_sigma),
        args.n,
        args.repetitions,
        threads=args.threads,
        seed=args.seed,
        grid=grid,
        temperature=args.temp,
        voltage=args.volt,
    )
    for line in report.summary_lines():
        print(line)
    if args.json:
        report.write_json(args.json)
    if args.csv:
        report.write_csv(args.csv)
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
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
