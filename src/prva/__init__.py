"""Programmable random variate generation from a modeled sensor noise source.

The pipeline this package implements: a noisy sensor channel is read
through an ADC (:mod:`prva.sensor`), the quantized stream is
standardized against a calibration grid and retargeted to any requested
Gaussian at two arithmetic operations per variate (:mod:`prva.transform`),
and the result competes against classical software generators
(:mod:`prva.samplers`) on distribution quality (:mod:`prva.stats`) and a
Monte Carlo integration workload (:mod:`prva.montecarlo`).
"""

__version__ = "0.1.0"

from .distributions import GaussianSpec, UniformSpec, gaussian_cdf, gaussian_pdf
from .samplers import (
    OpCounter,
    SeededStream,
    derive_seed,
    inversion_sample,
    merge_counters,
    reference_gaussian_sample,
)
from .sensor import (
    AdcModel,
    CalibrationGrid,
    SampleTrace,
    default_adc,
    default_grid,
    dequantize_with_jitter,
    generate_trace,
    load_calibration,
    load_trace,
    store_calibration,
    store_trace,
)
from .stats import (
    FitResult,
    Histogram,
    confidence_interval_90,
    fit_gaussian,
    fit_gaussian_binned,
    histogram,
    kl_divergence,
    quantization_sweep,
    unit_code_binning,
    unit_code_kl,
)
from .transform import (
    CacheClosed,
    VariateCache,
    apply,
    compensate,
    fill_cache,
    make_coeffs,
)
from .montecarlo import (
    BenchmarkReport,
    IntegrationResult,
    mc_integrate,
    parse_source,
    run_benchmark,
)

__all__ = [
    "AdcModel",
    "BenchmarkReport",
    "CacheClosed",
    "CalibrationGrid",
    "FitResult",
    "GaussianSpec",
    "Histogram",
    "IntegrationResult",
    "OpCounter",
    "SampleTrace",
    "SeededStream",
    "UniformSpec",
    "VariateCache",
    "apply",
    "compensate",
    "confidence_interval_90",
    "default_adc",
    "default_grid",
    "dequantize_with_jitter",
    "derive_seed",
    "fill_cache",
    "fit_gaussian",
    "fit_gaussian_binned",
    "gaussian_cdf",
    "gaussian_pdf",
    "generate_trace",
    "histogram",
    "inversion_sample",
    "kl_divergence",
    "load_calibration",
    "load_trace",
    "make_coeffs",
    "mc_integrate",
    "merge_counters",
    "parse_source",
    "quantization_sweep",
    "reference_gaussian_sample",
    "run_benchmark",
    "store_calibration",
    "store_trace",
    "unit_code_binning",
    "unit_code_kl",
]
