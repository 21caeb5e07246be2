"""Simulated noise-sensor front end: ADC, calibration grid, trace files.

The physical source being modeled is a noisy analog channel read through
an ADC: raw noise is Gaussian with slowly drifting parameters, and what
software ever sees is the stream of quantized integer codes plus the
operating point (die temperature, supply voltage) it was captured at.
This module simulates that acquisition, maps operating points to noise
parameters through a calibration grid, and round-trips captured traces
and calibration tables through plain text files.

Trace file format
-----------------
A trace file is a key=value header, one blank line, then one decimal
code per line::

    bins=4096
    range_lo=951.2
    range_hi=1010.3
    temperature_c=10.0
    voltage_v=2.6
    sample_rate_hz=1154.0
    source=synthetic

    2048
    2051
    ...

All seven header fields are required, none may repeat, and every code
must lie in ``[0, bins)``. Calibration tables are CSV with the exact
header ``temperature_c,voltage_v,mean,sigma`` and one row per grid cell.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import GaussianSpec, UniformSpec
from .samplers import (
    SeededStream,
    affine,
    inversion_sample,
    reference_gaussian_sample,
    split,
)

DEFAULT_SAMPLE_RATE_HZ = 1154.0

_TRACE_FIELDS = (
    "bins",
    "range_lo",
    "range_hi",
    "temperature_c",
    "voltage_v",
    "sample_rate_hz",
    "source",
)

_CALIBRATION_HEADER = ("temperature_c", "voltage_v", "mean", "sigma")

# every character str.splitlines breaks a line at. load_trace ends lines
# only at \n and \r, but a header value holding any of these would split its
# line for a reader of the file that uses str.splitlines
_LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _lerp(a: float, b: float, w: float) -> float:
    """Blend a -> b by weight w.

    The a + w*(b-a) form is exact at w = 0 and exact whenever the
    endpoints coincide, so grid nodes reproduce their cell values bit
    for bit and a constant grid interpolates to the constant.
    """
    return a + w * (b - a)


def _locate(axis, x: float):
    """Bracketing node indices and weight along one grid axis.

    Returns (lower, upper, weight). Points that coincide with an axis
    node get weight 0 in the cell to their right — except the topmost
    node, which has no right cell and is reported as (last, last, 0.0).
    Either way every node evaluation is exact. ``x`` must lie within the
    axis, which :meth:`CalibrationGrid.noise_params` checks first.
    """
    last = len(axis) - 1
    if x == axis[-1]:
        return last, last, 0.0
    i = int(np.searchsorted(axis, x, side="right")) - 1
    return i, i + 1, (x - axis[i]) / (axis[i + 1] - axis[i])


class GridRangeError(ValueError):
    """Raised when an operating point falls outside the calibration grid."""


@dataclass(frozen=True)
class AdcModel:
    """Uniform quantizer: ``bin_count`` equal bins spanning [range_lo, range_hi].

    Quantization floors into bins and saturates: inputs at or beyond the
    range edges land in the first or last bin rather than erroring, the
    way a real converter clips. Codes come out in ``code_dtype``, the
    smallest unsigned dtype that holds ``bin_count - 1``. ``value`` maps
    codes of any integer dtype back to bin centers.
    """

    bin_count: int
    range_lo: float
    range_hi: float

    def __post_init__(self):
        count = self.bin_count
        # NaN and inf fail the range test before int() can raise on them
        if not (2 <= count < math.inf and int(count) == count):
            raise ValueError(f"bin_count must be an integer >= 2, got {count}")
        # codes pass through float64 in quantize, value and
        # dequantize_with_jitter; above 2**53 they stop being exact there
        if count > 2**53:
            raise ValueError(
                f"bin_count {count} exceeds 2**53, the largest count "
                f"whose codes are exact in float64"
            )
        # an integral float count would make code_dtype a float dtype
        object.__setattr__(self, "bin_count", int(count))
        if not (math.isfinite(self.range_lo) and math.isfinite(self.range_hi)):
            raise ValueError("ADC range bounds must be finite")
        if not self.range_lo < self.range_hi:
            raise ValueError(
                f"ADC range requires range_lo < range_hi, got "
                f"[{self.range_lo}, {self.range_hi}]"
            )
        # a width that overflows to inf or underflows to 0 makes the bin
        # index of some inputs inf/inf or 0/0, a NaN that no clip saturates
        width = self.width
        if not (math.isfinite(width) and width > 0.0):
            raise ValueError(
                f"ADC range [{self.range_lo}, {self.range_hi}] over {self.bin_count} "
                f"bins gives bin width {width}; it must be finite and positive"
            )

    @property
    def width(self) -> float:
        """Width of one code bin."""
        return (self.range_hi - self.range_lo) / self.bin_count

    @property
    def code_dtype(self) -> np.dtype:
        """Smallest unsigned dtype that holds every code: uint16 for 4,096 bins."""
        return np.min_scalar_type(self.bin_count - 1)

    def quantize(self, values):
        """Map values to codes of their shape in ``code_dtype``, saturating out-of-range ones.

        The rows are :func:`~prva.samplers.split` between the caller and the
        helper thread; each code depends on its own value alone, so the
        codes are those of one pass.
        """
        x = np.asarray(values, dtype=float)
        codes = np.empty(x.shape, self.code_dtype)
        # a 0-d input as one row, viewed, so the halves write into ``codes``
        rows_x, rows_codes = np.atleast_1d(x, codes)

        def step(lo, hi):
            part = rows_x[lo:hi]
            if not np.all(np.isfinite(part)):
                raise ValueError("cannot quantize non-finite values")
            # clip in float before the integer cast, and cast as the clip
            # writes: casting first overflows for huge inputs and wraps them
            # into the wrong bin. The cast truncates, which is floor on the
            # clipped range. errstate holds per thread, so it is set here.
            with np.errstate(over="ignore"):
                idx = np.subtract(part, self.range_lo)
                np.divide(idx, self.width, out=idx)
            np.clip(idx, 0, self.bin_count - 1, out=rows_codes[lo:hi], casting="unsafe")

        split(len(rows_x), step)
        return codes

    def value(self, codes):
        """Bin-center value of each code, as a float array of their shape."""
        c = np.asarray(codes)
        if not np.issubdtype(c.dtype, np.integer):
            raise ValueError("codes must be integers")
        if c.size and (c.min() < 0 or c.max() >= self.bin_count):
            raise ValueError(f"codes must lie in [0, {self.bin_count})")
        # (c + 0.5) * width + range_lo, evaluated in the float copy of c
        out = c.astype(float)
        out += 0.5
        return affine(out, self.width, self.range_lo)


@dataclass(frozen=True)
class CalibrationGrid:
    """Noise parameters (mean, sigma) tabulated over temperature x voltage.

    Both axes must be strictly increasing; a descending or repeating axis
    raises ValueError naming it. ``means`` and ``sigmas`` are indexed
    ``[temperature_index, voltage_index]``. :func:`load_calibration`
    sorts its rows, so a calibration file may list them in any order.
    """

    temperatures: tuple
    voltages: tuple
    means: np.ndarray = field(repr=False)
    sigmas: np.ndarray = field(repr=False)

    def __post_init__(self):
        temps = np.asarray(self.temperatures, dtype=float)
        volts = np.asarray(self.voltages, dtype=float)
        means = np.array(self.means, dtype=float)
        sigmas = np.array(self.sigmas, dtype=float)
        for name, ax in (("temperature", temps), ("voltage", volts)):
            if ax.size < 2:
                raise ValueError(f"{name} axis needs at least two points")
            if not np.all(np.diff(ax) > 0):
                raise ValueError(f"{name} axis must be strictly increasing")
        if means.shape != (temps.size, volts.size) or sigmas.shape != means.shape:
            raise ValueError(
                f"cell matrices must have shape {(temps.size, volts.size)}, "
                f"got {means.shape} and {sigmas.shape}"
            )
        if not np.all(np.isfinite(means)) or not np.all(np.isfinite(sigmas)):
            raise ValueError("grid cells must be finite")
        if np.any(sigmas <= 0):
            raise ValueError("grid sigmas must all be positive")
        means.setflags(write=False)
        sigmas.setflags(write=False)
        object.__setattr__(self, "temperatures", tuple(float(t) for t in temps))
        object.__setattr__(self, "voltages", tuple(float(v) for v in volts))
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigmas", sigmas)

    def noise_params(self, temperature: float, voltage: float) -> GaussianSpec:
        """Interpolated noise Gaussian at an in-grid operating point.

        Bilinear within the enclosing cell, exact at grid nodes, and
        continuous across cell boundaries. Operating points outside the
        grid raise GridRangeError naming the offending axis.
        """
        temps, volts = self.temperatures, self.voltages
        if not temps[0] <= temperature <= temps[-1]:
            raise GridRangeError(
                f"temperature {temperature} outside calibration range "
                f"[{temps[0]}, {temps[-1]}]"
            )
        if not volts[0] <= voltage <= volts[-1]:
            raise GridRangeError(
                f"voltage {voltage} outside calibration range "
                f"[{volts[0]}, {volts[-1]}]"
            )
        t0, t1, wt = _locate(temps, temperature)
        v0, v1, wv = _locate(volts, voltage)
        mean, sigma = (
            _lerp(_lerp(c[t0, v0], c[t0, v1], wv), _lerp(c[t1, v0], c[t1, v1], wv), wt)
            for c in (self.means, self.sigmas)
        )
        return GaussianSpec(float(mean), float(sigma))


def default_grid() -> CalibrationGrid:
    """Synthetic calibration surface used when no measured table is loaded.

    Affine trends anchored at (980.794, 7.178) for the (20 C, 3.0 V)
    operating point, with slopes chosen so that, along every grid line,
    mean and sigma strictly decrease with temperature, mean strictly
    increases with supply voltage, and sigma strictly decreases with it.
    Small per-node offsets, drawn by :func:`~prva.samplers.inversion_sample`
    from a fixed-seed :class:`SeededStream`, keep the surface from being
    exactly planar (so bilinear structure is exercised) while staying well
    below the node-to-node steps, which preserves the strict trends. The
    anchor node itself is left offset-free.
    """
    # the node offsets are drawn in this hot-to-cold, high-to-low order
    temps = np.arange(25.0, -5.0 - 2.5, -5.0)  # 25 C down to -5 C
    volts = np.round(np.arange(3.6, 1.4 - 0.1, -0.2), 10)  # 3.6 V down to 1.4 V
    tt = temps[:, None]
    vv = volts[None, :]
    means = 980.794 + 0.12 * (20.0 - tt) + 0.8 * (vv - 3.0)
    sigmas = 7.178 + 0.03 * (20.0 - tt) + 0.25 * (3.0 - vv)
    stream = SeededStream(1297032)
    for cells, half in ((means, 0.05), (sigmas, 0.02)):
        offsets = inversion_sample(stream, UniformSpec(-half, half), cells.size)
        cells += offsets.reshape(cells.shape)
    anchor = (int(np.where(temps == 20.0)[0][0]), int(np.where(volts == 3.0)[0][0]))
    means[anchor] = 980.794
    sigmas[anchor] = 7.178
    return CalibrationGrid(
        tuple(temps[::-1]), tuple(volts[::-1]), means[::-1, ::-1], sigmas[::-1, ::-1]
    )


def default_adc(
    grid: CalibrationGrid,
    temperature: float = 10.0,
    voltage: float = 2.6,
    bits: int = 12,
    span_sigmas: float = 4.0,
) -> AdcModel:
    """ADC sized for an operating point: 2**bits bins over mean +/- span_sigmas."""
    noise = grid.noise_params(temperature, voltage)
    half = span_sigmas * noise.sigma
    return AdcModel(2**bits, noise.mean - half, noise.mean + half)


@dataclass(frozen=True)
class SampleTrace:
    """A captured code stream plus the acquisition context it needs replayed.

    ``codes`` is the raw integer ADC output. It is range-checked as given,
    so a negative or too-large code raises instead of wrapping, and then
    kept as a read-only copy in ``adc.code_dtype``. The remaining fields
    record the converter geometry and operating point, which is exactly
    the header of the on-disk format.
    """

    codes: np.ndarray
    adc: AdcModel
    temperature_c: float
    voltage_v: float
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    source: str = "synthetic"

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 1:
            raise ValueError(f"trace codes must be a 1-D array, got {codes.ndim}-D")
        if not np.issubdtype(codes.dtype, np.integer):
            raise ValueError("trace codes must be integers")
        if codes.size == 0:
            raise ValueError("trace must contain at least one code")
        if codes.min() < 0 or codes.max() >= self.adc.bin_count:
            raise ValueError(f"trace codes must lie in [0, {self.adc.bin_count})")
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ValueError("sample_rate_hz must be positive")
        if not _LINE_BREAKS.isdisjoint(self.source):
            raise ValueError(f"source must not contain a line break, got {self.source!r}")
        codes = codes.astype(self.adc.code_dtype, copy=True)
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)

    def __len__(self) -> int:
        return int(self.codes.size)


def generate_trace(
    stream: SeededStream,
    grid: CalibrationGrid,
    temperature: float,
    voltage: float,
    adc: AdcModel,
    n: int,
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
    source: str = "synthetic",
) -> SampleTrace:
    """Simulate an acquisition: Gaussian noise at the operating point, quantized.

    The noise parameters come from the calibration grid at (temperature,
    voltage); the raw stream is produced by the package's reference
    Gaussian generator on ``stream`` and pushed through ``adc``.
    """
    if n < 1:
        raise ValueError("trace length must be at least 1")
    raw = reference_gaussian_sample(stream, grid.noise_params(temperature, voltage), n)
    return SampleTrace(
        codes=adc.quantize(raw),
        adc=adc,
        temperature_c=float(temperature),
        voltage_v=float(voltage),
        sample_rate_hz=float(sample_rate_hz),
        source=source,
    )


def dequantize_with_jitter(trace: SampleTrace, stream: SeededStream) -> np.ndarray:
    """Reconstruct real values from codes: a uniform point in each code's bin.

    Each code c becomes ``range_lo + (c + u) * width`` with u ~ U[0, 1), so
    every reconstructed sample stays inside its own closed bin: a u near 1
    can round onto the upper edge, which may quantize as c + 1. The
    staircase of the quantizer is smoothed instead of echoed. One raw
    uniform is drawn per code; the codes are added to it in place and the
    sum is mapped by :func:`~prva.samplers.affine`. That charges one
    multiply and two adds per code to the stream's counter. The draw, the
    add and the map each :func:`~prva.samplers.split` their values between
    the caller and the helper thread, which changes no bit.
    """
    out = stream.uniforms(trace.codes.size)
    codes = trace.codes

    def add_codes(lo, hi):
        part = out[lo:hi]
        part += codes[lo:hi]

    split(out.size, add_codes)
    stream.counter.additions += out.size
    return affine(out, trace.adc.width, trace.adc.range_lo, stream.counter)


def _write_lines(fh, values) -> None:
    """Write a 1-D array one ``repr`` a line, holding at most 2**16 lines at once."""
    for start in range(0, values.size, 2**16):
        block = values[start : start + 2**16].tolist()
        fh.write("\n".join(map(repr, block)) + "\n")


def store_trace(trace: SampleTrace, path) -> None:
    """Write a trace in the key=value header + one-code-per-line format."""
    header = [
        f"bins={trace.adc.bin_count}",
        f"range_lo={float(trace.adc.range_lo)!r}",
        f"range_hi={float(trace.adc.range_hi)!r}",
        f"temperature_c={float(trace.temperature_c)!r}",
        f"voltage_v={float(trace.voltage_v)!r}",
        f"sample_rate_hz={float(trace.sample_rate_hz)!r}",
        f"source={trace.source}",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(header) + "\n\n")
        _write_lines(fh, trace.codes)


def load_trace(path) -> SampleTrace:
    """Parse a trace file, reading it one line at a time.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, and one trailing blank line
    is allowed. Every fault raises ValueError, whose message marks it: a
    header line that "is not key=value", an "unknown", "duplicate" or
    "missing header field", an "unparseable header value", an ADC geometry
    or sample rate that :class:`AdcModel` or :class:`SampleTrace` rejects,
    a code "outside [0, bins)", an "unparseable sample line", or a body
    that "contains no samples". Code faults name their file line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = enumerate(fh, 1)
        header: dict[str, str] = {}
        for number, line in lines:
            line = line.rstrip("\n")
            if line.strip() == "":
                break
            if "=" not in line:
                raise ValueError(f"header line {number} is not key=value: {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _TRACE_FIELDS:
                raise ValueError(f"unknown header field {key!r}")
            if key in header:
                raise ValueError(f"duplicate header field {key!r}")
            header[key] = value
        missing = [k for k in _TRACE_FIELDS if k not in header]
        if missing:
            raise ValueError(f"missing header field(s): {', '.join(missing)}")
        try:
            bins = int(header["bins"])
            range_lo = float(header["range_lo"])
            range_hi = float(header["range_hi"])
            temperature = float(header["temperature_c"])
            voltage = float(header["voltage_v"])
            rate = float(header["sample_rate_hz"])
        except ValueError as exc:
            raise ValueError(f"unparseable header value: {exc}") from exc
        adc = AdcModel(bins, range_lo, range_hi)
        codes = np.fromiter(_body_codes(lines, bins), dtype=adc.code_dtype)
    if codes.size == 0:
        raise ValueError("trace body contains no samples")
    return SampleTrace(
        codes=codes,
        adc=adc,
        temperature_c=temperature,
        voltage_v=voltage,
        sample_rate_hz=rate,
        source=header["source"],
    )


def _body_codes(lines, bins: int):
    """Yield the code on each (number, line) pair; a blank last line ends the body."""
    for number, line in lines:
        try:
            code = int(line)
        except ValueError as exc:
            if line.strip() or next(lines, None) is not None:
                text = line.rstrip("\n")
                raise ValueError(f"unparseable sample line {number}: {text!r}") from exc
            return
        if not 0 <= code < bins:
            raise ValueError(f"code {code} at line {number} outside [0, {bins})")
        yield code


def store_calibration(grid: CalibrationGrid, path) -> None:
    """Write a calibration grid as CSV, one row per cell, axes ascending."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CALIBRATION_HEADER)
        for ti, t in enumerate(grid.temperatures):
            for vi, v in enumerate(grid.voltages):
                writer.writerow(
                    [
                        repr(float(t)),
                        repr(float(v)),
                        repr(float(grid.means[ti, vi])),
                        repr(float(grid.sigmas[ti, vi])),
                    ]
                )


def load_calibration(path) -> CalibrationGrid:
    """Parse a calibration CSV into a grid; every fault raises ValueError.

    Blank lines are skipped, and a row fault names the row's file line.
    The message marks the fault: a first row that is not the "calibration
    header" ``temperature_c,voltage_v,mean,sigma``, a row that "must have 4
    fields" or "is not numeric", a "duplicate cell", a table that "has no
    rows", an "incomplete grid" that does not tile the full temperature x
    voltage rectangle, or a grid that :class:`CalibrationGrid` rejects.
    """
    cells: dict[tuple, tuple] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = (row for row in reader if row)  # ignore blank lines
        header = next(rows, None)
        if header is None or tuple(s.strip() for s in header) != _CALIBRATION_HEADER:
            raise ValueError(f"calibration header must be {','.join(_CALIBRATION_HEADER)!r}")
        for row in rows:
            i = reader.line_num
            if len(row) != 4:
                raise ValueError(f"row {i} must have 4 fields, got {len(row)}")
            try:
                t, v, m, s = (float(x) for x in row)
            except ValueError as exc:
                raise ValueError(f"row {i} is not numeric: {row!r}") from exc
            if (t, v) in cells:
                raise ValueError(f"duplicate cell ({t}, {v}) at row {i}")
            cells[(t, v)] = (m, s)
    if not cells:
        raise ValueError("calibration table has no rows")
    temps = sorted({t for t, _ in cells})
    volts = sorted({v for _, v in cells})
    means = np.empty((len(temps), len(volts)))
    sigmas = np.empty_like(means)
    for ti, t in enumerate(temps):
        for vi, v in enumerate(volts):
            if (t, v) not in cells:
                raise ValueError(f"incomplete grid: missing cell ({t}, {v})")
            means[ti, vi], sigmas[ti, vi] = cells[(t, v)]
    return CalibrationGrid(tuple(temps), tuple(volts), means, sigmas)
