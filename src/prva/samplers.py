"""Classical variate generators with explicit operation accounting.

Two generation routes live here:

* :func:`inversion_sample` — inverse-CDF sampling of a uniform
  distribution, the affine map lo + u * width.
* :func:`reference_gaussian_sample` — a polar-method Gaussian generator
  used as the software baseline everywhere a trusted normal source is
  needed.

Each generator takes a required ``size`` and returns an ndarray of that
many variates. All randomness is drawn through a :class:`SeededStream`,
and every arithmetic operation a generator performs per variate is
charged to an :class:`OpCounter` (each a * x + b step, here and in the
sensor and transform stages, by :func:`affine`), so the relative cost
of the routes can be compared by counting instead of by wall clock.
Counters deliberately live outside the samplers: callers own them and
may share one across stages.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .distributions import GaussianSpec, UniformSpec


@dataclass
class OpCounter:
    """Tally of elementary operations charged by generators and transforms.

    ``uniform_draws`` counts raw U[0,1) variates consumed and ``rejections``
    counts discarded candidates; the remaining fields count arithmetic.
    Counters add and subtract field-wise, which is how per-call costs are
    measured (subtract a snapshot) and how per-thread counters are merged.
    """

    multiplications: int = 0
    additions: int = 0
    divisions: int = 0
    comparisons: int = 0
    transcendental_evals: int = 0
    uniform_draws: int = 0
    rejections: int = 0

    @property
    def total_ops(self) -> int:
        """All arithmetic charges (everything except draws and rejections)."""
        return (
            self.multiplications
            + self.additions
            + self.divisions
            + self.comparisons
            + self.transcendental_evals
        )

    def copy(self) -> "OpCounter":
        return replace(self)

    def as_dict(self) -> dict:
        return asdict(self)

    def __add__(self, other: "OpCounter") -> "OpCounter":
        return OpCounter(
            **{k: v + getattr(other, k) for k, v in self.as_dict().items()}
        )

    def __sub__(self, other: "OpCounter") -> "OpCounter":
        return OpCounter(
            **{k: v - getattr(other, k) for k, v in self.as_dict().items()}
        )


def derive_seed(seed: int, *keys: int) -> int:
    """Derive a child 64-bit seed from a master seed and an index path.

    The derivation is a stable hash, so (seed, keys) -> child seed is
    reproducible across runs and platforms and children of distinct key
    paths are statistically independent.
    """
    ss = np.random.SeedSequence([int(seed), *[int(k) for k in keys]])
    return int(ss.generate_state(1, np.uint64)[0])


class SeededStream:
    """Deterministic U[0,1) source; the package's only randomness inlet.

    Wraps a PCG64 bit generator keyed by a 64-bit seed and charges each
    draw to the attached :class:`OpCounter`'s ``uniform_draws``, which is
    the stream's only draw count. Identical seeds yield identical draw
    sequences for identical call patterns.
    """

    def __init__(self, seed: int, counter: OpCounter | None = None):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.counter = counter if counter is not None else OpCounter()
        self._rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def uniforms(self, size: int) -> np.ndarray:
        """Draw ``size`` U[0,1) variates as an ndarray."""
        n = int(size)
        if n < 0:
            raise ValueError("size must be non-negative")
        out = self._rng.random(n)
        self.counter.uniform_draws += n
        return out


def affine(x, scale, offset, counter: OpCounter | None = None, out=None):
    """Write scale * x + offset into ``out`` (``x`` itself by default); return it.

    Multiply, then add, in place on ``out``, so the bits are the expression's.
    ``offset`` may be an array. This is prva's one affine step and its one
    charge: one multiply and one add per value, when given a ``counter``.
    """
    out = np.multiply(x, scale, out=x if out is None else out)
    out += offset
    if counter is not None:
        counter.multiplications += out.size
        counter.additions += out.size
    return out


def inversion_sample(stream: SeededStream, spec: UniformSpec, size: int) -> np.ndarray:
    """Draw ``size`` variates of ``spec`` by inverting its CDF: u * width + lo.

    One uniform per variate, mapped in place on the draw and charged by
    :func:`affine`. Every U(lo, hi) variate of the samplers is drawn here;
    the dequantizer's jitter is a raw :meth:`SeededStream.uniforms` draw.
    """
    return affine(stream.uniforms(size), spec.width, spec.lo, stream.counter)


# candidate pairs per block of the polar sampler's kept-pair work
_POLAR_BLOCK_PAIRS = 2**14


def reference_gaussian_sample(
    stream: SeededStream, spec: GaussianSpec, size: int
) -> np.ndarray:
    """Polar-method Gaussian baseline, drawn from the package's own uniforms.

    Pairs (x, y) uniform on [-1, 1)^2 are kept when s = x^2 + y^2 lands
    in (0, 1); each kept pair yields two unit normals via the factor
    sqrt(-2 ln s / s), which are then retargeted to ``spec`` with one
    multiply and one add apiece. Rejected pairs are charged to the
    counter's ``rejections``.

    The arithmetic runs in place on buffers the function owns, in the
    order the formulas above give, so every output bit equals that of
    evaluating them as plain expressions. Past the draw and the output,
    the work runs in blocks of candidate pairs, so its temporaries stay
    small whatever ``size`` is.
    """
    n = int(size)
    out = np.empty(n, dtype=float)
    filled = 0
    counter = stream.counter
    while filled < n:
        pairs = max(16, int((n - filled) * 0.64) + 8)
        # one U(-1, 1) draw holds x then y: PCG64 doubles are sequential, so
        # this is the same stream as two draws of ``pairs`` mapped by 2u - 1
        xy = inversion_sample(stream, UniformSpec(-1.0, 1.0), 2 * pairs)
        # s = x*x + y*y and its test; the draw charged its own map
        counter.multiplications += 2 * pairs
        counter.additions += pairs
        counter.comparisons += pairs
        kept = 0
        # the kept-pair work runs in blocks, so none of its temporaries is
        # as large as the draw; kept pairs reach the output in draw order
        for lo in range(0, pairs, _POLAR_BLOCK_PAIRS):
            hi = min(lo + _POLAR_BLOCK_PAIRS, pairs)
            x, y = xy[lo:hi], xy[pairs + lo : pairs + hi]
            s = x * x
            s += y * y
            ok = np.flatnonzero((s > 0.0) & (s < 1.0))
            kept += ok.size
            # every kept pair is charged; only those the output needs are computed
            take = min(2 * ok.size, n - filled)
            if take == 0:
                continue
            ok = ok[: (take + 1) // 2]
            sk = s.take(ok)
            m = np.log(sk)
            m *= -2.0
            m /= sk
            np.sqrt(m, out=m)
            # x*m and y*m interleave straight into the output
            half = take // 2
            np.multiply(x.take(ok), m, out=out[filled : filled + take : 2])
            np.multiply(y.take(ok[:half]), m[:half], out=out[filled + 1 : filled + take : 2])
            filled += take
        counter.rejections += pairs - kept
        counter.transcendental_evals += 2 * kept
        counter.multiplications += 3 * kept
        counter.divisions += kept
    return affine(out, spec.sigma, spec.mean, counter)
