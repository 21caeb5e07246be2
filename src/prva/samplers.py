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

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, replace
from functools import lru_cache

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


# values below which a kernel runs all its work on the calling thread
SPLIT_SIZE = 2**18


@lru_cache(maxsize=1)
def _helper() -> ThreadPoolExecutor:
    """The one helper thread that runs the second half of every split.

    Started by the first split, not at import. Work it runs never splits
    again: with one worker, a split from the helper would wait on itself.
    """
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="prva-split")


# a forked child inherits the helper but not its thread: work submitted
# there would queue forever, so the child starts a helper of its own
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helper.cache_clear)


def split(n: int, work, grain: int = 1) -> int:
    """Run ``work(0, cut)`` on the caller and ``work(cut, n)`` on the helper; return ``cut``.

    ``cut`` is half of ``n`` rounded down to a multiple of ``grain``. Below
    :data:`SPLIT_SIZE` the caller runs ``work(0, n)`` alone and ``n`` is
    returned. The halves must write disjoint outputs. The caller waits for
    the helper's half even when its own half raises, so nothing writes to
    the outputs after this returns or raises.
    """
    if n < SPLIT_SIZE:
        work(0, n)
        return n
    cut = n // 2 // grain * grain
    second = _helper().submit(work, cut, n)
    try:
        work(0, cut)
    finally:
        wait((second,))
    second.result()
    return cut


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
        """Draw ``size`` U[0,1) variates as an ndarray.

        From :data:`SPLIT_SIZE` values on, the draw is :func:`split`: the
        caller draws the first half and the helper thread the second, from
        a copy of the generator's state taken before either draws and
        advanced past the first half. Each double uses exactly one 64-bit
        PCG64 output, so the values, and every later draw, equal those of
        one ``random(size)`` call.
        """
        n = int(size)
        if n < 0:
            raise ValueError("size must be non-negative")
        out = np.empty(n)
        bits = self._rng.bit_generator
        state = bits.state

        def draw(lo, hi):
            if lo == 0:
                self._rng.random(out=out[:hi])
            else:
                ahead = np.random.PCG64()
                ahead.state = state
                ahead.advance(lo)
                np.random.Generator(ahead).random(out=out[lo:hi])

        cut = split(n, draw)
        if cut < n:
            bits.advance(n - cut)
        self.counter.uniform_draws += n
        return out


def affine(x, scale, offset, counter: OpCounter | None = None, out=None):
    """Write scale * x + offset into ``out`` (``x`` itself by default); return it.

    Multiply, then add, in place on ``out``, so the bits are the expression's.
    The rows of ``out`` are :func:`split` between the caller and the helper
    thread, which is elementwise and so changes no bit. This is prva's one
    affine step and its one charge: one multiply and one add per value, when
    given a ``counter``.
    """
    out = x if out is None else out
    # a 0-d array as one row, viewed, so the halves write into ``out``
    rows_x, rows_out = np.atleast_1d(x, out)

    def step(lo, hi):
        part = np.multiply(rows_x[lo:hi], scale, out=rows_out[lo:hi])
        part += offset

    split(len(rows_out), step)
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
    small whatever ``size`` is. The draw and its map are :func:`split`
    by values, and the kept-pair work by blocks in two phases: each
    block's mask and count, then, from the offsets their prefix sum
    gives, each block's normals. Every op is elementwise or per block,
    so the halves change no bit and no charge.
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
        x, y = xy[:pairs], xy[pairs:]
        # s = x*x + y*y and its test; the draw charged its own map
        counter.multiplications += 2 * pairs
        counter.additions += pairs
        counter.comparisons += pairs
        # the kept-pair work runs in blocks, so none of its temporaries is
        # as large as the draw; only each block's mask and count outlive it
        blocks = range(0, pairs, _POLAR_BLOCK_PAIRS)
        masks = [None] * len(blocks)
        counts = np.zeros(len(blocks), dtype=np.int64)

        def block_pairs(lo, hi):
            """Each block index in pairs [lo, hi), lo on a block start, with its x and y."""
            for b in range(lo // _POLAR_BLOCK_PAIRS, -(-hi // _POLAR_BLOCK_PAIRS)):
                a = blocks[b]
                yield b, x[a : a + _POLAR_BLOCK_PAIRS], y[a : a + _POLAR_BLOCK_PAIRS]

        def test(lo, hi):
            for b, xb, yb in block_pairs(lo, hi):
                s = xb * xb
                s += yb * yb
                masks[b] = (s > 0.0) & (s < 1.0)
                counts[b] = np.count_nonzero(masks[b])

        split(pairs, test, _POLAR_BLOCK_PAIRS)
        # kept pairs reach the output in draw order: each block writes from
        # the offset its predecessors' kept pairs fill
        offsets = filled + 2 * (np.cumsum(counts) - counts)

        def transform(lo, hi):
            for b, xb, yb in block_pairs(lo, hi):
                at = int(offsets[b])
                # every kept pair is charged; only those the output needs are computed
                take = min(2 * int(counts[b]), n - at)
                if take <= 0:
                    continue
                ok = np.flatnonzero(masks[b])[: (take + 1) // 2]
                xk = xb.take(ok)
                yk = yb.take(ok)
                # elementwise, so bit-equal to the kept entries of s
                sk = xk * xk
                sk += yk * yk
                m = np.log(sk)
                m *= -2.0
                m /= sk
                np.sqrt(m, out=m)
                # x*m and y*m interleave straight into the output
                half = take // 2
                np.multiply(xk, m, out=out[at : at + take : 2])
                np.multiply(yk[:half], m[:half], out=out[at + 1 : at + take : 2])

        split(pairs, transform, _POLAR_BLOCK_PAIRS)
        kept = int(counts.sum())
        filled = min(n, filled + 2 * kept)
        counter.rejections += pairs - kept
        counter.transcendental_evals += 2 * kept
        counter.multiplications += 3 * kept
        counter.divisions += kept
    return affine(out, spec.sigma, spec.mean, counter)
