"""Classical variate generators with explicit operation accounting.

Three generation routes live here:

* :func:`inversion_sample` — closed-form inverse-CDF sampling for the
  families that admit one.
* :class:`AcceptRejectSampler` — rejection sampling of a Gaussian target
  under a scaled uniform envelope.
* :func:`reference_gaussian_sample` — a polar-method Gaussian generator
  used as the software baseline everywhere a trusted normal source is
  needed.

All randomness is drawn through a :class:`SeededStream`, and every
arithmetic operation a generator performs per variate is charged to an
:class:`OpCounter`, so the relative cost of the routes can be compared
by counting instead of by wall clock. Counters deliberately live outside
the samplers: callers own them and may share one across stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .distributions import (
    ExponentialSpec,
    GaussianSpec,
    UniformSpec,
    gaussian_cdf,
    gaussian_pdf,
    inverse_cdf,
)


class EnvelopeError(ValueError):
    """Raised when c * proposal density fails to dominate the target density."""


class DisjointSupportError(ValueError):
    """Raised when the proposal support misses the target's mass region."""


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
        return OpCounter(**self.as_dict())

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __add__(self, other: "OpCounter") -> "OpCounter":
        return OpCounter(
            **{k: v + getattr(other, k) for k, v in self.as_dict().items()}
        )

    def __sub__(self, other: "OpCounter") -> "OpCounter":
        return OpCounter(
            **{k: v - getattr(other, k) for k, v in self.as_dict().items()}
        )


def merge_counters(counters) -> OpCounter:
    """Field-wise sum of an iterable of counters (order-independent)."""
    out = OpCounter()
    for c in counters:
        out = out + c
    return out


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

    Wraps a PCG64 bit generator keyed by a 64-bit seed. Tracks how many
    uniforms have been handed out (``draws_taken``) and charges each draw
    to the attached :class:`OpCounter`. Identical seeds yield identical
    draw sequences for identical call patterns.
    """

    def __init__(self, seed: int, counter: OpCounter | None = None):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self.counter = counter if counter is not None else OpCounter()
        self.draws_taken = 0
        self._rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def uniforms(self, size: int | None = None):
        """Draw U[0,1) variates: a float for ``size=None``, else an ndarray."""
        n = 1 if size is None else int(size)
        if n < 0:
            raise ValueError("size must be non-negative")
        out = self._rng.random(n)
        self.draws_taken += n
        self.counter.uniform_draws += n
        return float(out[0]) if size is None else out


def inversion_sample(stream: SeededStream, spec, size: int | None = None):
    """Sample ``spec`` by inverse-CDF evaluation on stream uniforms.

    One uniform per variate. Per-variate arithmetic is charged by family:
    the uniform costs one multiply and one add (affine map of u), the
    exponential costs a subtraction, a log, and a division. Families
    without a closed-form inverse propagate InverseUnavailableError from
    :func:`prva.distributions.inverse_cdf`.
    """
    u = stream.uniforms(size)
    n = 1 if size is None else int(size)
    out = inverse_cdf(u, spec)
    c = stream.counter
    if isinstance(spec, UniformSpec):
        c.multiplications += n
        c.additions += n
    elif isinstance(spec, ExponentialSpec):
        c.additions += n
        c.transcendental_evals += n
        c.divisions += n
    return out


# points of the evenly spaced grid that envelope checks scan over a
# proposal support; odd, so a symmetric support's midpoint is on it
_ENVELOPE_GRID_POINTS = 10001


def tight_envelope_constant(target: GaussianSpec, proposal: UniformSpec) -> float:
    """Smallest c with target pdf <= c * proposal pdf on the proposal support.

    Scanned on an evenly spaced grid over [lo, hi]; for a Gaussian target
    this is exact whenever the grid contains the point of the support
    nearest the mean, which the odd-sized grid does for symmetric
    supports.
    """
    grid = np.linspace(proposal.lo, proposal.hi, _ENVELOPE_GRID_POINTS)
    ratio = gaussian_pdf(grid, target) * proposal.width
    return float(ratio.max())


class AcceptRejectSampler:
    """Gaussian target under a scaled uniform proposal, standard accept test.

    A candidate X is drawn uniformly on the proposal support and accepted
    when U <= f(X) / (c * u(X)), which reproduces the target density
    restricted to the support. Construction validates the envelope
    (f <= c * u everywhere on the support, checked on a dense grid) and
    that the support overlaps the target's mass region at all (within
    eight sigma of the mean); either failure is an error at build time,
    not at sampling time.

    Every attempt consumes exactly two uniforms (candidate + test) and is
    charged ten arithmetic operations: two additions, three multiplies,
    three divisions, one exponential, one comparison.
    """

    _ATTEMPT_CHARGES = {
        "additions": 2,
        "multiplications": 3,
        "divisions": 3,
        "transcendental_evals": 1,
        "comparisons": 1,
    }

    def __init__(self, target: GaussianSpec, proposal: UniformSpec, c: float):
        if not (math.isfinite(c) and c >= 1.0):
            raise ValueError(f"envelope constant must satisfy c >= 1, got {c}")
        reach = 8.0 * target.sigma
        if proposal.hi < target.mean - reach or proposal.lo > target.mean + reach:
            raise DisjointSupportError(
                f"proposal support [{proposal.lo}, {proposal.hi}] does not overlap "
                f"the target mass region [{target.mean - reach}, {target.mean + reach}]"
            )
        grid = np.linspace(proposal.lo, proposal.hi, _ENVELOPE_GRID_POINTS)
        f = gaussian_pdf(grid, target)
        bound = c / proposal.width
        worst = int(np.argmax(f))
        if f[worst] > bound * (1.0 + 1e-12):
            raise EnvelopeError(
                f"c * proposal density ({bound:.6g}) is below the target density "
                f"({f[worst]:.6g}) at x = {grid[worst]:.6g}; "
                f"smallest admissible c is {f[worst] * proposal.width:.6g}"
            )
        self.target = target
        self.proposal = proposal
        self.c = float(c)

    @property
    def accept_probability(self) -> float:
        """Exact acceptance probability of the standard test."""
        mass = gaussian_cdf(self.proposal.hi, self.target) - gaussian_cdf(
            self.proposal.lo, self.target
        )
        return mass / self.c

    def sample(self, stream: SeededStream, size: int | None = None):
        n = 1 if size is None else int(size)
        out = np.empty(n, dtype=float)
        filled = 0
        counter = stream.counter
        u_density = 1.0 / self.proposal.width
        p = max(self.accept_probability, 1e-6)
        while filled < n:
            batch = min(4_000_000, int((n - filled) / p * 1.15) + 16)
            x = self.proposal.lo + stream.uniforms(batch) * self.proposal.width
            u = stream.uniforms(batch)
            accept = u <= gaussian_pdf(x, self.target) / (self.c * u_density)
            for name, per_attempt in self._ATTEMPT_CHARGES.items():
                setattr(counter, name, getattr(counter, name) + per_attempt * batch)
            kept = x[accept]
            counter.rejections += batch - kept.size
            take = min(kept.size, n - filled)
            out[filled : filled + take] = kept[:take]
            filled += take
        return float(out[0]) if size is None else out


def reference_gaussian_sample(stream: SeededStream, spec: GaussianSpec, size=None):
    """Polar-method Gaussian baseline, drawn from the package's own uniforms.

    Pairs (x, y) uniform on [-1, 1)^2 are kept when s = x^2 + y^2 lands
    in (0, 1); each kept pair yields two unit normals via the factor
    sqrt(-2 ln s / s), which are then retargeted to ``spec`` with one
    multiply and one add apiece. Rejected pairs are charged to the
    counter's ``rejections``.

    The arithmetic runs in place on buffers the function owns, in the
    order the formulas above give, so every output bit equals that of
    evaluating them as plain expressions.
    """
    n = 1 if size is None else int(size)
    out = np.empty(n, dtype=float)
    filled = 0
    counter = stream.counter
    while filled < n:
        pairs = max(16, int((n - filled) * 0.64) + 8)
        # one draw holds x then y: PCG64 doubles are sequential, so this is
        # the same stream as two draws of ``pairs``
        xy = stream.uniforms(2 * pairs)
        xy *= 2.0
        xy -= 1.0
        x, y = xy[:pairs], xy[pairs:]
        s = x * x
        s += y * y
        counter.multiplications += 4 * pairs
        counter.additions += 3 * pairs
        counter.comparisons += pairs
        ok = np.flatnonzero((s > 0.0) & (s < 1.0))
        kept = ok.size
        counter.rejections += pairs - kept
        if kept == 0:
            continue
        counter.transcendental_evals += 2 * kept
        counter.multiplications += 3 * kept
        counter.divisions += kept
        # every kept pair is charged; only those the output needs are computed
        take = min(2 * kept, n - filled)
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
    out *= spec.sigma
    out += spec.mean
    counter.multiplications += n
    counter.additions += n
    return float(out[0]) if size is None else out
