"""Truncated sender networks: vertex-weight families, their truncation, and
conversion from locally finite graphs.

A sender network carries one positive weight per vertex with total mass one;
the edge weight from j to i depends only on the sender j. Infinite families
are represented by their first N weights, renormalized to sum exactly to one,
with an upper bound on the dropped tail fraction kept for cutoff estimates.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NearTieWarning, TruncationError

# Tolerance for the unit-mass invariant of a weight vector.
MASS_TOL = 1e-14

# Adjacent potential values closer than this (but unequal) trigger a
# near-tie diagnostic: branch selection compares floats exactly.
NEAR_TIE_GAP = 1e-12

# Most vertices one instance may have: each vector over the vertices takes
# 80 MB of float64 at this size, and a run holds several. Checked before any
# of them is allocated.
MAX_VERTICES = 10 ** 7


@dataclass(frozen=True)
class WeightFamily:
    """Parametric family of positive vertex weights with unit total mass.

    Kinds:
      geometric  -- m_i proportional to q**(i-1), ratio q in (0, 1)
      power_law  -- m_i proportional to i**(-s), exponent s > 1
      explicit   -- a finite list of positive weights
    """

    kind: str
    q: float | None = None
    s: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "geometric":
            if self.q is None or not (0.0 < self.q < 1.0):
                raise ValueError(f"geometric ratio must lie in (0, 1), got {self.q}")
        elif self.kind == "power_law":
            if self.s is None or not (self.s > 1.0):
                raise ValueError(f"power-law exponent must exceed 1, got {self.s}")
        elif self.kind == "explicit":
            if not self.values:
                raise ValueError("explicit family needs at least one weight")
            vals = tuple(float(v) for v in self.values)
            if any((not math.isfinite(v)) or v <= 0.0 for v in vals):
                raise ValueError("explicit weights must be finite and positive")
            object.__setattr__(self, "values", vals)
        else:
            raise ValueError(f"unknown weight family kind {self.kind!r}")

    @classmethod
    def geometric(cls, q: float) -> "WeightFamily":
        return cls(kind="geometric", q=float(q))

    @classmethod
    def power_law(cls, s: float) -> "WeightFamily":
        return cls(kind="power_law", s=float(s))

    @classmethod
    def explicit(cls, values) -> "WeightFamily":
        return cls(kind="explicit", values=tuple(values))


def parse_weight_family(text: str) -> WeightFamily:
    """Parse a family from config text.

    Accepted forms: ``geometric:q=0.5``, ``powerlaw:s=2.0``,
    ``explicit:file=<path>`` (one positive decimal per line).
    """
    head, _, arg = text.strip().partition(":")
    head = head.strip().lower()
    key, _, val = arg.partition("=")
    key = key.strip()
    val = val.strip()
    if head == "geometric":
        if key != "q":
            raise ValueError(f"geometric family expects q=<ratio>, got {arg!r}")
        return WeightFamily.geometric(float(val))
    if head in ("powerlaw", "power_law"):
        if key != "s":
            raise ValueError(f"power-law family expects s=<exponent>, got {arg!r}")
        return WeightFamily.power_law(float(val))
    if head == "explicit":
        if key != "file":
            raise ValueError(f"explicit family expects file=<path>, got {arg!r}")
        return WeightFamily.explicit(_read_floats(val))
    raise ValueError(f"unknown weight family {text!r}")


def _read_floats(path) -> list:
    """The floats of a text file, one per non-blank line."""
    with open(path, "r", encoding="utf-8") as fh:
        return [float(line) for line in fh if line.strip()]


@dataclass(frozen=True)
class WeightSequence:
    """First N weights of a family, renormalized to unit mass.

    ``raw_tail_mass`` is an upper bound on the family's tail fraction, the
    mass beyond index N over the whole family's mass: exact for geometric
    and explicit families, an integral bound for power laws.
    """

    m: np.ndarray
    raw_tail_mass: float

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("weights must form a nonempty 1-d vector")
        if np.any(~np.isfinite(m)) or np.any(m <= 0.0):
            raise ValueError("all weights must be finite and positive")
        if abs(math.fsum(m) - 1.0) > MASS_TOL:
            raise ValueError("weights must sum to 1 within %.0e" % MASS_TOL)
        if not (0.0 <= self.raw_tail_mass < 1.0):
            raise ValueError("raw tail mass must lie in [0, 1)")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    def __len__(self) -> int:
        return self.m.size


def _renormalize(raw: np.ndarray) -> np.ndarray:
    # fsum is compensated, so the normalized vector re-sums to 1 within
    # a few ulp even at N = 1e6.
    total = math.fsum(raw)
    m = raw / total
    drift = math.fsum(m) - 1.0
    if abs(drift) > MASS_TOL:
        m = m / (1.0 + drift)
    return m


def build_weights(family: WeightFamily, N: int) -> WeightSequence:
    """First N weights of ``family``, renormalized, with tail accounting."""
    if N < 2:
        raise ValueError(f"need at least 2 vertices, got N={N}")
    if N > MAX_VERTICES:
        raise ValueError(f"graph.N={N} exceeds {MAX_VERTICES} vertices")
    if family.kind == "geometric":
        q = family.q
        # (1-q) q^(i-1) sums to one over the infinite family.
        raw = (1.0 - q) * np.exp(np.arange(N) * math.log(q))
        raw_tail = q**N
    elif family.kind == "power_law":
        s = family.s
        # zeta(s) cancels in the renormalized weights. The remainder
        # R = sum_{k>N} k^-s is at most T = int_N^inf x^-s dx, and R/(H+R)
        # grows with R, so T/(H+T) bounds the tail fraction from above.
        raw = np.arange(1, N + 1, dtype=float) ** -s
        head = math.fsum(raw)
        T = N ** (1.0 - s) / (s - 1.0)
        raw_tail = T / (head + T)
    else:
        vals = family.values
        if N > len(vals):
            raise ValueError(
                f"explicit family has {len(vals)} weights, cannot truncate at N={N}"
            )
        arr = np.asarray(vals, dtype=float)
        total = math.fsum(arr)
        raw = arr[:N] / total
        raw_tail = math.fsum(arr[N:]) / total
    if np.any(raw <= 0.0):
        raise ValueError("weights underflow to zero at the requested truncation")
    m = _renormalize(raw)
    return WeightSequence(m=m, raw_tail_mass=min(float(raw_tail), np.nextafter(1.0, 0.0)))


def from_locally_finite(adjacency_rows) -> WeightSequence:
    """Sender-network weights induced by a locally finite graph.

    Each row holds the outgoing edge weights of one vertex, as a mapping
    ``{neighbor: weight}`` or an iterable of ``(neighbor, weight)`` pairs.
    The new vertex weight is the row sum divided by the total over all rows,
    so the result is invariant under uniform scaling of the adjacency.
    """
    row_sums = []
    for i, row in enumerate(adjacency_rows):
        items = row.values() if hasattr(row, "values") else [w for _, w in row]
        vals = [float(w) for w in items]
        if any(w < 0.0 or not math.isfinite(w) for w in vals):
            raise ValueError(f"row {i}: adjacency weights must be finite and >= 0")
        rs = math.fsum(vals)
        if rs <= 0.0:
            raise ValueError(f"row {i}: zero row sum gives a degenerate vertex")
        row_sums.append(rs)
    if not row_sums:
        raise ValueError("need at least one vertex")
    return WeightSequence(m=_renormalize(np.asarray(row_sums, dtype=float)), raw_tail_mass=0.0)


def estimate_tail_cutoff(weights: WeightSequence, norm_bound: float, delta: float) -> int:
    """Smallest prefix length n with sqrt(tail mass beyond n) * norm_bound < delta.

    The tail combines the stored weights beyond n with the family's
    pre-renormalization tail mass, so the estimate is conservative with
    respect to the untruncated family.
    """
    if norm_bound <= 0.0:
        raise ValueError("norm bound must be positive")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    m = weights.m
    # suffix[n] = sum of m[n:] so the cutoff-n tail is suffix[n] + raw tail.
    suffix = np.concatenate([np.cumsum(m[::-1])[::-1], [0.0]])

    def admits(n):
        tail = suffix[n] + weights.raw_tail_mass
        # an empty tail admits any bound, an infinite one included
        return tail <= 0.0 or math.sqrt(tail) * norm_bound < delta

    # Adding a positive weight never lowers a rounded sum, so the tail
    # shrinks with n and the admissible cutoffs are all n past the first.
    n = bisect.bisect_left(range(1, m.size + 1), True, key=admits) + 1
    if n <= m.size:
        return n
    raise TruncationError(
        f"no admissible cutoff within N={len(weights)}: even the full "
        f"prefix leaves sqrt({weights.raw_tail_mass:.3e}) * {norm_bound:.3e} >= {delta}"
    )


def min_weight_prefix(weights: WeightSequence, n0: int) -> float:
    """Minimum weight over the first ``n0`` vertices."""
    if not (1 <= n0 <= len(weights)):
        raise ValueError(f"prefix length {n0} outside 1..{len(weights)}")
    return float(weights.m[:n0].min())


@dataclass(frozen=True)
class GraphSpec:
    """A full problem instance: weights, potential, and diffusion constant."""

    weights: WeightSequence
    phi: np.ndarray
    beta: float

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.shape != self.weights.m.shape:
            raise ValueError("potential length must match the weight vector")
        if np.any(~np.isfinite(phi)):
            raise ValueError("potential values must be finite")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"diffusion constant must be >= 0, got {self.beta}")
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        _warn_near_ties(phi)

    @property
    def N(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> np.ndarray:
        return self.weights.m

    @property
    def phi_sup(self) -> float:
        return float(np.abs(self.phi).max())


def _warn_near_ties(phi: np.ndarray) -> None:
    # Near-ties must be adjacent after sorting, so this stays O(N log N).
    vals = np.sort(phi)
    gaps = np.diff(vals)
    suspicious = (gaps > 0.0) & (gaps < NEAR_TIE_GAP)
    if np.any(suspicious):
        k = int(np.argmax(suspicious))
        warnings.warn(
            f"potential values {float(vals[k])!r} and {float(vals[k + 1])!r} differ by "
            f"{gaps[k]:.3e} (< {NEAR_TIE_GAP:g}) but are not equal; branch "
            "selection compares exactly",
            NearTieWarning,
            stacklevel=4,   # past __post_init__ and the generated __init__
        )
