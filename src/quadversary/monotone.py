"""Adversary for monotone integrands: fooling pairs and certified bounds.

The probe integrand is the 0/1 step at half the coordinate sum.  After an
algorithm has spent its budget on that probe, the transcript points split
into those that returned 0 and those that returned 1, and two extremal
monotone functions agree with the probe on every queried point while their
integrals differ by a gap held in a :class:`~.core.Interval`: one exact value
when every corner is dyadic, a rigorous bracket otherwise.  Half its lower
end is a certified worst-case error lower bound for the algorithm, and
minimizing over point placements yields the closed-form bounds exposed here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (_BLOCK_ELEMENTS, Certificate, ConsistencyError, DomainError, Interval,
                   Transcript, as_points)

__all__ = [
    "MonotoneFoolingPair",
    "build_fooling_pair",
    "certify",
    "complexity_lower_bound",
    "error_lower_bound",
    "threshold_values",
    "union_box_volume",
]

EXACT_CORNER_CAP = 20  # inclusion-exclusion (2^k subsets) up to this many boxes


def threshold_values(points: np.ndarray) -> np.ndarray:
    """0/1 step at half the coordinate sum of each (N, d) row; the boundary maps to 1.

    The labels are those of ``points.sum(axis=1) >= d / 2``, found by a
    filtered predicate (Shewchuk, DCG 18, 1997).  One matrix product sums
    every row in some order.  Two summation orders of a row differ by at most
    2 gamma_{d-1} sum|x_i| (Higham, 2002, sec. 4.2), with gamma_k = k u / (1 - k u)
    and u = 2^-53, which is below the margin 2 gamma_d d max|x|.  So a fast sum
    more than the margin from d/2 lies on the same side as ``sum(axis=1)``.
    The rows within the margin are copied out and summed by ``sum(axis=1)``,
    which sums each row of a C-contiguous array the same way whatever the
    other rows; a NaN or infinite margin leaves every row to it.  Inputs that
    are not C-contiguous skip the filter.
    """
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    half = d / 2.0
    if not pts.flags.c_contiguous:
        return (pts.sum(axis=1) >= half).astype(int)
    scale = d * max(abs(pts.max(initial=0.0)), abs(pts.min(initial=0.0)))  # bounds sum|x_i|
    fast = pts @ np.ones(d)
    labels = (fast >= half).astype(int)
    gamma = d * 2.0**-53 / (1.0 - d * 2.0**-53)
    unsure = np.flatnonzero(~(np.abs(fast - half) > 2.0 * gamma * scale))
    labels[unsure] = pts[unsure].sum(axis=1) >= half
    return labels


def _holders(points: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """For each point p, count the corners c with p <= c: the boxes [0, c] holding p.

    Rows go in blocks of at most ``_BLOCK_ELEMENTS`` (point, box) pairs with one
    ``&=`` per axis, so no (n, k, d) temporary is built.
    """
    n, d = points.shape
    step = max(1, _BLOCK_ELEMENTS // max(1, corners.shape[0]))
    counts = np.empty(n, dtype=np.intp)
    for lo in range(0, n, step):
        block = points[lo : lo + step]
        inside = block[:, :1] <= corners[:, 0]
        for axis in range(1, d):
            inside &= block[:, axis, None] <= corners[:, axis]
        counts[lo : lo + step] = inside.sum(axis=1)
    return counts


def _maximal_boxes(boxes: np.ndarray) -> np.ndarray:
    """Distinct boxes [0, b] that lie in no other box, in lexicographic order."""
    boxes = np.unique(boxes, axis=0)
    # Rows are distinct, so a box that only its own row contains is maximal.
    return boxes[_holders(boxes, boxes) == 1]


def _inclusion_exclusion(boxes: np.ndarray, dyadic: bool) -> Interval:
    """Union volume of boxes [0, b_j] as the signed sum over subset minima.

    The minima of all subsets of the first ``h`` boxes form a table built by
    doubling: the subsets holding box j are the earlier rows cut by b_j.  Each
    subset of the other boxes cuts it into one block of at most
    ``_BLOCK_ELEMENTS``, and ``math.fsum`` rounds the sum of all blocks once.

    If the boxes are ``dyadic``, every term and the sum are exact.  Otherwise
    each term, a product of d coordinates that are exact or the rounded
    1 - t, errs by at most gamma_{2d-1} of its size, with gamma_k = k u / (1 - k u)
    and u = 2^-53 (Higham, 2002, sec. 3.1), and by d 2^-1075 from underflow;
    ``fsum`` adds u of the sum or 2^-1075.  Widening by 2(d + 2)u of the
    ``fsum`` of |terms| and 2^k d 2^-1074 covers these and the rounding of
    both ends.
    """
    k, d = boxes.shape
    h = min(k, 16, max(0, (_BLOCK_ELEMENTS // d).bit_length() - 1))
    mins = np.ones((1 << h, d))
    sign = np.full(1 << h, -1.0)  # (-1)^(|S| + 1), also -1 for the empty subset
    for j in range(h):
        np.minimum(mins[: 1 << j], boxes[j], out=mins[1 << j : 2 << j])
        sign[1 << j : 2 << j] = -sign[: 1 << j]
    tail = boxes[h:]
    blocks = []
    for mask in range(1 << len(tail)):
        chosen = [j for j in range(len(tail)) if mask >> j & 1]
        cut = tail[chosen].min(axis=0, initial=1.0)
        terms = np.minimum(mins, cut).prod(axis=1) * (sign * (-1) ** len(chosen))
        blocks.append(terms[1:] if mask == 0 else terms)  # skip the empty subset
    volume = math.fsum(itertools.chain.from_iterable(b.tolist() for b in blocks))
    if dyadic:
        return Interval(volume, volume)
    size = math.fsum(itertools.chain.from_iterable(np.abs(b).tolist() for b in blocks))
    pad = 2 * (d + 2) * 2.0**-53 * size + (1 << k) * d * 2.0**-1074
    return Interval(max(0.0, volume - pad), min(1.0, volume + pad))


def _bracket(boxes: np.ndarray) -> Interval:
    """De Caen's lower and Hunter's upper bound on the union of boxes [0, b_j].

    With volumes v_i and intersections W_ij = prod(min(b_i, b_j)), W_ii = v_i,
    the union lies between sum_i v_i^2 / sum_j W_ij (de Caen, Discrete Math.
    169, 1997) and S - T, with S = sum_i v_i and T the weight of a maximum
    spanning tree of W (Hunter, J. Appl. Prob. 13, 1976).  Prim's algorithm
    builds row u of W when node u joins the tree; W is never stored.

    Float error, u = 2^-53: v_i and W_ij (with 1 - t rounded in upper mode)
    err by under 2du relatively, S and T by (2d + k)u, the de Caen sum by
    (6d + 2k)u, and each product by d 2^-1075 from underflow.  As T <= S,
    widening by 8(d + k)u relatively and k d 2^-1074 absolutely covers these.
    """
    k, d = boxes.shape
    vols = boxes.prod(axis=1)
    row_sums = np.empty(k)
    best = np.full(k, -np.inf)  # heaviest edge from each node into the tree
    best[0] = 0.0
    joined = np.zeros(k, dtype=bool)
    tree = 0.0
    for _ in range(k):
        node = int(np.argmax(best))
        tree += float(best[node])
        joined[node] = True
        row = np.minimum(boxes[node], boxes).prod(axis=1)
        row_sums[node] = row.sum()
        np.maximum(best, row, out=best, where=~joined)
        best[node] = -np.inf
    de_caen = float(np.divide(vols**2, row_sums, out=np.zeros(k), where=row_sums > 0).sum())
    total = float(vols.sum())
    tol, tiny = 8 * (d + k) * 2.0**-53, k * d * 2.0**-1074
    low = max(0.0, de_caen * (1.0 - tol) - tiny)
    return Interval(low, min(1.0, total - tree + tol * total + tiny))


def union_box_volume(corners: np.ndarray, mode: str) -> Interval:
    """Bracket the volume of the union of boxes [0, t_j] (lower) or [t_j, 1] (upper).

    Duplicate boxes and boxes inside another box add nothing and are dropped;
    [t, 1] lies in [s, 1] iff -t <= -s, and negation is exact.  If at most
    ``EXACT_CORNER_CAP`` remain, inclusion-exclusion gives the volume up to a
    rounding bound, and exactly if every remaining t lies on the 2^-p grid
    with p = 53 // d: then 1 - t, each d-fold product of such numbers and
    their sum are multiples of 2^-pd of at most unit size.  Otherwise
    :func:`_bracket` bounds it.
    """
    if mode not in ("lower", "upper"):
        raise DomainError(f"mode must be 'lower' or 'upper', got {mode!r}")
    arr = np.asarray(corners, dtype=float)
    if arr.size == 0:
        return Interval(0.0, 0.0)
    arr = as_points(arr, arr.shape[-1])
    kept = _maximal_boxes(arr if mode == "lower" else -arr)
    boxes = kept if mode == "lower" else 1.0 + kept  # 1 + (-t) rounds as 1 - t does
    if boxes.shape[0] > EXACT_CORNER_CAP:
        return _bracket(boxes)
    scaled = kept * 2.0 ** (53 // kept.shape[1])
    return _inclusion_exclusion(boxes, bool((scaled == np.floor(scaled)).all()))


@dataclass(frozen=True)
class MonotoneFoolingPair:
    """Two monotone functions that agree with the probe on a transcript.

    The upper function is 1 except below some 0-classified point; the lower
    function is 0 except above some 1-classified point.  Their integrals differ
    by a ``gap`` in the interval, at least the closed form 1 - n 2^-d.
    """

    lower_corners: np.ndarray  # points the probe mapped to 0
    upper_corners: np.ndarray  # points the probe mapped to 1
    dim: int
    gap: Interval

    @property
    def ell(self) -> int:
        return self.lower_corners.shape[0]

    @property
    def n(self) -> int:
        return self.lower_corners.shape[0] + self.upper_corners.shape[0]

    def fplus_values(self, points: np.ndarray) -> np.ndarray:
        """1 at each (N, d) point except below some lower corner, where it is 0."""
        held = _holders(as_points(points, self.dim), self.lower_corners) > 0
        return np.where(held, 0.0, 1.0)

    def fminus_values(self, points: np.ndarray) -> np.ndarray:
        """0 at each (N, d) point except above some upper corner, where it is 1.

        p lies in [q, 1] iff -p <= -q; negation is exact, 1 - p is not (1 - 1e-17 == 1 - 2e-17).
        """
        held = _holders(-as_points(points, self.dim), -self.upper_corners) > 0
        return np.where(held, 1.0, 0.0)


def build_fooling_pair(points: np.ndarray, dim: int) -> MonotoneFoolingPair:
    """Split transcript points by the probe's value and bracket the gap.

    Classification always uses the probe step function, regardless of what
    oracle the algorithm was actually run on; that is exactly the adversary's
    move.  Repeated query points count in n but cannot change the volumes,
    and no lower box meets an upper one, so the gap lies in [0, 1].  Unless
    both volumes are exact, each end is widened by 2^-52, more than its two
    subtractions and the widening itself round by on [0, 1] (3 * 2^-54).
    """
    arr = as_points(points, dim)
    labels = threshold_values(arr)
    lower = union_box_volume(arr[labels == 0], "lower")
    upper = union_box_volume(arr[labels == 1], "upper")
    pad = 0.0 if lower.exact and upper.exact else 2.0**-52
    gap = Interval(max(0.0, (1.0 - lower.high) - upper.high - pad),
                   min(1.0, (1.0 - lower.low) - upper.low + pad))
    return MonotoneFoolingPair(arr[labels == 0], arr[labels == 1], dim, gap)


def certify(transcript: Transcript, dim: int) -> tuple[MonotoneFoolingPair, Certificate]:
    """The fooling pair of a probe transcript, and half its gap as the error floor.

    Raises :class:`ConsistencyError` unless f+ and f- both equal the probe's
    values on the transcript and the floor reaches :func:`error_lower_bound` - 1e-12.
    """
    pair = build_fooling_pair(transcript.points, dim)
    for name, values in (("f+", pair.fplus_values), ("f-", pair.fminus_values)):
        if not np.array_equal(values(transcript.points), transcript.values):
            raise ConsistencyError(f"{name} disagrees with the probe on the transcript")
    value = pair.gap.low / 2.0
    theorem = error_lower_bound(pair.n, dim)
    if value < theorem - 1e-12:
        raise ConsistencyError(f"certified bound {value} fell below the closed form {theorem}")
    return pair, Certificate(value, 0.0, Interval(value, pair.gap.high / 2.0), theorem,
                             "exact" if pair.gap.exact else "bracket")


def error_lower_bound(n: int, dim: int) -> float:
    """Worst-case error floor max(0, (1 - n 2^-d) / 2) for n queries.

    Each query spans a box [0, x] with sum(x) <= d/2, or [x, 1], which is
    such a box after x -> 1 - x.  By AM-GM its volume is at most
    (sum(x) / d)^d <= 2^-d, with equality at the centre.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if dim < 1:
        raise DomainError("dimension must be positive")
    return max(0.0, 0.5 * (1.0 - n * 2.0 ** (-dim)))


def complexity_lower_bound(eps: float, dim: int) -> int:
    """Minimal query count forced on any algorithm with error <= eps.

    Evaluates ceil(2^d (1 - 2 eps)) in exact integer arithmetic, with
    eps = p / q taken exactly from the float, so the integer is right for
    every d.  Accuracies eps >= 1/2 cost nothing.
    """
    if dim < 1:
        raise DomainError("dimension must be positive")
    if not eps > 0.0:
        raise DomainError("eps must be positive")
    if eps >= 0.5:
        return 0
    p, q = eps.as_integer_ratio()
    return -(-((q - 2 * p) << dim) // q)
