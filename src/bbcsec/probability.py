"""Finite-alphabet distributions, the five-axis chain joint, and the
package's one scalar entropy.

The types are immutable after construction and validated there (finite, no
negative entries, mass within 1e-9 of one); nothing renormalizes silently.
Every count and index the package accepts is checked here, as an integer.
The chain joint is a plain read-only array; its marginals are axis sums.
Entropies are in bits. Information terms are computed elsewhere: the
region's in the `_core` kernel, the simulator's reference terms from
entropies of the chain joint's marginals.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ValidationError

MASS_TOL = 1e-9


def _numeric(values) -> bool:
    """Whether values is a number, an integer or float array, or nested
    lists of those; booleans, strings and None are not numbers. A loop, not
    recursion, so any nesting depth a JSON file can hold is answered."""
    stack = [values]
    while stack:
        v = stack.pop()
        if isinstance(v, (list, tuple)):
            stack.extend(v)
        elif isinstance(v, np.ndarray):
            if v.dtype.kind not in "iuf":
                return False
        elif isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
            return False
    return True


def _as_prob_array(values, ndim: int, what: str, row_axis: Optional[str] = None) -> np.ndarray:
    """Validated read-only float64 copy of probability data.

    The data must be numeric, rectangular, `ndim`-dimensional, non-empty,
    finite and nonnegative. With `row_axis`, each slice along the first
    axis (named `row_axis` in messages) must have mass one; otherwise the
    whole array must.
    """
    if not _numeric(values):
        raise ValidationError(f"{what}: entries must be numbers, not booleans, strings or null")
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: not a rectangular numeric array ({exc})") from exc
    if arr.ndim != ndim:
        raise ValidationError(f"{what}: expected {ndim}-dimensional data, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{what}: empty")
    for bad, label in ((~np.isfinite(arr), "non-finite"), (arr < 0.0, "negative")):
        if np.any(bad):
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            raise ValidationError(f"{what}: {label} entry {arr[idx]!r} at index {idx}")
    rows = arr.reshape(arr.shape[0], -1) if row_axis else arr.reshape(1, -1)
    for i, row in enumerate(rows):
        total = math.fsum(row.tolist())
        if abs(total - 1.0) > MASS_TOL:
            where = f" at {row_axis}={i}" if row_axis else ""
            raise ValidationError(f"{what}: mass {total!r}{where} differs from 1 by more than {MASS_TOL}")
    arr.flags.writeable = False
    return arr


def _as_count(what: str, value, low: int = 1) -> int:
    """`value` as a Python int: an int or numpy integer, not a bool, at least `low`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{what} must be >= {low}, got {value}")
    return int(value)


def _as_indices(what: str, values, size: int) -> np.ndarray:
    """`values` as an int64 array whose entries are all integers in [0, size); an empty array passes."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValidationError(f"{what} must be an integer, got dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise ValidationError(f"{what} outside [0, {size})")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class Dist:
    """Probability distribution over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_prob_array(self.probs, 1, "Dist"))

    @property
    def size(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True, eq=False)
class CondDist:
    """Conditional distribution: one Dist per conditioning symbol (rows)."""

    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _as_prob_array(self.rows, 2, "CondDist", row_axis="row"))

    @property
    def dims(self) -> tuple:
        return self.rows.shape


def _entropy(probs: np.ndarray) -> float:
    """Entropy (bits) of the probabilities in `probs`, any shape, with
    0 log 0 = 0. The one scalar entropy of the package; it does not
    validate, so callers pass laws they built or validated."""
    q = probs[probs > 0.0]
    return float(-np.dot(q, np.log2(q)))


def chain_joint(chain, ch) -> np.ndarray:
    """Joint law of the chain U -> V -> X -> (Y1, Y2) of an `AuxChain` and a
    channel, a read-only array with axes (U, V, X, Y1, Y2).

    The factorization is exactly P(u) P(v|u) P(x|v) W(y1,y2|x); the Markov
    structure I(U;Y1,Y2|X) = 0 and I(U;X|V) = 0 holds by construction. It is
    a product of validated laws whose |U| and |V| the chain has checked, so
    only the input alphabet is checked against the channel here.
    """
    if chain.x_size != ch.x_size:
        raise ValidationError(f"chain_joint: P(x|v) emits {chain.x_size} symbols but channel expects {ch.x_size}")
    joint = np.einsum("u,uv,vx,xab->uvxab", chain.pu.probs, chain.pvu.rows, chain.pxv.rows, ch.tensor)
    joint.flags.writeable = False
    return joint
