"""Exact finite-alphabet probability and information measures.

Everything is base-2: entropies and mutual informations are in bits. The
types are immutable after construction and validated there (finite, no
negative entries, mass within 1e-9 of one); nothing renormalizes silently.
"""

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .exceptions import ValidationError

MASS_TOL = 1e-9

# Axis names of the full input/output chain, in canonical order.
CHAIN_AXES = ("U", "V", "X", "Y1", "Y2")


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


@dataclass(frozen=True, eq=False)
class Dist:
    """Probability distribution over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_prob_array(self.probs, 1, "Dist"))

    @classmethod
    def uniform(cls, size: int) -> "Dist":
        return cls(np.full(size, 1.0 / size))

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


@dataclass(frozen=True, eq=False)
class JointDist:
    """Joint distribution over named axes (a subset of U, V, X, Y1, Y2)."""

    axes: tuple
    tensor: np.ndarray = field(repr=False)

    def __post_init__(self):
        axes = tuple(self.axes)
        if len(set(axes)) != len(axes):
            raise ValidationError(f"JointDist: duplicate axis names in {axes}")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "tensor", _as_prob_array(self.tensor, len(axes), "JointDist"))


def _entropy_of_tensor(arr: np.ndarray) -> float:
    flat = arr.reshape(-1)
    pos = flat[flat > 0.0]
    # fsum keeps the chain-rule identities exact to ~1e-15
    return -math.fsum((p * math.log2(p) for p in pos.tolist()))


def entropy(d) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    if not isinstance(d, Dist):
        d = Dist(d)
    return _entropy_of_tensor(d.probs)


def marginalize(j: JointDist, keep: Iterable[str]) -> JointDist:
    """Sum out every axis not in `keep`, preserving axis order and mass."""
    keep = set(keep)
    unknown = keep - set(j.axes)
    if unknown:
        raise ValidationError(f"marginalize: unknown axes {sorted(unknown)}; joint has {j.axes}")
    kept = tuple(a for a in j.axes if a in keep)
    drop = tuple(i for i, a in enumerate(j.axes) if a not in keep)
    tensor = j.tensor.sum(axis=drop) if drop else j.tensor
    return JointDist(kept, tensor)


def _subset_entropy(j: JointDist, axes: set) -> float:
    if not axes:
        return 0.0
    return _entropy_of_tensor(marginalize(j, axes).tensor)


def conditional_mutual_information(j: JointDist, a, b, c=()) -> float:
    """I(A;B|C) in bits via H(A,C) + H(B,C) - H(A,B,C) - H(C).

    With empty C this is the plain mutual information I(A;B).
    """
    a, b, c = set(a), set(b), set(c)
    if (a & b) or (a & c) or (b & c):
        raise ValidationError("conditional_mutual_information: axis sets must be pairwise disjoint")
    for name, s in (("A", a), ("B", b), ("C", c)):
        unknown = s - set(j.axes)
        if unknown:
            raise ValidationError(f"conditional_mutual_information: {name} has unknown axes {sorted(unknown)}")
    if not a or not b:
        raise ValidationError("conditional_mutual_information: A and B must be non-empty")
    return (
        _subset_entropy(j, a | c)
        + _subset_entropy(j, b | c)
        - _subset_entropy(j, a | b | c)
        - _subset_entropy(j, c)
    )


def chain_joint(pu: Dist, pvu: CondDist, pxv: CondDist, ch) -> JointDist:
    """Joint law of the chain U -> V -> X -> (Y1, Y2) over all five axes.

    The factorization is exactly P(u) P(v|u) P(x|v) W(y1,y2|x); the Markov
    structure I(U;Y1,Y2|X) = 0 and I(U;X|V) = 0 holds by construction.
    """
    nu, nv = pvu.dims
    nv2, nx = pxv.dims
    if pu.size != nu:
        raise ValidationError(f"chain_joint: first layer has {pu.size} symbols but P(v|u) expects {nu}")
    if nv != nv2:
        raise ValidationError(f"chain_joint: P(v|u) emits {nv} symbols but P(x|v) expects {nv2}")
    if nx != ch.x_size:
        raise ValidationError(f"chain_joint: P(x|v) emits {nx} symbols but channel expects {ch.x_size}")
    tensor = np.einsum("u,uv,vx,xab->uvxab", pu.probs, pvu.rows, pxv.rows, ch.tensor)
    return JointDist(CHAIN_AXES, tensor)
