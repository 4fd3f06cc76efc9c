"""Discrete memoryless broadcast channel W(y1,y2|x) and its file format.

The channel spec file is JSON with fields `x_size`, `y1_size`, `y2_size`
and exactly one of `joint` (nested array indexed [x][y1][y2]) and
`marginals` {`w1`, `w2`}, which implies the conditionally independent
product coupling.
Validation is strict at load; nothing is renormalized.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import jsonio
from .exceptions import ValidationError
from .probability import CondDist, Dist, _as_prob_array


@dataclass(frozen=True, eq=False)
class BroadcastChannel:
    """Conditional law W(y1,y2|x) on finite alphabets, tensor shape (x, y1, y2)."""

    tensor: np.ndarray = field(repr=False)
    marginals: tuple = field(init=False, repr=False)  # (W1, W2), see marginal()

    def __post_init__(self):
        object.__setattr__(self, "tensor", _as_prob_array(self.tensor, 3, "BroadcastChannel", row_axis="x"))
        object.__setattr__(self, "marginals", (
            MarginalChannel(self.tensor.sum(axis=2)),
            MarginalChannel(self.tensor.sum(axis=1)),
        ))

    @property
    def x_size(self) -> int:
        return self.tensor.shape[0]

    @property
    def y1_size(self) -> int:
        return self.tensor.shape[1]

    @property
    def y2_size(self) -> int:
        return self.tensor.shape[2]


@dataclass(frozen=True, eq=False)
class MarginalChannel:
    """Single-node transition matrix Wi(y|x), rows indexed by x."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_prob_array(self.matrix, 2, "MarginalChannel", row_axis="x"))


def marginal(ch: BroadcastChannel, node: int) -> MarginalChannel:
    """Per-node transition matrix, the other node's outputs summed out; built
    and validated once, with the channel."""
    if node not in (1, 2):
        raise ValidationError(f"marginal: node must be 1 or 2, got {node}")
    return ch.marginals[node - 1]


def from_marginals(w1, w2) -> BroadcastChannel:
    """Product coupling W(y1,y2|x) = W1(y1|x) W2(y2|x).

    The rate regions depend on the marginals only, so this coupling is
    without loss of generality for region computations.
    """
    m1 = (w1 if isinstance(w1, MarginalChannel) else MarginalChannel(w1)).matrix
    m2 = (w2 if isinstance(w2, MarginalChannel) else MarginalChannel(w2)).matrix
    if m1.shape[0] != m2.shape[0]:
        raise ValidationError(
            f"from_marginals: input alphabets differ ({m1.shape[0]} vs {m2.shape[0]})"
        )
    return BroadcastChannel(m1[:, :, None] * m2[:, None, :])


def binary_symmetric(p: float) -> np.ndarray:
    """Binary symmetric transition matrix with crossover probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"binary_symmetric: crossover {p} outside [0, 1]")
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def _read_json(path, what: str, fields: tuple) -> dict:
    """Parse a JSON object file that must contain the given fields."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    for key in fields:
        if key not in raw:
            raise ValidationError(f"{path}: missing field {key!r}")
    return raw


def load_channel(path) -> BroadcastChannel:
    names = ("x_size", "y1_size", "y2_size")
    raw = _read_json(path, "channel", names)
    for name in names:
        # bool is an int subclass; 2.0 and "2" are not JSON integers
        if type(raw[name]) is not int:
            raise ValidationError(f"{path}: {name} must be a JSON integer, got {raw[name]!r}")
    shape = tuple(raw[name] for name in names)

    if "joint" in raw and "marginals" in raw:
        raise ValidationError(f"{path}: give only one of 'joint' and 'marginals'")
    if "joint" in raw:
        ch = BroadcastChannel(raw["joint"])
        if ch.tensor.shape != shape:
            raise ValidationError(f"{path}: joint has shape {ch.tensor.shape}, expected {shape}")
    elif "marginals" in raw:
        m = raw["marginals"]
        if not isinstance(m, dict) or "w1" not in m or "w2" not in m:
            raise ValidationError(f"{path}: marginals must contain 'w1' and 'w2'")
        w1 = MarginalChannel(m["w1"])
        w2 = MarginalChannel(m["w2"])
        if w1.matrix.shape != (shape[0], shape[1]):
            raise ValidationError(f"{path}: w1 has shape {w1.matrix.shape}, expected {(shape[0], shape[1])}")
        if w2.matrix.shape != (shape[0], shape[2]):
            raise ValidationError(f"{path}: w2 has shape {w2.matrix.shape}, expected {(shape[0], shape[2])}")
        ch = from_marginals(w1, w2)
    else:
        raise ValidationError(f"{path}: need either 'joint' or 'marginals'")
    return ch


def save_channel(ch: BroadcastChannel, path) -> None:
    doc = {
        "x_size": ch.x_size,
        "y1_size": ch.y1_size,
        "y2_size": ch.y2_size,
        "joint": ch.tensor,
    }
    jsonio.dump(doc, path)


def load_chain_file(path):
    """Read an auxiliary-chain file: fields p_u, p_v_given_u, p_x_given_v."""
    raw = _read_json(path, "chain", ("p_u", "p_v_given_u", "p_x_given_v"))
    return Dist(raw["p_u"]), CondDist(raw["p_v_given_u"]), CondDist(raw["p_x_given_v"])
