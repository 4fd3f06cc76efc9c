"""Two-layer random codebook and weak joint-typicality tests.

The first layer carries the bidirectional/common indices; for each
first-layer word there is a sub-codebook indexed by (column, row) whose
words are drawn symbolwise from the second-layer conditional. Codewords
live on the second-layer alphabet: the input-randomization law P(x|v) is
folded into an effective channel, and the physical input is sampled per
symbol at transmit time.
"""

import math
from dataclasses import asdict, dataclass, field
from itertools import combinations

import numpy as np

from .channel import BroadcastChannel
from .exceptions import ValidationError, _guard
from .probability import _as_count, _as_indices, _entropy, chain_joint
from .region import AuxChain

MAX_CODEBOOK_SYMBOLS = 1 << 24  # total stored symbols across all sub-codewords


@dataclass(frozen=True)
class CodebookParams:
    """Blocklength and index-set sizes (>= 1) and the seed (>= 0), Python ints."""

    n: int
    m0_size: int = 1
    m1_size: int = 1
    m2_size: int = 1
    j_size: int = 1
    l_size: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "m0_size", "m1_size", "m2_size", "j_size", "l_size", "seed"):
            value, low = getattr(self, name), 0 if name == "seed" else 1
            object.__setattr__(self, name, _as_count(f"CodebookParams: {name}", value, low))

    @property
    def mprime_shape(self) -> tuple:
        return (self.m0_size, self.m1_size, self.m2_size)

    @property
    def word_count(self) -> int:
        return self.j_size * self.l_size * self.m0_size * self.m1_size * self.m2_size

    def rates(self) -> dict:
        """Code rates in bits per channel use for each index set."""
        return {
            "m0": math.log2(self.m0_size) / self.n,
            "m1": math.log2(self.m1_size) / self.n,
            "m2": math.log2(self.m2_size) / self.n,
            "j": math.log2(self.j_size) / self.n,
            "l": math.log2(self.l_size) / self.n,
        }


@dataclass(frozen=True, eq=False)
class Codebook:
    """Generated codeword arrays plus the chain and channel that drew them.

    u_words: int64 array (m0, m1, m2, n); v_words: int64 array
    (j, l, m0, m1, m2, n), wide enough for every admissible alphabet and
    indexable without a cast. The first-layer triple is (common index,
    message from node 1, message from node 2) throughout: node i knows its
    own entry and decodes the other one.
    """

    params: CodebookParams
    chain: AuxChain
    channel: BroadcastChannel
    u_words: np.ndarray = field(repr=False)
    v_words: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "chain": self.chain.to_dict(),
            "u_words": self.u_words,
            "v_words": self.v_words,
        }


def _sample_rows(cdf_rows: np.ndarray, cond_idx: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling: one draw per uniform, from the row of cdf_rows
    that cond_idx (broadcast against uniforms) selects."""
    cdf = cdf_rows[cond_idx]
    out = (uniforms[..., None] > cdf).sum(axis=-1)
    return np.minimum(out, cdf_rows.shape[1] - 1)


def _uniform_index(uniforms, size):
    """Inverse-CDF draws from the uniform law on [0, size), `size` broadcast: min(floor(u size), size - 1)."""
    return np.minimum(np.floor(uniforms * size).astype(np.int64), size - 1)


def _check_code(params: CodebookParams, chain: AuxChain, ch: BroadcastChannel) -> None:
    """generate's checks: one input alphabet, at most MAX_CODEBOOK_SYMBOLS stored symbols."""
    if chain.x_size != ch.x_size:
        raise ValidationError("generate: chain and channel disagree on the input alphabet")
    total = params.word_count * params.n
    _guard(total, MAX_CODEBOOK_SYMBOLS, f"generate: {total} stored symbols")


def generate(params: CodebookParams, chain: AuxChain, ch: BroadcastChannel) -> Codebook:
    """Draw the two-layer codebook; a pure function of (params, chain, channel)."""
    _check_code(params, chain, ch)
    rng = np.random.default_rng(params.seed)

    cdf_u = np.cumsum(chain.pu.probs)[None, :]
    u_draws = rng.random(params.mprime_shape + (params.n,))
    u_words = _sample_rows(cdf_u, 0, u_draws)

    cdf_vu = np.cumsum(chain.pvu.rows, axis=1)
    v_shape = (params.j_size, params.l_size) + params.mprime_shape + (params.n,)
    u_bcast = np.broadcast_to(u_words, v_shape)
    v_draws = rng.random(v_shape)
    v_words = _sample_rows(cdf_vu, u_bcast, v_draws)

    return Codebook(params, chain, ch, u_words, v_words)


@dataclass(frozen=True)
class RateCondition:
    """One rate comparison: the code's rate against an information bound.

    `exists_ok` is the codebook-existence direction (rate >= bound - delta);
    `reliable_ok` is the decodability direction (rate <= bound). Both are
    reported because they pull opposite ways.
    """

    name: str
    code_rate: float
    bound: float
    delta: float

    @property
    def exists_ok(self) -> bool:
        return self.code_rate >= self.bound - self.delta

    @property
    def reliable_ok(self) -> bool:
        return self.code_rate <= self.bound + 1e-12

    def to_dict(self) -> dict:
        return {**asdict(self), "exists_ok": self.exists_ok, "reliable_ok": self.reliable_ok}


def rate_check(params: CodebookParams, iq, delta: float) -> list:
    """The four rate conditions of the two-layer construction.

    Node 1 decodes the common index and node 2's message, node 2 the common
    index and node 1's message; the sub-codebook's column and row rates are
    checked against the second-layer terms.
    """
    if not 0.0 <= delta < math.inf:
        raise ValidationError(f"rate_check: delta={delta} must be nonnegative and finite")
    r = params.rates()
    return [
        RateCondition("first_layer_node1", r["m0"] + r["m2"], iq.iu1, delta),
        RateCondition("first_layer_node2", r["m0"] + r["m1"], iq.iu2, delta),
        RateCondition("column_index", r["j"], iq.iv2, delta),
        RateCondition("row_index", r["l"], iq.iv1 - iq.iv2, delta),
    ]


class TypicalityScorer:
    """Weak joint typicality against a joint law, vectorized over candidates.

    `joint` is an array with one axis per sequence, in the order `mask`
    takes them. A tuple is typical when, for the full tuple and every
    non-empty subset of its axes, the per-symbol sample log-probability is
    within epsilon of the corresponding marginal entropy; any
    zero-probability symbol combination fails regardless of epsilon.
    """

    def __init__(self, joint: np.ndarray, epsilon: float):
        self.epsilon = float(epsilon)
        if not self.epsilon >= 0.0:
            raise ValidationError(f"TypicalityScorer: epsilon={epsilon} must be nonnegative")
        self._sizes = joint.shape
        axes = range(joint.ndim)
        self._subsets = []
        for r in range(1, joint.ndim + 1):
            for sub in combinations(axes, r):
                marg = joint.sum(axis=tuple(a for a in axes if a not in sub))
                with np.errstate(divide="ignore"):
                    logp = np.log2(marg)
                self._subsets.append((sub, marg.shape, logp.reshape(-1), _entropy(marg)))

    def mask(self, *seqs) -> np.ndarray:
        """Typicality of a batch of tuples, one sequence per axis of the joint.

        Each sequence is an array (..., n) of integer symbols within its
        axis's alphabet. The leading axes of all sequences broadcast against
        each other, and the result is a bool array of that broadcast shape
        (0-d for one tuple of 1-D sequences).
        Each subset's terms are computed over the leading axes of its own
        sequences only, so a term that does not depend on an axis is
        evaluated once for all of that axis; each entry is exactly the
        one-tuple test of its tuple.
        """
        if len(seqs) != len(self._sizes):
            raise ValidationError(f"TypicalityScorer: {len(seqs)} sequences for a joint of {len(self._sizes)} axes")
        arrays = [np.asarray(seq) for seq in seqs]
        if any(arr.ndim < 1 for arr in arrays):
            raise ValidationError("TypicalityScorer: sequences must have a symbol axis")
        n = max(arr.shape[-1] for arr in arrays)
        for a, (arr, size) in enumerate(zip(arrays, self._sizes)):
            if arr.shape[-1] != n:
                raise ValidationError(f"TypicalityScorer: sequence {a} has length {arr.shape[-1]}, expected {n}")
            arrays[a] = _as_indices(f"TypicalityScorer: a symbol of sequence {a}", arr, size)
        try:
            batch = np.broadcast_shapes(*(arr.shape[:-1] for arr in arrays))
        except ValueError as exc:
            raise ValidationError(f"TypicalityScorer: batch shapes do not broadcast: {exc}") from None

        ok = np.ones(batch, dtype=bool)
        for sub, shape, logp_flat, h in self._subsets:
            idx = arrays[sub[0]]
            for a, size in zip(sub[1:], shape[1:]):
                idx = idx * size + arrays[a]
            sample = -logp_flat[idx].sum(axis=-1) / n
            # log-probabilities are finite except -inf at zero-probability
            # symbols, so `sample` is finite exactly when none occurs
            ok &= np.isfinite(sample) & (np.abs(sample - h) <= self.epsilon)
        return ok


def decoding_joint(cb: Codebook, node: int) -> np.ndarray:
    """Joint law over (first layer, second layer, output of node 1 or 2)
    with the physical input and the other output summed out; the law the
    decoders test typicality against."""
    if node not in (1, 2):
        raise ValidationError(f"decoding_joint: node must be 1 or 2, got {node}")
    full = chain_joint(cb.chain, cb.channel)
    return full.sum(axis=(2, 5 - node))
