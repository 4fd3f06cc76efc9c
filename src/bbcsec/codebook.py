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

    A sample log-probability depends on the tuple only through its joint
    type (the method of types), so `mask` scores from symbol counts: the
    last axis is the received side, the others combine into one codeword
    symbol of A = their alphabets' product values, and each pair of a
    codeword and a received word is scored from its |Y| x A counts. A call
    on c codewords and t received words of length n holds n (c A + t |Y|)
    one-hot entries, t c |Y| A counts and two score arrays of t c entries.
    """

    def __init__(self, joint: np.ndarray, epsilon: float):
        self.epsilon = float(epsilon)
        if not self.epsilon >= 0.0:
            raise ValidationError(f"TypicalityScorer: epsilon={epsilon} must be nonnegative")
        self._sizes = joint.shape
        last = joint.ndim - 1
        self._zero_cells = np.argwhere(joint.reshape(-1, joint.shape[-1]) <= 0.0).tolist()
        # per subset: whether it reads the codeword and the received side,
        # its log-probabilities over the (codeword, received) cells it reads
        # (zero-probability cells left out: the zero cells of the joint
        # reject them), and its entropy
        self._subsets = []
        for r in range(1, joint.ndim + 1):
            for sub in combinations(range(joint.ndim), r):
                marg = joint.sum(axis=tuple(a for a in range(joint.ndim) if a not in sub), keepdims=True)
                with np.errstate(divide="ignore"):
                    logp = np.log2(marg)
                sides = (sub[0] < last, sub[-1] == last)  # reads the codeword side, the received side
                cells = (joint.shape[:-1] if sides[0] else marg.shape[:-1]) + marg.shape[-1:]
                lifted = np.broadcast_to(logp, cells).reshape(-1, marg.shape[-1])
                terms = [(a, y, lp) for (a, y), lp in np.ndenumerate(lifted) if lp > -math.inf]
                self._subsets.append((sides, terms, _entropy(marg)))

    def block_shape(self, codewords: int, n: int, entries: int) -> tuple:
        """(received words, codewords) of the largest call against `codewords`
        codewords of length n whose arrays hold at most `entries` entries:
        every codeword and as many received words as fit or, when one
        received word against every codeword needs more, one received word
        and as many codewords as fit (at least one of each)."""
        *word_sizes, ny = self._sizes
        na = math.prod(word_sizes)
        per_pair = ny * na + 2  # the counts and score entries of one (codeword, received word) pair
        per_codeword = na * n + per_pair  # with its one-hot word, against one received word
        if codewords * per_codeword + ny * n <= entries:
            return (entries - codewords * na * n) // (ny * n + codewords * per_pair), codewords
        return 1, max(1, (entries - ny * n) // per_codeword)

    def mask(self, *seqs) -> np.ndarray:
        """Typicality of a batch of tuples, one sequence per axis of the joint.

        Each sequence is an array (..., n) of integer symbols within its
        axis's alphabet. The leading axes of all sequences broadcast against
        each other, and the result is a bool array of that broadcast shape
        (0-d for one tuple of 1-D sequences).
        The counts of every (codeword, received word) pair come from one
        matrix product of one-hot words; each subset's sample
        log-probability is its counts times its log-probabilities, summed
        over its cells in one fixed order, and a subset of codeword axes
        only (received axis only) is scored once per codeword (received
        word). Counts are exact, so each entry is exactly the one-tuple test
        of its tuple.
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

        *word_sizes, ny = self._sizes
        na = math.prod(word_sizes)
        word = np.zeros(n, dtype=np.int64)  # the combined codeword symbol
        for arr, size in zip(arrays, word_sizes):
            word = word * size + arr
        s, ry, rw, order, word, received = _split_batch(batch, word, arrays[-1])
        # one-hot words, (s, |Y|, ry, n) and (s, n, A, rw): the counts come
        # out (s, |Y|, ry, A, rw), each cell's counts a block of rows
        one_y = (received[:, None] == np.arange(ny)[:, None, None]).astype(np.float64)
        one_w = (word.transpose(0, 2, 1)[:, :, None] == np.arange(na)[:, None]).astype(np.float64)
        counts = (one_y.reshape(s, ny * ry, n) @ one_w.reshape(s, n, na * rw)).reshape(s, ny, ry, na, rw)
        tables = {(True, True): counts,
                  (True, False): one_w.sum(axis=1).reshape(s, 1, 1, na, rw),
                  (False, True): one_y.sum(axis=3).reshape(s, ny, ry, 1, 1)}
        ok = np.ones((s, ry, rw), dtype=bool)
        for a, y in self._zero_cells:
            ok &= counts[:, y, :, a] == 0.0
        for sides, terms, h in self._subsets:
            table = tables[sides]
            total = np.zeros((s, table.shape[2], table.shape[4]))  # n times the sample log-probability
            term = np.empty_like(total)
            for a, y, lp in terms:
                total += np.multiply(table[:, y, :, a], lp, out=term)
            total /= -n
            total -= h
            ok &= np.abs(total, out=total) <= self.epsilon
        return ok.reshape([batch[i] for i in order]).transpose(np.argsort(order))


def _split_batch(batch: tuple, word: np.ndarray, received: np.ndarray) -> tuple:
    """Lay the batch axes out for one matrix product: axes where both the
    codewords and the received words vary (s of them in all), then the
    received words' own (ry), the codewords' own (rw), and the rest.
    Returns (s, ry, rw, order, word (s, rw, n), received (s, ry, n)), where
    `order` lists the batch axes in that layout."""
    b = len(batch)
    word, received = (arr.reshape((1,) * (b + 1 - arr.ndim) + arr.shape) for arr in (word, received))
    kinds = [2 * (wd != 1) + (yd != 1) for wd, yd in zip(word.shape[:-1], received.shape[:-1])]
    order = sorted(range(b), key=lambda i: (3, 1, 2, 0).index(kinds[i]))
    s, ry, rw = (math.prod(batch[i] for i in range(b) if kinds[i] == kind) for kind in (3, 1, 2))
    n = word.shape[-1]
    return (s, ry, rw, order, word.transpose(order + [b]).reshape(s, rw, n),
            received.transpose(order + [b]).reshape(s, ry, n))


def decoding_joint(cb: Codebook, node: int) -> np.ndarray:
    """Joint law over (first layer, second layer, output of node 1 or 2)
    with the physical input and the other output summed out; the law the
    decoders test typicality against."""
    if _as_count("decoding_joint: node", node) > 2:
        raise ValidationError(f"decoding_joint: node must be 1 or 2, got {node}")
    full = chain_joint(cb.chain, cb.channel)
    return full.sum(axis=(2, 5 - node))
