"""Encoder and decoders for the confidential-message broadcast code.

One construction serves both rate cases of the two-layer codebook: the
columns fall into k near-equal classes (column j in class j mod k), and
the confidential message is (class, row, common). Below the sub-codebook
rate (case B) a stochastic encoder spreads each message over the columns
of its class, forcing the non-legitimated node to spend its full rate on
the column index. When the rate needs the whole sub-codebook plus part of
the first layer (case A), k is the number of columns: each class is one
column and the encoder is deterministic.

Decoders are exhaustive weak-typicality searches returning the unique
message-level hit, or the in-band erasure -1 on zero or multiple hits. The
encoder, the channel sampler and the decoders work on arrays of blocks;
the randomness (codeword cells, uniforms) is drawn by the caller, so each
block's draws can come from its own stream.
"""

from typing import Optional

import numpy as np

from .channel import BroadcastChannel
from .codebook import Codebook, TypicalityScorer, _sample_rows, decoding_joint
from .exceptions import GuardError, ValidationError

MAX_CANDIDATES = 1 << 20


def make_partition(j_size: int, k_size: int) -> np.ndarray:
    """The column classes h(j) = j mod k_size, an array (j_size,); class
    sizes differ by at most one, so max <= 2 * min."""
    if not 1 <= k_size <= j_size:
        raise ValidationError(f"make_partition: need 1 <= k_size <= j_size, got {k_size}, {j_size}")
    return np.arange(j_size) % k_size


class MessageSets:
    """Message index sets and the map from codeword cells (column, row,
    common) to confidential messages.

    The columns fall into k_size classes by `column_class` (make_partition),
    and the confidential message is the triple (class, row, common); it owns
    the cells of its class's columns, among which the encoder picks
    uniformly. Case A (k_size None) is the partition with one column per
    class, so each message owns one cell and the encoder is deterministic.
    Case B (k_size given) bins the columns and uses the single sentinel
    common message 0.
    """

    def __init__(self, params, k_size: Optional[int] = None):
        k = params.j_size if k_size is None else k_size
        self.column_class = make_partition(params.j_size, k)
        if k_size is not None and params.m0_size != 1:
            raise ValidationError("MessageSets: case B uses the single sentinel common message")
        self.mc_shape = (k, params.l_size, params.m0_size)
        cells = np.ix_(self.column_class, np.arange(params.l_size), np.arange(params.m0_size))
        self.cell_mc = np.ravel_multi_index(cells, self.mc_shape)
        self.mc_size = int(np.prod(self.mc_shape))
        self.cells_per_mc = np.bincount(self.cell_mc.reshape(-1), minlength=self.mc_size)

    @classmethod
    def case_b(cls, params, k_size: int) -> "MessageSets":
        return cls(params, k_size)

    def cell(self, mc: int, rng) -> tuple:
        """Codeword cell (column, row, common) carrying message mc, uniform
        among its cells in ascending order: the i-th column of class c is
        c + k i. A single-cell message draws no random state."""
        if not 0 <= mc < self.mc_size:
            raise ValidationError(f"MessageSets: confidential index {mc} outside [0, {self.mc_size})")
        i = int(rng.integers(self.cells_per_mc[mc]))
        k, l_size, m0_size = self.mc_shape
        cl, m0 = divmod(int(mc), m0_size)  # mc in digits (class, row, common)
        c, l = divmod(cl, l_size)
        return (c + k * i, l, m0)


def encode(cells, m1, m2, cb: Codebook, uniforms) -> np.ndarray:
    """Map a batch of codeword cells and messages to input words (..., n).

    `cells` (..., 3) holds each block's (column, row, common) cell, as
    `MessageSets.cell` draws it for the confidential message (the
    stochastic part of the case-B encoder); `m1`, `m2` (...) are the two
    bidirectional messages and `uniforms` (..., n) the uniforms in [0, 1)
    that sample the input word symbol by symbol from P(x|v).
    """
    p = cb.params
    j, l, m0 = np.moveaxis(np.asarray(cells, dtype=np.int64), -1, 0)
    m1, m2 = np.asarray(m1, dtype=np.int64), np.asarray(m2, dtype=np.int64)
    for name, idx, size in (("j", j, p.j_size), ("l", l, p.l_size), ("m0", m0, p.m0_size),
                            ("m1", m1, p.m1_size), ("m2", m2, p.m2_size)):
        if np.any((idx < 0) | (idx >= size)):
            raise ValidationError(f"encode: {name} index outside [0, {size})")
    uniforms = np.asarray(uniforms, dtype=np.float64)
    if uniforms.shape[-1:] != (p.n,):
        raise ValidationError(f"encode: uniforms of shape {uniforms.shape} do not end in the blocklength {p.n}")
    cdf_xv = np.cumsum(cb.chain.pxv.rows, axis=1)
    return _sample_rows(cdf_xv, cb.v_words[j, l, m0, m1, m2], uniforms)


def transmit(x_words, ch: BroadcastChannel, uniforms) -> tuple:
    """Pass a batch of input words x_words (..., n) through the memoryless
    channel, one symbol per uniform of `uniforms` (..., n); returns (y1, y2)."""
    x_words = np.asarray(x_words, dtype=np.int64)
    uniforms = np.asarray(uniforms, dtype=np.float64)
    if uniforms.shape != x_words.shape:
        raise ValidationError(f"transmit: uniforms of shape {uniforms.shape}, input words {x_words.shape}")
    if np.any((x_words < 0) | (x_words >= ch.x_size)):
        raise ValidationError(f"transmit: an input symbol is outside [0, {ch.x_size})")
    flat = ch.tensor.reshape(ch.x_size, -1)
    cdf = np.cumsum(flat, axis=1)
    pairs = _sample_rows(cdf, x_words, uniforms)
    y1, y2 = np.unravel_index(pairs, (ch.y1_size, ch.y2_size))
    return y1, y2


def _check_batch(who: str, y, known, size: int) -> tuple:
    """Validate a decoder's batch, received words (T, n) and the decoding
    node's own messages (T,); returns both as arrays."""
    y, known = np.asarray(y), np.asarray(known, dtype=np.int64)
    if y.ndim != 2 or known.shape != y.shape[:1]:
        raise ValidationError(f"{who}: need words (T, n) and messages (T,), got {y.shape} and {known.shape}")
    if np.any((known < 0) | (known >= size)):
        raise ValidationError(f"{who}: own message outside [0, {size})")
    return y, known


def _unique_hit(hits: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Per row of hits (T, C): the key all hit candidates share, or -1 when
    no candidate hits or the hits carry more than one key."""
    first = keys[hits.argmax(axis=1)]
    agree = ~(hits & (keys != first[:, None])).any(axis=1)
    return np.where(hits.any(axis=1) & agree, first, -1)


def _decode(scorer: TypicalityScorer, y, own, keys, words_for) -> np.ndarray:
    """The decoders' shared loop over trials with received words y (T, n)
    and own messages `own` (T,): per trial, the key (of `keys`, one per
    candidate, in the candidates' array shape) that every candidate typical
    with its word shares, or -1 (see _unique_hit).

    Trials that share their own message m share one typicality call against
    words_for(m), the candidates' codewords in the scorer's axis order
    before the received word, each a view of the codebook broadcasting to
    (keys' shape, n); a term that does not depend on an index axis is
    computed once for all of it.
    """
    out = np.empty(own.shape, dtype=np.int64)
    flat_keys = keys.reshape(-1)
    for m in sorted(set(own.tolist())):
        rows = np.flatnonzero(own == m)
        y_rows = y[rows].reshape((rows.size,) + (1,) * keys.ndim + y.shape[-1:])
        hits = scorer.mask(*words_for(m), y_rows)
        out[rows] = _unique_hit(hits.reshape(rows.size, -1), flat_keys)
    return out


class Node1Decoder:
    """Exhaustive typicality decoder at the legitimate node.

    Knows its own message m1; searches all (column, row, common index,
    node-2 message) candidates, the codebook's own index axes, for joint
    typicality of (first-layer word, sub-word, received word), within the
    slack `epsilon`, and reports the unique message-level hit.
    """

    def __init__(self, cb: Codebook, ms: MessageSets, epsilon: float):
        p = cb.params
        self.candidates = p.m0_size * p.m2_size * p.j_size * p.l_size
        if self.candidates > MAX_CANDIDATES:
            raise GuardError(
                f"Node1Decoder: {self.candidates} candidate tuples exceeds the limit {MAX_CANDIDATES}"
            )
        self.cb = cb
        self.scorer = TypicalityScorer(decoding_joint(cb, 1), epsilon)
        self._key = ms.cell_mc[..., None] * p.m2_size + np.arange(p.m2_size)  # (j, l, m0, m2)

    def _words_for(self, m1: int) -> tuple:
        return self.cb.u_words[:, m1], self.cb.v_words[:, :, :, m1]

    def __call__(self, y1, m1) -> tuple:
        """Decode a batch: received words y1 (T, n), own messages m1 (T,).

        Returns (mc, m2), two integer arrays (T,), with -1 in both where the
        decoder erases (no hit, or hits on more than one message).
        """
        y1, m1 = _check_batch("Node1Decoder", y1, m1, self.cb.params.m1_size)
        key = _decode(self.scorer, y1, m1, self._key, self._words_for)
        mc, m2 = np.divmod(key, self.cb.params.m2_size)
        erased = key < 0
        return np.where(erased, -1, mc), np.where(erased, -1, m2)


class Node2Decoder:
    """First-layer typicality decoder at the non-legitimated node; knows m2,
    searches all (common index, node-1 message) candidates for typicality
    within the slack `epsilon` and reports the unique node-1 message among
    the hits."""

    def __init__(self, cb: Codebook, epsilon: float):
        p = cb.params
        self.candidates = p.m0_size * p.m1_size
        self.cb = cb
        self.scorer = TypicalityScorer(decoding_joint(cb, 2).sum(axis=1), epsilon)
        self._key = np.broadcast_to(np.arange(p.m1_size), (p.m0_size, p.m1_size))  # (m0, m1)

    def _words_for(self, m2: int) -> tuple:
        return (self.cb.u_words[:, :, m2],)

    def __call__(self, y2, m2) -> np.ndarray:
        """Decode a batch: received words y2 (T, n), own messages m2 (T,).

        Returns the decoded node-1 messages (T,), -1 where the decoder
        erases.
        """
        y2, m2 = _check_batch("Node2Decoder", y2, m2, self.cb.params.m2_size)
        return _decode(self.scorer, y2, m2, self._key, self._words_for)
