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
the caller passes the uniforms that pick codeword cells, input symbols and
outputs, so one stream, read as a matrix of uniforms, serves any block size.
"""

from typing import Optional

import numpy as np

from .channel import BroadcastChannel
from .codebook import Codebook, TypicalityScorer, _sample_rows, _uniform_index, decoding_joint
from .exceptions import ValidationError, _guard
from .probability import _as_count, _as_indices

MAX_CANDIDATES = 1 << 20
_CHUNK_ROWS = 1 << 13  # a decoder block holds at most _CHUNK_ROWS x n entries; simulate reads it too


def make_partition(j_size: int, k_size: int) -> np.ndarray:
    """The column classes h(j) = j mod k_size, an array (j_size,), for integers
    j_size >= 1 and k_size in [1, j_size]; class sizes differ by at most one,
    so max <= 2 * min."""
    j_size = _as_count("make_partition: j_size", j_size)
    if _as_count("make_partition: k_size", k_size) > j_size:
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

    def cell(self, mc, u) -> np.ndarray:
        """Codeword cells (column, row, common), int64 (..., 3), of messages
        mc (...): the floor(u count)-th of mc's cells in ascending order, per
        uniform u in [0, 1) (broadcast against mc), for integers mc. The i-th
        column of class c is c + k i; a single-cell message has one cell for every u."""
        mc = _as_indices("MessageSets: a confidential index", mc, self.mc_size)
        c, l, m0 = np.unravel_index(mc, self.mc_shape)  # mc in digits (class, row, common)
        i = _uniform_index(u, self.cells_per_mc[mc])
        return np.stack(np.broadcast_arrays(c + self.mc_shape[0] * i, l, m0), axis=-1)


def encode(cells, m1, m2, cb: Codebook, uniforms) -> np.ndarray:
    """Map a batch of codeword cells and messages to input words (..., n).

    `cells` (..., 3) holds each block's (column, row, common) cell, as
    `MessageSets.cell` picks it from a uniform for the confidential message
    (the stochastic part of the case-B encoder); `m1`, `m2` (...) are the two
    bidirectional messages and `uniforms` (..., n) the uniforms in [0, 1)
    that sample the input word symbol by symbol from P(x|v). Indices are integers.
    """
    p = cb.params
    j, l, m0, m1, m2 = (_as_indices(f"encode: {name} index", idx, size) for name, idx, size in
                        zip(("j", "l", "m0", "m1", "m2"), (*np.moveaxis(np.asarray(cells), -1, 0), m1, m2),
                            (p.j_size, p.l_size, p.m0_size, p.m1_size, p.m2_size)))
    uniforms = np.asarray(uniforms, dtype=np.float64)
    if uniforms.shape[-1:] != (p.n,):
        raise ValidationError(f"encode: uniforms of shape {uniforms.shape} do not end in the blocklength {p.n}")
    cdf_xv = np.cumsum(cb.chain.pxv.rows, axis=1)
    return _sample_rows(cdf_xv, cb.v_words[j, l, m0, m1, m2], uniforms)


def transmit(x_words, ch: BroadcastChannel, uniforms) -> tuple:
    """Pass a batch of input words x_words (..., n), integer symbols in [0, |X|), through
    the memoryless channel, one symbol per uniform of `uniforms` (..., n); returns (y1, y2)."""
    uniforms = np.asarray(uniforms, dtype=np.float64)
    if uniforms.shape != np.shape(x_words):
        raise ValidationError(f"transmit: uniforms of shape {uniforms.shape}, input words {np.shape(x_words)}")
    x_words = _as_indices("transmit: an input symbol", x_words, ch.x_size)
    flat = ch.tensor.reshape(ch.x_size, -1)
    cdf = np.cumsum(flat, axis=1)
    pairs = _sample_rows(cdf, x_words, uniforms)
    y1, y2 = np.unravel_index(pairs, (ch.y1_size, ch.y2_size))
    return y1, y2


def _check_batch(who: str, y, known, size: int) -> tuple:
    """Validate a decoder's batch, received words (T, n) and the decoding
    node's own messages (T,), integers in [0, size); returns both as arrays."""
    y, known = np.asarray(y), np.asarray(known)
    if y.ndim != 2 or known.shape != y.shape[:1]:
        raise ValidationError(f"{who}: need words (T, n) and messages (T,), got {y.shape} and {known.shape}")
    return y, _as_indices(f"{who}: own message", known, size)


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

    Trials that share their own message m are scored against words_for(m),
    the candidates' codewords in the scorer's axis order before the received
    word, each a view of the codebook broadcasting to (keys' shape, n), in
    blocks of trials and of candidates in their flat order whose typicality
    calls hold at most _CHUNK_ROWS * n entries (`TypicalityScorer.block_shape`).
    """
    out = np.empty(own.shape, dtype=np.int64)
    flat_keys = keys.reshape(-1)
    t_block, c_block = scorer.block_shape(flat_keys.size, y.shape[-1], _CHUNK_ROWS * y.shape[-1])
    for m in sorted(set(own.tolist())):
        words = [np.broadcast_to(w, keys.shape + y.shape[-1:]) for w in words_for(m)]
        trials = np.flatnonzero(own == m)
        for t0 in range(0, trials.size, t_block):
            rows = trials[t0:t0 + t_block]
            hits = np.empty((rows.size, flat_keys.size), dtype=bool)
            for c0 in range(0, flat_keys.size, c_block):
                cand = np.unravel_index(np.arange(c0, min(c0 + c_block, flat_keys.size)), keys.shape)
                hits[:, c0:c0 + c_block] = scorer.mask(*(w[cand] for w in words), y[rows, None])
            out[rows] = _unique_hit(hits, flat_keys)
    return out


def _node1_candidates(params) -> int:
    """Node1Decoder's candidate count, after its guard: at most MAX_CANDIDATES."""
    count = params.m0_size * params.m2_size * params.j_size * params.l_size
    _guard(count, MAX_CANDIDATES, f"Node1Decoder: {count} candidate tuples")
    return count


class Node1Decoder:
    """Exhaustive typicality decoder at the legitimate node.

    Knows its own message m1; searches all (column, row, common index,
    node-2 message) candidates, the codebook's own index axes, for joint
    typicality of (first-layer word, sub-word, received word), within the
    slack `epsilon`, and reports the unique message-level hit.
    """

    def __init__(self, cb: Codebook, ms: MessageSets, epsilon: float):
        p = cb.params
        self.candidates = _node1_candidates(p)
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
