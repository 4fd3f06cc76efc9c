"""End-to-end simulation: error rates, equivocation, leakage.

Error probabilities come from Monte Carlo trials with uniform messages
(which realizes the average-error criterion). Equivocation is the
conditional entropy of the confidential message given the non-legitimated
node's output and side information; it is computed against the effective
second-layer channel, which is exact because the physical input is sampled
independently per symbol given the second-layer word.
"""

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .channel import BroadcastChannel, marginal
from .codebook import Codebook, CodebookParams, _check_code, _sample_rows, _uniform_index, generate
from .coding import _CHUNK_ROWS, MessageSets, Node1Decoder, Node2Decoder, _node1_candidates, encode, transmit
from .exceptions import ValidationError, _guard
from .probability import _as_count, _entropy, chain_joint
from .region import AuxChain, evaluate_chain

MAX_EXACT_SEQUENCES = 1 << 20
MAX_TABLE_ENTRIES = 1 << 28  # entries of one dense equivocation array (2 GiB of float64)


@dataclass(frozen=True)
class ErrorEstimate:
    """Empirical error frequency with a 95% confidence interval."""

    rate: float
    ci_low: float
    ci_high: float
    errors: int
    trials: int


def _binomial_ci(errors: int, trials: int) -> ErrorEstimate:
    """Normal-approximation CI, Wilson when either count is below 10; its
    ends are clipped to [0, 1] and to either side of the rate."""
    z = 1.959963984540054
    p = errors / trials
    if min(errors, trials - errors) < 10:
        denom = 1.0 + z * z / trials
        center = (p + z * z / (2 * trials)) / denom
        half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
        low, high = center - half, center + half
    else:
        half = z * math.sqrt(p * (1 - p) / trials)
        low, high = p - half, p + half
    return ErrorEstimate(p, max(0.0, min(low, p)), min(1.0, max(high, p)), errors, trials)


@dataclass(frozen=True)
class AsymptoticTerms:
    """Per-letter limits of the equivocation-bound terms.

    `sub_rate_limit` is the limit of the per-letter codeword entropy given
    the first-layer index (the sub-codebook rate); `h_out2_given_code` and
    `h_out2_given_cloud` condition the non-legitimated output on the coding
    symbol and on the cloud center. The Fano residual vanishes in the limit,
    so it is not a term. Their combination is iv1 - iv2, the secrecy bound
    before its clamp at zero.
    """

    sub_rate_limit: float
    h_out2_given_code: float
    h_out2_given_cloud: float

    @property
    def combination(self) -> float:
        return self.sub_rate_limit + self.h_out2_given_code - self.h_out2_given_cloud

    def to_dict(self) -> dict:
        return {**asdict(self), "combination": self.combination}


def asymptotic_terms(chain: AuxChain, ch: BroadcastChannel) -> AsymptoticTerms:
    """Evaluate the term limits from entropies of the chain joint's marginals.

    The coding alphabet is the second layer (input randomization folded
    in), so the output-given-input entropy conditions on it:
    I(V;Y1|U) = H(U,V) + H(U,Y1) - H(U,V,Y1) - H(U), H(Y2|V) = H(V,Y2) - H(V)
    and H(Y2|U) = H(U,Y2) - H(U), each marginal an axis sum of the joint.
    """
    t = chain_joint(chain, ch)  # axes U, V, X, Y1, Y2
    uvy1 = t.sum(axis=(2, 4))
    uvy2 = t.sum(axis=(2, 3))
    uv = uvy1.sum(axis=2)
    h_u = _entropy(uv.sum(axis=1))
    return AsymptoticTerms(
        sub_rate_limit=_entropy(uv) + _entropy(uvy1.sum(axis=1)) - _entropy(uvy1) - h_u,
        h_out2_given_code=_entropy(uvy2.sum(axis=0)) - _entropy(uv.sum(axis=0)),
        h_out2_given_cloud=_entropy(uvy2.sum(axis=1)) - h_u,
    )


# ---------------------------------------------------------------------------
# equivocation
# ---------------------------------------------------------------------------


def _effective_w2(cb: Codebook) -> np.ndarray:
    return cb.chain.pxv.rows @ marginal(cb.channel, 2).matrix


def _message_order(cb: Codebook, ms: MessageSets) -> tuple:
    """The sub-words of one side-information value, in (j, l, m0, m1)
    order, regrouped so each confidential message's words are adjacent.

    Returns (order, counts, starts, weights): the stable permutation that
    regroups them, the words per message, each message's first position in
    the new order, and P(word | its message) in the new order, uniform over
    the message's words (the encoder's cell times the node-2-unknown m1).
    """
    p = cb.params
    mc = np.broadcast_to(ms.cell_mc[..., None], (p.j_size, p.l_size, p.m0_size, p.m1_size)).reshape(-1)
    order = np.argsort(mc, kind="stable")
    counts = p.m1_size * ms.cells_per_mc
    starts = np.cumsum(counts) - counts
    return order, counts, starts, 1.0 / counts[mc[order]]


def _check_table(what: str, rows: int, cols: int) -> None:
    _guard(rows * cols, MAX_TABLE_ENTRIES, f"equivocation: {what} of {rows} x {cols} entries")


def _exact_split(p: CodebookParams, ny2: int) -> int:
    """The prefix length of equivocation_exact's output-word tables, after
    its resource guards: at most MAX_EXACT_SEQUENCES output words, and the
    prefix and chunk tables within MAX_TABLE_ENTRIES entries."""
    # compared in logs first, so a huge n builds no huge integer
    words = ny2 ** p.n if p.n * math.log2(ny2) <= math.log2(MAX_EXACT_SEQUENCES) + 1e-12 else math.inf
    _guard(words, MAX_EXACT_SEQUENCES, f"equivocation_exact: {ny2}^{p.n} output words")
    suffix_len = p.n
    while ny2 ** suffix_len > _CHUNK_ROWS and suffix_len > 1:
        suffix_len -= 1
    n_words = p.j_size * p.l_size * p.m0_size * p.m1_size
    _check_table("output-word chunk", ny2 ** suffix_len, n_words)
    _check_table("output-word prefix", ny2 ** (p.n - suffix_len), n_words)
    return p.n - suffix_len


def _check_mc(p: CodebookParams, ny2: int, samples: int) -> None:
    """equivocation_mc's guards: draws, and likelihood tables of |Y2| entries per stored symbol."""
    _check_table("Monte Carlo draws", samples, 1)
    _check_table("Monte Carlo likelihood tables", ny2, p.word_count * p.n)


def _step_tables(v_seqs: np.ndarray, wv2: np.ndarray) -> list:
    """Per-position likelihood factors: step[k][y, word] = P(y | word symbol k)."""
    return [wv2[v_seqs[:, k], :].T.copy() for k in range(v_seqs.shape[1])]


def _suffix_products(steps: list, n_words: int) -> np.ndarray:
    """Likelihood of every output sequence over the positions of `steps`
    (lexicographic rows) per word; one row of ones for no positions. One
    table, filled in place: before position k, the products over the earlier
    positions sit on the rows whose later digits are all 0, and each is
    multiplied out to its ny rows of digit k, in the order of a table built
    position by position."""
    ny = steps[0].shape[0] if steps else 1
    table = np.empty((ny ** len(steps), n_words))
    table[0] = 1.0  # every other row is written from the rows before it
    for k, step in enumerate(steps):
        rows = table.reshape(ny ** k, ny, -1, n_words)[:, :, 0]  # (products so far, digit k, word)
        for y in range(ny - 1, -1, -1):  # digit 0, on the products' own rows, last
            np.multiply(rows[:, 0], step[y], out=rows[:, y])
    return table


def _law_entropy(prefix: np.ndarray, suffix: np.ndarray) -> float:
    """Entropy (bits) of the law prefix @ suffix.T, formed in blocks of prefix rows of at most _CHUNK_ROWS entries."""
    rows = max(1, _CHUNK_ROWS // suffix.shape[0])
    return sum(_entropy(prefix[i:i + rows] @ suffix.T) for i in range(0, prefix.shape[0], rows))


def equivocation_exact(cb: Codebook, ms: MessageSets) -> float:
    """Exact conditional entropy (bits) of the confidential message given
    the non-legitimated node's full output word and its side information.

    The message is uniform and independent of m2, so by the chain rule
    H(Mc | Y2, m2) = log2|Mc| + H(Y2 | Mc, m2) - H(Y2 | m2). The law of all
    |Y2|^n output words given m2 is the product of the prefix and suffix
    likelihood tables, weighted by the word probabilities, reduced in blocks
    of prefix rows (`_law_entropy`). A message with a single word (case A
    with m1 = 1) has H(Y2 | mc, m2) in closed form, the sum over positions of
    the entropy of the word symbol's output row; a message with several
    words has its mixture law reduced the same way over its columns. Each
    term is clamped to [0, log2|Mc|], the quantity's exact range, so
    round-off never leaves it.
    """
    p = cb.params
    prefix_len = _exact_split(p, cb.channel.y2_size)
    wv2 = _effective_w2(cb)
    h_rows = np.array([_entropy(row) for row in wv2])  # H(Y2 | V = v) per letter

    order, counts, starts, weights = _message_order(cb, ms)
    n_words = order.size
    h_mc = math.log2(ms.mc_size)

    total = 0.0
    for m2 in range(p.m2_size):
        v_seqs = cb.v_words[:, :, :, :, m2].reshape(-1, p.n)[order]
        steps = _step_tables(v_seqs, wv2)
        prefix = _suffix_products(steps[:prefix_len], n_words)
        suffix = _suffix_products(steps[prefix_len:], n_words)

        h_out = _law_entropy(prefix * (weights / ms.mc_size), suffix)  # H(Y2 | m2)
        h_msg = h_rows[v_seqs[starts]].sum(axis=1)  # H(Y2 | mc, m2) of one-word messages
        for m in np.flatnonzero(counts > 1).tolist():
            cols = slice(starts[m], starts[m] + counts[m])
            h_msg[m] = _law_entropy(prefix[:, cols] * weights[cols], suffix[:, cols])
        total += min(max(h_mc + float(h_msg.sum()) / ms.mc_size - h_out, 0.0), h_mc) / p.m2_size
    return total


def _read_messages(u: np.ndarray, ms: MessageSets, p: CodebookParams) -> tuple:
    """(mc, m1, m2, cells (rows, 3)) picked by the first four columns of rows of uniforms (`_uniform_index`)."""
    mc, m1, m2 = (_uniform_index(u[:, c], size) for c, size in enumerate((ms.mc_size, p.m1_size, p.m2_size)))
    return mc, m1, m2, ms.cell(mc, u[:, 3])


def equivocation_mc(cb: Codebook, ms: MessageSets, samples: int, rng) -> tuple:
    """Plug-in Monte Carlo estimate of the same quantity.

    Each episode samples a transmission and evaluates the exact posterior
    of the confidential message for the received word; the estimator is the
    average of -log2(posterior at the true message) over `samples` >= 2
    episodes, an integer. Returns (estimate, standard error) in bits.

    Episode e reads row e of a matrix of uniforms of width 4 + n, drawn from
    `rng` block by block: mc, m1, m2, the codeword cell (`_read_messages`)
    and the n uniforms of the output word. Blocks keep their rows (episodes
    x sub-words) within _CHUNK_ROWS; within a block the likelihoods of the
    message-grouped words (`_message_order`) multiply position by position
    and each message's posterior mass is the sum of its segment, row by row,
    so no value depends on the block size. Its resource guards (`_check_mc`)
    are raised before any draw.
    """
    samples = _as_count("equivocation_mc: samples", samples, 2)
    p = cb.params
    _check_mc(p, cb.channel.y2_size, samples)
    wv2 = _effective_w2(cb)
    cdf_wv2 = np.cumsum(wv2, axis=1)

    order, _, starts, weights = _message_order(cb, ms)
    steps = [_step_tables(cb.v_words[:, :, :, :, m2].reshape(-1, p.n)[order], wv2) for m2 in range(p.m2_size)]

    vals = np.empty(samples)
    block = max(1, _CHUNK_ROWS // order.size)
    for start in range(0, samples, block):
        u = rng.random((min(block, samples - start), 4 + p.n))
        mc, m1, m2, cells = _read_messages(u, ms, p)
        y2 = _sample_rows(cdf_wv2, cb.v_words[(*cells.T, m1, m2)], u[:, 4:])

        for m in sorted(set(m2.tolist())):
            rows = np.flatnonzero(m2 == m)
            lik = np.ones((rows.size, order.size))
            for k_pos in range(p.n):
                lik *= steps[m][k_pos][y2[rows, k_pos]]
            # one segment per message; none is empty, since make_partition keeps k <= j
            post = np.add.reduceat(lik * weights, starts, axis=1)
            true_post = post[np.arange(rows.size), mc[rows]] / post.sum(axis=1)
            # math.log2, not np.log2, whose SIMD variants can differ in the last bit
            vals[start + rows] = [-math.log2(x) for x in true_post.tolist()]

    est = float(vals.mean())
    np.square(np.subtract(vals, est, out=vals), out=vals)  # vals.std(ddof=1)'s arithmetic, without its copy
    return est, math.sqrt(float(vals.sum()) / (samples - 1)) / math.sqrt(samples)


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """A full simulation request; the blocklength lives in the codebook
    parameters, the decoders' typicality slack `epsilon` here. Its counts
    and seed are stored as Python ints."""

    trials: int
    params: CodebookParams
    chain: AuxChain
    channel: BroadcastChannel
    equiv_mode: str = "exact"  # "exact" | "mc" | "none"
    mc_samples: int = 2000
    epsilon: float = 0.15
    seed: int = 0
    k_size: Optional[int] = None  # column classes; None gives one column per class (case A)

    def __post_init__(self):
        object.__setattr__(self, "trials", _as_count("SimConfig: trials", self.trials))
        if self.equiv_mode not in ("exact", "mc", "none"):
            raise ValidationError(f"SimConfig: unknown equivocation mode {self.equiv_mode!r}")
        object.__setattr__(self, "mc_samples", _as_count("SimConfig: mc_samples", self.mc_samples, 2))
        if not 0 < self.epsilon < math.inf:
            raise ValidationError("SimConfig: epsilon must be positive and finite")
        object.__setattr__(self, "seed", _as_count("SimConfig: seed", self.seed, 0))

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "n": self.params.n,
            "sizes": {k: getattr(self.params, f"{k}_size") for k in ("m0", "m1", "m2", "j", "l")},
            "epsilon": self.epsilon,
            "codebook_seed": self.params.seed,
            "equiv_mode": self.equiv_mode,
            "mc_samples": self.mc_samples,
            "seed": self.seed,
            "k_size": self.k_size,
            "chain": self.chain.to_dict(),
        }


@dataclass(frozen=True)
class SimReport:
    """Measured operational quantities plus the analytic reference terms."""

    e1: ErrorEstimate
    e2: ErrorEstimate
    equiv_rate: Optional[float]
    equiv_se: Optional[float]
    leakage_rate: Optional[float]
    confidential_rate: float
    equivocation_bound: float
    terms: AsymptoticTerms
    epsilon_n: float
    config: dict

    def to_dict(self) -> dict:
        return {
            "e1": asdict(self.e1),
            "e2": asdict(self.e2),
            "equivocation_rate": self.equiv_rate,
            "equivocation_se": self.equiv_se,
            "leakage_rate": self.leakage_rate,
            "confidential_rate": self.confidential_rate,
            "equivocation_bound": self.equivocation_bound,
            "asymptotic_terms": self.terms.to_dict(),
            "epsilon_n": self.epsilon_n,
            "config": self.config,
        }


def _run_trials(cfg: SimConfig, cb: Codebook, ms: MessageSets) -> tuple:
    """Error counts (node 1, node 2) over `cfg.trials` trials.

    Trial t reads row t of a matrix of uniforms of width 4 + 2n from one
    generator, default_rng((seed, 0)): mc, m1, m2, the codeword cell
    (`_read_messages`), the n encoder and the n channel uniforms. Encoding,
    transmission and both decoders run on arrays of trials, in blocks of as
    many trials as both decoders score in one typicality call
    (`TypicalityScorer.block_shape`), each drawing its own rows of the
    matrix, so the counts do not depend on the block size. An erasure counts
    as an error.
    """
    dec1 = Node1Decoder(cb, ms, cfg.epsilon)
    dec2 = Node2Decoder(cb, cfg.epsilon)
    p = cfg.params
    block = min(dec.scorer.block_shape(dec.candidates, p.n, _CHUNK_ROWS * p.n)[0] for dec in (dec1, dec2))

    rng = np.random.default_rng((cfg.seed, 0))
    n1 = n2 = 0
    for start in range(0, cfg.trials, block):
        u = rng.random((min(block, cfg.trials - start), 4 + 2 * p.n))
        mc, m1, m2, cells = _read_messages(u, ms, p)
        y1, y2 = transmit(encode(cells, m1, m2, cb, u[:, 4:4 + p.n]), cfg.channel, u[:, 4 + p.n:])
        mc_hat, m2_hat = dec1(y1, m1)
        n1 += int(np.count_nonzero((mc_hat != mc) | (m2_hat != m2)))
        n2 += int(np.count_nonzero(dec2(y2, m2) != m1))
    return n1, n2


def run(cfg: SimConfig) -> SimReport:
    """Generate the codebook, run the trials, measure equivocation.

    Before anything is built, one plan checks the input alphabet and raises
    the resource guards in order: codebook size, the equivocation mode's,
    node-1 candidates. An invalid k_size is found only after them."""
    p, ny2 = cfg.params, cfg.channel.y2_size
    _check_code(p, cfg.chain, cfg.channel)
    if cfg.equiv_mode == "exact":
        _exact_split(p, ny2)
    elif cfg.equiv_mode == "mc":
        _check_mc(p, ny2, cfg.mc_samples)
    _node1_candidates(p)
    iq = evaluate_chain(cfg.chain, cfg.channel)
    ms = MessageSets(p, cfg.k_size)
    cb = generate(p, cfg.chain, cfg.channel)
    n1, n2 = _run_trials(cfg, cb, ms)
    e1 = _binomial_ci(n1, cfg.trials)
    e2 = _binomial_ci(n2, cfg.trials)

    n = p.n
    confidential_rate = math.log2(ms.mc_size) / n
    equiv_rate = equiv_se = leakage = None
    if cfg.equiv_mode == "exact":
        equiv_rate = equivocation_exact(cb, ms) / n
    elif cfg.equiv_mode == "mc":
        est, se = equivocation_mc(cb, ms, cfg.mc_samples, np.random.default_rng((cfg.seed, 1)))
        equiv_rate, equiv_se = est / n, se / n
    if equiv_rate is not None:
        leakage = confidential_rate - equiv_rate

    return SimReport(
        e1=e1,
        e2=e2,
        equiv_rate=equiv_rate,
        equiv_se=equiv_se,
        leakage_rate=leakage,
        confidential_rate=confidential_rate,
        equivocation_bound=iq.secrecy_bound,
        terms=asymptotic_terms(cfg.chain, cfg.channel),
        epsilon_n=max(e1.rate, e2.rate),
        config=cfg.to_dict(),
    )
