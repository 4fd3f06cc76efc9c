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
from .codebook import Codebook, CodebookParams, _sample_rows, generate
from .coding import MessageSets, Node1Decoder, Node2Decoder, encode, transmit
from .exceptions import GuardError, ValidationError
from .probability import _entropy, chain_joint
from .region import AuxChain, evaluate_chain

MAX_EXACT_SEQUENCES = 1 << 20
MAX_TABLE_ENTRIES = 1 << 28  # entries of one dense equivocation array (2 GiB of float64)
_CHUNK_ROWS = 1 << 13


@dataclass(frozen=True)
class ErrorEstimate:
    """Empirical error frequency with a 95% confidence interval."""

    rate: float
    ci_low: float
    ci_high: float
    errors: int
    trials: int


def _binomial_ci(errors: int, trials: int) -> ErrorEstimate:
    """Normal-approximation CI, Wilson when either count is below 10."""
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
    return ErrorEstimate(p, max(0.0, low), min(1.0, high), errors, trials)


@dataclass(frozen=True)
class AsymptoticTerms:
    """Per-letter limits of the equivocation-bound terms.

    `sub_rate_limit` is the limit of the per-letter codeword entropy given
    the first-layer index (the sub-codebook rate); `h_out2_given_code` and
    `h_out2_given_cloud` condition the non-legitimated output on the coding
    symbol and on the cloud center. The Fano residual vanishes in the limit,
    so it is not a term. Their combination reproduces the secrecy bound
    exactly.
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
    if rows * cols > MAX_TABLE_ENTRIES:
        raise GuardError(f"equivocation: {what} of {rows} x {cols} entries exceeds the limit {MAX_TABLE_ENTRIES}")


def _exact_split(p: CodebookParams, ny2: int) -> int:
    """The prefix length of equivocation_exact's output-word tables, after
    its resource guards: at most MAX_EXACT_SEQUENCES output words, and the
    prefix and chunk tables within MAX_TABLE_ENTRIES entries."""
    if p.n * math.log2(ny2) > math.log2(MAX_EXACT_SEQUENCES) + 1e-12:
        raise GuardError(
            f"equivocation_exact: {ny2}^{p.n} output words exceeds the limit {MAX_EXACT_SEQUENCES}"
        )
    suffix_len = p.n
    while ny2 ** suffix_len > _CHUNK_ROWS and suffix_len > 1:
        suffix_len -= 1
    n_words = p.j_size * p.l_size * p.m0_size * p.m1_size
    _check_table("output-word chunk", ny2 ** suffix_len, n_words)
    _check_table("output-word prefix", ny2 ** (p.n - suffix_len), n_words)
    return p.n - suffix_len


def _step_tables(v_seqs: np.ndarray, wv2: np.ndarray) -> list:
    """Per-position likelihood factors: step[k][y, word] = P(y | word symbol k)."""
    return [wv2[v_seqs[:, k], :].T.copy() for k in range(v_seqs.shape[1])]


def _suffix_products(steps: list, n_words: int) -> np.ndarray:
    """Likelihood of every output sequence over the positions of `steps`
    (lexicographic rows) per word; one row of ones for no positions."""
    out = np.ones((1, n_words))
    for step in steps:
        out = (out[:, None, :] * step[None, :, :]).reshape(-1, n_words)
    return out


def equivocation_exact(cb: Codebook, ms: MessageSets) -> float:
    """Exact conditional entropy (bits) of the confidential message given
    the non-legitimated node's full output word and its side information.

    The message is uniform and independent of m2, so by the chain rule
    H(Mc | Y2, m2) = log2|Mc| + H(Y2 | Mc, m2) - H(Y2 | m2). The law of all
    |Y2|^n output words given m2 is one product of the prefix and suffix
    likelihood tables, weighted by the word probabilities. A message with a
    single word (case A with m1 = 1) has H(Y2 | mc, m2) in closed form, the
    sum over positions of the entropy of the word symbol's output row; a
    message with several words has its mixture law enumerated by the same
    product over its columns. Each term is clamped to [0, log2|Mc|], the
    quantity's exact range, so round-off never leaves it.
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

        h_out = _entropy((prefix * (weights / ms.mc_size)) @ suffix.T)  # H(Y2 | m2)
        h_msg = h_rows[v_seqs[starts]].sum(axis=1)  # H(Y2 | mc, m2) of one-word messages
        for m in np.flatnonzero(counts > 1).tolist():
            cols = slice(starts[m], starts[m] + counts[m])
            h_msg[m] = _entropy((prefix[:, cols] * weights[cols]) @ suffix[:, cols].T)
        total += min(max(h_mc + float(h_msg.sum()) / ms.mc_size - h_out, 0.0), h_mc) / p.m2_size
    return total


def equivocation_mc(cb: Codebook, ms: MessageSets, samples: int, rng) -> tuple:
    """Plug-in Monte Carlo estimate of the same quantity.

    Each episode samples a transmission and evaluates the exact posterior
    of the confidential message for the received word; the estimator is the
    average of -log2(posterior at the true message). Returns (estimate,
    standard error) in bits.

    `rng` draws the messages of all episodes, then each episode's codeword
    cell and channel uniforms in turn. Episodes run in blocks whose rows
    (episodes x sub-words) stay within _CHUNK_ROWS; within a block the
    likelihoods of the message-grouped words (`_message_order`) multiply
    position by position and each message's posterior mass is the sum of
    its segment, row by row, so no value depends on the block size. More
    than MAX_TABLE_ENTRIES samples is a resource-guard error, raised before
    any draw.
    """
    if samples < 2:
        raise ValidationError("equivocation_mc: need at least 2 samples")
    _check_table("Monte Carlo draws", samples, 1)
    p = cb.params
    wv2 = _effective_w2(cb)
    cdf_wv2 = np.cumsum(wv2, axis=1)

    order, _, starts, weights = _message_order(cb, ms)
    steps = [_step_tables(cb.v_words[:, :, :, :, m2].reshape(-1, p.n)[order], wv2) for m2 in range(p.m2_size)]
    n_words = order.size

    mc_draw = rng.integers(ms.mc_size, size=samples)
    m1_draw = rng.integers(p.m1_size, size=samples)
    m2_draw = rng.integers(p.m2_size, size=samples)

    vals = np.empty(samples)
    block = max(1, _CHUNK_ROWS // n_words)
    for start in range(0, samples, block):
        mc, m1, m2 = (d[start:start + block] for d in (mc_draw, m1_draw, m2_draw))
        cells = np.empty((mc.size, 3), dtype=np.int64)
        uniforms = np.empty((mc.size, p.n))
        for e, m in enumerate(mc.tolist()):
            cells[e] = ms.cell(m, rng)
            uniforms[e] = rng.random(p.n)
        j, l, m0 = cells.T
        y2 = _sample_rows(cdf_wv2, cb.v_words[j, l, m0, m1, m2], uniforms)

        for m in sorted(set(m2.tolist())):
            rows = np.flatnonzero(m2 == m)
            lik = np.ones((rows.size, n_words))
            for k_pos in range(p.n):
                lik *= steps[m][k_pos][y2[rows, k_pos]]
            # one segment per message; none is empty, since make_partition keeps k <= j
            post = np.add.reduceat(lik * weights, starts, axis=1)
            true_post = post[np.arange(rows.size), mc[rows]] / post.sum(axis=1)
            # math.log2, not np.log2, whose SIMD variants can differ in the last bit
            vals[start + rows] = [-math.log2(x) for x in true_post.tolist()]

    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(samples))
    return est, se


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """A full simulation request; the blocklength lives in the codebook
    parameters, the decoders' typicality slack `epsilon` here."""

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
        if self.trials < 1:
            raise ValidationError("SimConfig: trials must be >= 1")
        if self.equiv_mode not in ("exact", "mc", "none"):
            raise ValidationError(f"SimConfig: unknown equivocation mode {self.equiv_mode!r}")
        if self.mc_samples < 2:
            raise ValidationError("SimConfig: mc_samples must be >= 2")
        if not 0 < self.epsilon < math.inf:
            raise ValidationError("SimConfig: epsilon must be positive and finite")
        if self.seed < 0:
            raise ValidationError("SimConfig: seed must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "n": self.params.n,
            "sizes": {
                "m0": self.params.m0_size,
                "m1": self.params.m1_size,
                "m2": self.params.m2_size,
                "j": self.params.j_size,
                "l": self.params.l_size,
            },
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

    Trial t draws from its own generator default_rng((seed, 0, t)), in this
    order: mc, m1, m2, its codeword cell, the n encoder uniforms, the n
    channel uniforms. Encoding, transmission and both decoders then run on
    arrays of trials, in blocks whose candidate rows (trials x the larger
    decoder's candidates) stay within _CHUNK_ROWS, so the counts do not
    depend on the block size. An erasure counts as an error.
    """
    dec1 = Node1Decoder(cb, ms, cfg.epsilon)
    dec2 = Node2Decoder(cb, cfg.epsilon)
    p = cfg.params
    n = p.n
    block = max(1, _CHUNK_ROWS // max(dec1.candidates, dec2.candidates))

    n1 = n2 = 0
    for start in range(0, cfg.trials, block):
        trials = range(start, min(start + block, cfg.trials))
        msgs = np.empty((len(trials), 3), dtype=np.int64)
        cells = np.empty((len(trials), 3), dtype=np.int64)
        u_enc, u_ch = np.empty((len(trials), n)), np.empty((len(trials), n))
        for i, t in enumerate(trials):
            rng = np.random.Generator(np.random.PCG64((cfg.seed, 0, t)))  # default_rng's stream, built faster
            mc = int(rng.integers(ms.mc_size))
            msgs[i] = mc, rng.integers(p.m1_size), rng.integers(p.m2_size)
            cells[i] = ms.cell(mc, rng)
            u_enc[i] = rng.random(n)
            u_ch[i] = rng.random(n)
        mc, m1, m2 = msgs.T
        y1, y2 = transmit(encode(cells, m1, m2, cb, u_enc), cfg.channel, u_ch)
        mc_hat, m2_hat = dec1(y1, m1)
        n1 += int(np.count_nonzero((mc_hat != mc) | (m2_hat != m2)))
        n2 += int(np.count_nonzero(dec2(y2, m2) != m1))
    return n1, n2


def run(cfg: SimConfig) -> SimReport:
    """Generate the codebook, run the trials, measure equivocation; the
    equivocation's resource guards are raised before the first trial."""
    ms = MessageSets(cfg.params, cfg.k_size)  # validates k_size before the codebook is built
    cb = generate(cfg.params, cfg.chain, cfg.channel)
    iq = evaluate_chain(cfg.chain, cfg.channel)
    if cfg.equiv_mode == "exact":
        _exact_split(cfg.params, cfg.channel.y2_size)
    elif cfg.equiv_mode == "mc":
        _check_table("Monte Carlo draws", cfg.mc_samples, 1)

    n1, n2 = _run_trials(cfg, cb, ms)
    e1 = _binomial_ci(n1, cfg.trials)
    e2 = _binomial_ci(n2, cfg.trials)

    n = cfg.params.n
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
