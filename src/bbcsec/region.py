"""Rate regions of the bidirectional broadcast channel with a confidential
message: full rate-equivocation region, secrecy region, and the plain
bidirectional region, all computed by scalarization.

The regions are closed and convex, so support functions characterize them
exactly. A support direction (wc, we, w1, w2) with wc + we <= w1, which
includes the whole bidirectional slice and so every point of the
bidirectional frontier, is solved by Blahut-Arimoto and certified to within
SLACK * max(w1, w2).
Every other direction is searched over auxiliary chains (random-restart
coordinate ascent, its budget a SearchParams), which can under-estimate a
support value but never over-estimates it: "outside" is evidence, not a
certificate.
"""

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _core
from .channel import BroadcastChannel, marginal
from .exceptions import ValidationError
from .probability import CondDist, Dist, _as_count

SLACK = 1e-9  # constraint slack; per unit of max(w1, w2), the duality gap that ends a Blahut-Arimoto direction
STEP0 = 0.35  # first-phase perturbation scale of the hill climb
TOL = 1e-7  # a climb phase also ends once its step is below this with no gain
BA_MAX_STEPS = 100_000  # step cap of one Blahut-Arimoto direction
SEPARATION_DIRECTIONS = 10  # least lattice size of membership's separation check


def max_u_size(x_size: int) -> int:
    return x_size + 3


def max_v_size(x_size: int) -> int:
    return x_size * x_size + 4 * x_size + 3


@dataclass(frozen=True, eq=False)
class AuxChain:
    """The distribution triple (P_U, P_V|U, P_X|V) parameterizing the region."""

    pu: Dist
    pvu: CondDist
    pxv: CondDist

    def __post_init__(self):
        nu, nv = self.pvu.dims
        nv2, nx = self.pxv.dims
        if self.pu.size != nu:
            raise ValidationError(f"AuxChain: |U|={self.pu.size} but P(v|u) has {nu} rows")
        if nv != nv2:
            raise ValidationError(f"AuxChain: P(v|u) emits {nv} symbols, P(x|v) has {nv2} rows")
        if nu > max_u_size(nx):
            raise ValidationError(f"AuxChain: |U|={nu} exceeds the bound {max_u_size(nx)}")
        if nv > max_v_size(nx):
            raise ValidationError(f"AuxChain: |V|={nv} exceeds the bound {max_v_size(nx)}")

    @property
    def x_size(self) -> int:
        return self.pxv.dims[1]

    def to_dict(self) -> dict:
        return {
            "p_u": self.pu.probs,
            "p_v_given_u": self.pvu.rows,
            "p_x_given_v": self.pxv.rows,
        }


@dataclass(frozen=True)
class InfoQuantities:
    """The four information terms the region constraints are built from,
    stored as floats clamped at zero; one below -1e-9 or not finite raises."""

    iu1: float
    iu2: float
    iv1: float
    iv2: float

    def __post_init__(self):
        for name in ("iu1", "iu2", "iv1", "iv2"):
            v = float(getattr(self, name))
            if not -1e-9 <= v < math.inf:
                raise ValidationError(f"InfoQuantities: {name}={v} is negative or not finite")
            object.__setattr__(self, name, max(v, 0.0))

    @property
    def secrecy_bound(self) -> float:
        """Largest equivocation rate this chain supports, clamped at zero."""
        return float(_secrecy_term(self.iv1, self.iv2))


@dataclass(frozen=True)
class RateTuple:
    """(confidential, equivocation, node-1, node-2) rates in bits/use."""

    rc: float
    re: float
    r1: float
    r2: float

    def __post_init__(self):
        for name in ("rc", "re", "r1", "r2"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"RateTuple: {name} must be finite")
            if getattr(self, name) < -SLACK:
                raise ValidationError(f"RateTuple: {name} must be nonnegative")
        if self.re > self.rc + SLACK:
            raise ValidationError(f"RateTuple: re={self.re} exceeds rc={self.rc}")

    def as_array(self) -> np.ndarray:
        return np.array([self.rc, self.re, self.r1, self.r2])


@dataclass(frozen=True)
class SearchParams:
    """Budget and reproducibility knobs of one chain search, Python ints (the seed >= 0, the rest >= 1)."""

    restarts: int = 64
    iterations: int = 500
    seed: int = 0
    u_size: Optional[int] = None
    v_size: Optional[int] = None

    def __post_init__(self):
        for name in ("restarts", "iterations", "seed", "u_size", "v_size"):
            value, low = getattr(self, name), 0 if name == "seed" else 1
            if not (value is None and name.endswith("_size")):
                object.__setattr__(self, name, _as_count(f"SearchParams: {name}", value, low))

    def sizes_for(self, x_size: int) -> tuple:
        nu = self.u_size if self.u_size is not None else min(x_size + 3, 6)
        nv = self.v_size if self.v_size is not None else min(max_v_size(x_size), 8)
        for name, size, top in (("u_size", nu, max_u_size(x_size)), ("v_size", nv, max_v_size(x_size))):
            if size > top:  # every size is at least 1, by __post_init__ or by default
                raise ValidationError(f"{name}={size} outside [1, {top}]")
        return nu, nv


@dataclass(frozen=True)
class SupportResult:
    value: float
    chain: AuxChain
    corner: RateTuple
    info: InfoQuantities  # the chain's terms, as the search scored them


@dataclass(frozen=True)
class FrontierEntry:
    weights: tuple
    point: RateTuple
    value: float
    chain: Optional[AuxChain] = None


@dataclass(frozen=True)
class MembershipResult:
    verdict: str  # "inside" | "outside_up_to" | "boundary"
    tuple: RateTuple
    witness: Optional[AuxChain]
    best_margin: float
    params: SearchParams
    evidence: Optional[dict] = None

    def to_dict(self) -> dict:
        doc = {
            "verdict": self.verdict,
            "tuple": asdict(self.tuple),
            "best_margin": self.best_margin,
            "search": asdict(self.params),
            "witness_chain": self.witness.to_dict() if self.witness else None,
        }
        if self.evidence is not None:
            doc["evidence"] = self.evidence
        return doc


# ---------------------------------------------------------------------------
# information quantities and constraint algebra
# ---------------------------------------------------------------------------


def evaluate_chain(chain: AuxChain, ch: BroadcastChannel) -> InfoQuantities:
    """The four mutual-information terms of a chain against a channel."""
    if chain.x_size != ch.x_size:
        raise ValidationError(f"evaluate_chain: chain emits {chain.x_size} input symbols, channel expects {ch.x_size}")
    iq = _core.chain_info(
        chain.pu.probs[None], chain.pvu.rows[None], chain.pxv.rows[None],
        marginal(ch, 1).matrix, marginal(ch, 2).matrix,
    )
    return InfoQuantities(*iq[0].tolist())


def tuple_satisfied(iq: InfoQuantities, t: RateTuple) -> bool:
    """Whether a rate tuple meets every constraint for these quantities.

    The equivocation cap is clamped at zero, so the all-zero tuple passes
    for any chain; the resulting region (union over chains) is unchanged
    by the clamp since a chain with the second layer folded into the first
    dominates the clamped tuples.
    """
    return bool(_margin(iq.iu1, iq.iu2, iq.iv1, iq.iv2, t) >= -SLACK)


def _secrecy_term(iv1, iv2):
    """The equivocation cap max(0, iv1 - iv2), elementwise: the one place
    the region scores the secrecy term."""
    return np.maximum(0.0, iv1 - iv2)


def _margin(iu1, iu2, iv1, iv2, t: RateTuple):
    """Smallest slack of the constraints at t, per chain. The arguments are
    clamped information terms, arrays of one shape (one entry per chain)."""
    return np.minimum.reduce([
        _secrecy_term(iv1, iv2) - t.re,
        iv1 + iu1 - t.rc - t.r1,
        iv1 + iu2 - t.rc - t.r2,
        iu1 - t.r1,
        iu2 - t.r2,
    ])


def rc_re_star(iq: InfoQuantities, r1: float, r2: float) -> tuple:
    """Peak confidential and equivocation rates at given individual rates."""
    if r1 > iq.iu1 + SLACK:
        raise ValidationError(f"rc_re_star: r1={r1} exceeds I(U;Y1)={iq.iu1}")
    if r2 > iq.iu2 + SLACK:
        raise ValidationError(f"rc_re_star: r2={r2} exceeds I(U;Y2)={iq.iu2}")
    rc = iq.iv1 + min(iq.iu1 - r1, iq.iu2 - r2)
    return rc, iq.secrecy_bound


def _corner_value(iu1, iu2, iv1, iv2, w):
    """The value of `_best_corner` in closed form, for nonnegative weights
    and terms: every corner's re is the secrecy term, which is at most iv1,
    and corner 4 scores (wc - w1 - w2) min(iu1, iu2) more than corner 3."""
    wc, we, w1, w2 = w
    return wc * iv1 + we * _secrecy_term(iv1, iv2) + w1 * iu1 + w2 * iu2 + max(0.0, wc - w1 - w2) * np.minimum(iu1, iu2)


def _best_corner(iu1, iu2, iv1, iv2, w) -> tuple:
    """Maximize w . (rc,re,r1,r2) over the constraint polytope of each chain.

    The feasible set is linear in the tuple for fixed terms, so the maximum
    sits on a vertex. Of the five, (rc, r1, r2) = (iv1, 0, 0), (iv1, iu1, 0)
    and (iv1, 0, iu2) are dominated, in value and in the tie order, by
    corner 3, (iv1, iu1, iu2), or corner 4, (iv1 + m, iu1 - m, iu2 - m) with
    m = min(iu1, iu2); each has re = min(rc, secrecy term). Ties prefer larger
    re, then rc, then r1, then r2, so corner 4 wins iff its value is larger,
    or equal with a larger rc. The information terms are arrays of one shape
    (one entry per chain); returns the values and the corners
    (rc, re, r1, r2), each of that shape.
    """
    m = np.minimum(iu1, iu2)
    rc = iv1 + np.array([np.zeros(np.shape(m)), m])  # rows: corners 3 and 4
    re = np.minimum(rc, _secrecy_term(iv1, iv2))
    r1 = np.array([iu1, iu1 - m])
    r2 = np.array([iu2, iu2 - m])
    val = w[0] * rc + w[1] * re + w[2] * r1 + w[3] * r2
    four = (val[1] > val[0]) | ((val[1] == val[0]) & (rc[1] > rc[0]))
    return np.where(four, val[1], val[0]), tuple(np.where(four, k[1], k[0]) for k in (rc, re, r1, r2))


# ---------------------------------------------------------------------------
# search engine: random-restart coordinate ascent over simplex blocks
# ---------------------------------------------------------------------------


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of v onto the probability simplex:
    max(v - tau, 0), where tau = max_j (a_1 + ... + a_j - 1) / j over the row a
    sorted in decreasing order (Condat, "Fast projection onto the simplex and
    the l1 ball", 2016)."""
    a = -np.sort(-v, axis=1)
    tau = ((np.cumsum(a, axis=1) - 1.0) / np.arange(1, v.shape[1] + 1)).max(axis=1)
    out = np.maximum(v - tau[:, None], 0.0)
    return out / out.sum(axis=1, keepdims=True)  # the largest entry stays positive


STRUCTURED_STARTS = 3


def _structured_init(i, nu, nv, nx):
    """Deterministic starting chain i: a full-alphabet carrier (0), a
    secrecy layout (1: constant first layer, uniform second layer on the
    inputs), and a uniform carrier over all first-layer symbols (2)."""

    def ident_rows(n_in, n_out):
        rows = np.zeros((n_in, n_out))
        rows[np.arange(n_in), np.arange(n_in) % n_out] = 1.0
        return rows

    pu = np.zeros((1, nu))
    pvu = ident_rows(nu, nv)
    if i == 0:
        pu[0, : min(nu, nx)] = 1.0 / min(nu, nx)
    elif i == 1:
        pu[0, 0] = 1.0
        pvu[0] = 0.0
        pvu[0, : min(nv, nx)] = 1.0 / min(nv, nx)
    else:
        pu[:] = 1.0 / nu
    return [pu, pvu, ident_rows(nv, nx)]


def _random_init(nu, nv, nx, rng):
    return [
        rng.dirichlet(np.ones(nu)).reshape(1, -1),
        rng.dirichlet(np.ones(nv), size=nu),
        rng.dirichlet(np.ones(nx), size=nv),
    ]


def _search_chain(
    ch: BroadcastChannel,
    score_fn: Callable,
    p: SearchParams,
    stop_at: Optional[float] = None,
) -> tuple:
    """Maximize score_fn over auxiliary chains by p.restarts hill climbs run
    in lockstep; score_fn maps a (B, 4) array of information terms (iu1,
    iu2, iv1, iv2 of each chain, clamped at zero by the kernel) to B values.
    Returns the best value, the best chain and the terms it was scored
    with, which are the terms reported.

    Restart i draws its random stream from (seed, i) and climbs from
    structured start i (the first STRUCTURED_STARTS restarts) or a random
    chain: three blocks P_U, P_V|U, P_X|V, 2-D arrays whose rows are
    distributions. A climb perturbs one row at a time and keeps
    improvements. Its step size halves after each sweep with no improvement
    (geometric decay) and the phase ends when the step falls below TOL; a
    short fine-perturbation phase afterwards polishes the incumbent. A
    restart retires when that phase ends or, checked before each sweep, when
    its best reaches stop_at.

    The live restarts take each row step together: each block is held as a
    (restarts, rows, cols) array and scored with one kernel call. Each
    restart keeps the terms of its best next to its value, so the winner is
    never scored again. Restart i's trajectory depends only on the seed and
    i. Ties across restarts resolve to the lowest restart index; with
    stop_at, the lowest restart that reaches it wins and the restarts above
    it are dropped as soon as it does. Restart 0 is scored alone first, so a
    search its start already ends builds no other restart; it still retires
    through the loop, and every search builds its winner in one place.
    """
    nx = ch.x_size
    nu, nv = p.sizes_for(nx)
    w1 = marginal(ch, 1).matrix
    w2 = marginal(ch, 2).matrix
    stop = math.inf if stop_at is None else stop_at
    rngs = [np.random.Generator(np.random.PCG64((p.seed, 0)))]  # default_rng's stream, built faster
    blocks = [blk[None] for blk in _structured_init(0, nu, nv, nx)]
    terms = _core.chain_info(blocks[0][:, 0], blocks[1], blocks[2], w1, w2)
    best = score_fn(terms)
    if best[0] < stop and p.restarts > 1:
        rngs += [np.random.Generator(np.random.PCG64((p.seed, i))) for i in range(1, p.restarts)]
        more = [np.stack(b) for b in zip(*(
            _structured_init(i, nu, nv, nx) if i < STRUCTURED_STARTS else _random_init(nu, nv, nx, rngs[i])
            for i in range(1, p.restarts)
        ))]
        more_terms = _core.chain_info(more[0][:, 0], more[1], more[2], w1, w2)
        best, terms = np.concatenate([best, score_fn(more_terms)]), np.concatenate([terms, more_terms])
        blocks = [np.concatenate(b) for b in zip(blocks, more)]

    rows, width = [], 0  # (block, row, noise columns) of each row step in a sweep
    for bi, blk in enumerate(blocks):
        for ri in range(blk.shape[1]):
            rows.append((bi, ri, slice(width, width + blk.shape[2])))
            width += blk.shape[2]
    phase_iters = np.array([p.iterations, max(1, p.iterations // 5)])
    ids = np.arange(len(rngs))
    step = np.full(len(ids), STEP0)
    phase = np.zeros(len(ids), dtype=int)
    sweeps = np.zeros(len(ids), dtype=int)
    final = {}  # restart -> (best value, blocks, terms)
    first_reached = len(rngs)  # the lowest restart whose best reached stop_at
    while True:
        reached = best >= stop
        retired = reached | (phase == 2)
        for j in np.flatnonzero(retired):
            final[int(ids[j])] = (float(best[j]), [blk[j].copy() for blk in blocks], terms[j])
        if reached.any():
            first_reached = min(first_reached, int(ids[reached][0]))
        live = ~retired & (ids < first_reached)
        if not live.any():
            break
        if not live.all():
            ids, best, terms = ids[live], best[live], terms[live]
            step, phase, sweeps = step[live], phase[live], sweeps[live]
            blocks = [blk[live] for blk in blocks]

        # one draw per sweep yields the same normals as one draw per row step
        noise = np.stack([rngs[i].standard_normal(width) for i in ids])
        improved = np.zeros(len(ids), dtype=bool)
        for bi, ri, cols in rows:
            blk = blocks[bi]
            row = blk[:, ri].copy()
            blk[:, ri] = _project_simplex(row + step[:, None] * noise[:, cols])
            cand_terms = _core.chain_info(blocks[0][:, 0], blocks[1], blocks[2], w1, w2)
            cand = score_fn(cand_terms)
            better = cand > best + 1e-15
            blk[:, ri] = np.where(better[:, None], blk[:, ri], row)
            best = np.where(better, cand, best)
            terms = np.where(better[:, None], cand_terms, terms)
            improved |= better
        sweeps += 1
        step = np.where(improved, step, step * 0.5)
        ended = (sweeps == phase_iters[phase]) | (~improved & (step < TOL))
        phase += ended
        sweeps[ended] = 0
        step[ended] = 1e-3

    if first_reached < len(rngs):
        value, blocks, terms = final[first_reached]
    else:
        value, blocks, terms = final[max(final, key=lambda i: (final[i][0], -i))]  # the lowest-index strict best
    # every climbed row is a distribution already: starts are, and so is
    # each projection onto the simplex
    chain = AuxChain(Dist(blocks[0][0]), CondDist(blocks[1]), CondDist(blocks[2]))
    return value, chain, InfoQuantities(*terms.tolist())


# ---------------------------------------------------------------------------
# public region operations
# ---------------------------------------------------------------------------


def support_function(ch: BroadcastChannel, w, p: SearchParams = SearchParams()) -> SupportResult:
    """Maximum of w . (rc,re,r1,r2) over the full rate-equivocation region.

    With a = wc + we, every chain's value is at most
    max_P [max(w1, a) I(X;Y1) + w2 I(X;Y2)] (rc + r1 <= I(X;Y1),
    r2 <= I(X;Y2), re <= rc). In the cone a <= w1 the carrier chain U = V = X
    at the Blahut-Arimoto law attains that bound, so there the value is
    exact to within SLACK * max(w1, w2), at any scale of the weights, and
    `p` is only validated. Outside the cone the chain is searched within the
    budget `p` (restarts, sweeps, seed and the alphabet sizes), which can
    under-estimate the value; it scores each chain by `_corner_value`.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (4,) or not np.all(np.isfinite(w)) or np.any(w < 0.0) or not np.any(w > 0.0):
        raise ValidationError("support_function: weights must be 4 finite nonnegative values, not all zero")
    w = w.tolist()
    p.sizes_for(ch.x_size)  # a malformed budget fails in every direction

    def score(iq):
        return _corner_value(*iq.T, w)

    wc, we, w1, w2 = w
    if wc + we <= w1:
        ident = CondDist(np.eye(ch.x_size))
        chain = AuxChain(Dist(_blahut_arimoto(ch, w1, w2)), ident, ident)
        iq = evaluate_chain(chain, ch)
    else:
        _, chain, iq = _search_chain(ch, score, p)
    val, corner = _best_corner(iq.iu1, iq.iu2, iq.iv1, iq.iv2, w)
    return SupportResult(float(val), chain, RateTuple(*(float(c) for c in corner)), iq)


def octant_directions(count: int, dims: int) -> list:
    """Deterministic nonnegative weight directions in `dims` >= 2 dimensions:
    the integer lattice on the simplex, densified until at least `count` exist."""
    count = _as_count("octant_directions: count", count)
    dims = _as_count("octant_directions: dims", dims, 2)
    m = 1
    while math.comb(m + dims - 1, dims - 1) < count:
        m += 1
    dirs = []
    for combo in itertools.product(range(m + 1), repeat=dims):
        if sum(combo) == m:
            dirs.append(tuple(c / m for c in combo))
    return dirs


def secrecy_frontier(ch: BroadcastChannel, weights: Sequence, p: SearchParams = SearchParams()) -> list:
    """Frontier of the perfect-secrecy region as (Rc, R1, R2) support points.

    The region is the re = rc slice of the full region, so the direction
    (wc, w1, w2) is the full-region direction (0, wc, w1, w2): with
    nonnegative weights each chain's best corner there is the box corner
    (secrecy bound, I(U;Y1), I(U;Y2)), which is the reported point.
    """
    entries = []
    for wdir in weights:
        res = support_function(ch, (0.0, *wdir), p)
        iq = res.info
        point = RateTuple(iq.secrecy_bound, iq.secrecy_bound, iq.iu1, iq.iu2)
        wc, w1, w2 = (float(x) for x in wdir)
        entries.append(FrontierEntry((wc, 0.0, w1, w2), point, res.value, res.chain))
    return entries


def input_chain(px) -> AuxChain:
    """The chain that sends the input law px straight through: a constant
    first layer and V = X, so iv1, iv2 = I(X;Y1), I(X;Y2)."""
    px = np.asarray(px, dtype=np.float64)
    return AuxChain(Dist([1.0]), CondDist(px[None]), CondDist(np.eye(px.size)))


def _blahut_arimoto(ch: BroadcastChannel, wr1: float, wr2: float) -> np.ndarray:
    """The input law maximizing wr1 I(X;Y1) + wr2 I(X;Y2), which is concave
    in the law, by Blahut-Arimoto from the uniform law.

    With d(x) = wr1 D(W1(.|x)||pW1) + wr2 D(W2(.|x)||pW2), the value is p.d
    and max_x d(x) bounds the optimum, so a gap of at most
    SLACK * max(wr1, wr2) certifies the law. Value and gap both scale with
    the weights, so this rule does not depend on their scale. After
    BA_MAX_STEPS the law is still achievable. Both channels sit side by side
    in one matrix, so d costs one product with the law, one log2 and one
    product with the weighted matrix.

    A step of length s multiplies p(x) by 2^(s d(x)). The plain step
    s = 1/(wr1 + wr2) reaches at least log2(sum_x p(x) 2^(s d(x))) / s, which
    is at least p.d. Longer steps accelerate the iteration (Matz and
    Duhamel, ITW 2004): s doubles after each step that reaches that bound
    for its own length, and halves back toward the plain step when a longer
    step falls short, which discards it. The plain step is always taken.
    Masses below the smallest normal float are returned as 0.
    """
    w = np.hstack([marginal(ch, 1).matrix, marginal(ch, 2).matrix])
    weighted = w * np.repeat([wr1, wr2], [ch.y1_size, ch.y2_size])
    reached = w.any(axis=0)  # an output no input reaches would put log2(0) in every d
    w, weighted = w[:, reached], weighted[:, reached]
    plain = step = 1.0 / (wr1 + wr2)
    gap = SLACK * max(wr1, wr2)
    px = np.full(ch.x_size, 1.0 / ch.x_size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        row_terms = np.where(w > 0.0, weighted * np.log2(w), 0.0).sum(axis=1)

        def divergences(px):
            d = row_terms - weighted @ np.log2(px @ w)
            return d, px @ d

        d, value = divergences(px)
        for _ in range(BA_MAX_STEPS):  # every step tried counts, taken or not
            top = d.max()
            if top - value <= gap:
                break
            cand = px * np.exp2(step * (d - top))
            total = cand.sum()
            cand /= total
            cand_d, cand_value = divergences(cand)
            kept = cand_value >= top + np.log2(total) / step  # False on NaN
            if not kept and step > plain:
                step = max(plain, step / 2)
                continue
            px, d, value = cand, cand_d, cand_value
            if kept:
                step *= 2
    return np.where(px < np.finfo(np.float64).tiny, 0.0, px)


def bbc_frontier(ch: BroadcastChannel, count: int) -> list:
    """Upper-right frontier of the plain bidirectional region over `count` >= 1
    weight directions (w1, w2) = (cos t, sin t), t evenly spaced in [0, pi/2].

    The region is the rc = re = 0 slice of the full region, so each point is
    `full_frontier`'s in the direction (0, 0, w1, w2): inside the cone of
    `support_function`, certified and carried by the chain U = V = X that
    achieves it. A Pareto/hull closure follows, and time sharing makes the
    point list represent the hull.
    """
    count = _as_count("bbc_frontier: count", count)
    thetas = [(math.pi / 2) * k / max(1, count - 1) for k in range(count)]
    return _pareto(_dedupe(full_frontier(ch, [(0.0, 0.0, math.cos(t), math.sin(t)) for t in thetas])))


def _dedupe(entries: list) -> list:
    out, seen = [], set()
    for e in entries:
        key = tuple(round(v, 9) for v in (e.point.rc, e.point.re, e.point.r1, e.point.r2))
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


def _pareto(entries: list) -> list:
    """Drop points dominated in (r1, r2) by another point."""
    keep = []
    for e in entries:
        dominated = any(
            (o.point.r1 >= e.point.r1 - 1e-12 and o.point.r2 >= e.point.r2 - 1e-12)
            and (o.point.r1 > e.point.r1 + 1e-9 or o.point.r2 > e.point.r2 + 1e-9)
            for o in entries
        )
        if not dominated:
            keep.append(e)
    keep.sort(key=lambda e: (e.point.r1, e.point.r2))
    return keep


def full_frontier(ch: BroadcastChannel, weights: Sequence, p: SearchParams = SearchParams()) -> list:
    """Support points of the full rate-equivocation region over the given
    4-dimensional weight directions."""
    entries = []
    for wdir in weights:
        res = support_function(ch, wdir, p)
        entries.append(
            FrontierEntry(tuple(float(x) for x in wdir), res.corner, res.value, res.chain)
        )
    return entries


def membership(t: RateTuple, ch: BroadcastChannel, p: SearchParams = SearchParams()) -> MembershipResult:
    """Search verdict for one tuple: inside with a witness chain, outside up
    to the search budget, or boundary (normally unresolvable).

    "outside_up_to" is not a certificate: the support search can
    under-estimate. The verdict records the budget that produced it.
    """
    cap1, cap2 = (min(math.log2(ch.x_size), math.log2(n)) for n in (ch.y1_size, ch.y2_size))
    cap_margin = min(float(_margin(cap1, cap2, cap1, 0.0, t)), cap1 - t.rc - t.r1)
    if cap_margin < -SLACK:
        # the caps outer-bound every chain's quantities, and rc + r1 <= I(V;Y1)
        # <= cap1, so this is already a separation certificate
        return MembershipResult(
            "outside_up_to", t, None, cap_margin, p,
            evidence={"kind": "entropy_cap", "caps": [cap1, cap2]},
        )

    def score(iq):
        return _margin(*iq.T, t)

    best_margin, chain, _ = _search_chain(ch, score, p, stop_at=0.0)
    if best_margin >= -SLACK:
        return MembershipResult("inside", t, chain, best_margin, p)

    tvec = t.as_array()
    directions = []
    norm = float(np.linalg.norm(tvec))
    if norm > 0:
        directions.append(tuple(tvec / norm))
    directions.extend(octant_directions(SEPARATION_DIRECTIONS, 4))
    for wdir in directions:
        res = support_function(ch, wdir, p)
        target = float(np.dot(wdir, tvec))
        if res.value < target - 1e-6:
            return MembershipResult(
                "outside_up_to", t, None, best_margin, p,
                evidence={
                    "kind": "support_separation",
                    "direction": list(wdir),
                    "support_value": res.value,
                    "weighted_tuple": target,
                },
            )
    return MembershipResult("boundary", t, None, best_margin, p)


FRONTIER_CSV_HEADER = "w_rc,w_re,w_r1,w_r2,rc,re,r1,r2,support_value"


def frontier_csv(entries: list) -> str:
    """CSV rendering of frontier entries; '.'-decimal regardless of locale."""
    lines = [FRONTIER_CSV_HEADER]
    for e in entries:
        vals = list(e.weights) + [e.point.rc, e.point.re, e.point.r1, e.point.r2, e.value]
        lines.append(",".join(f"{v:.12g}" for v in vals))
    return "\n".join(lines) + "\n"
