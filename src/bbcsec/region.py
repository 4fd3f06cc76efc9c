"""Rate regions of the bidirectional broadcast channel with a confidential
message: full rate-equivocation region, secrecy region, and the plain
bidirectional region, all computed by scalarization.

The regions are closed and convex, so support functions characterize them
exactly; the only approximation is the inner search over auxiliary chains
(random-restart coordinate ascent over the simplex blocks), which can
under-estimate a support value but never over-estimates it. Membership
verdicts are phrased accordingly: "outside" is evidence, not a certificate.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _core
from .channel import BroadcastChannel, marginal
from .exceptions import ValidationError
from .probability import CondDist, Dist

SLACK = 1e-9
STEP0 = 0.35  # first-phase perturbation scale of the hill climb


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
    def u_size(self) -> int:
        return self.pu.size

    @property
    def v_size(self) -> int:
        return self.pvu.dims[1]

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
    """The four information terms the region constraints are built from."""

    iu1: float
    iu2: float
    iv1: float
    iv2: float

    def __post_init__(self):
        for name in ("iu1", "iu2", "iv1", "iv2"):
            v = getattr(self, name)
            if not -1e-9 <= v < math.inf:
                raise ValidationError(f"InfoQuantities: {name}={v} is negative or not finite")
            object.__setattr__(self, name, max(0.0, v))

    @property
    def secrecy_bound(self) -> float:
        """Largest equivocation rate this chain supports, clamped at zero."""
        return max(0.0, self.iv1 - self.iv2)


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
    """Budget and reproducibility knobs for the chain search."""

    restarts: int = 64
    iterations: int = 500
    grid: int = 17
    seed: int = 0
    tol: float = 1e-7
    u_size: Optional[int] = None
    v_size: Optional[int] = None

    def __post_init__(self):
        for name in ("restarts", "iterations", "grid"):
            if getattr(self, name) < 1:
                raise ValidationError(f"SearchParams: {name} must be positive")
        if not 0 < self.tol < math.inf:
            raise ValidationError("SearchParams: tol must be positive and finite")

    def sizes_for(self, x_size: int) -> tuple:
        nu = self.u_size if self.u_size is not None else min(x_size + 3, 6)
        nv = self.v_size if self.v_size is not None else min(max_v_size(x_size), 8)
        if not 1 <= nu <= max_u_size(x_size):
            raise ValidationError(f"u_size={nu} outside [1, {max_u_size(x_size)}]")
        if not 1 <= nv <= max_v_size(x_size):
            raise ValidationError(f"v_size={nv} outside [1, {max_v_size(x_size)}]")
        return nu, nv


@dataclass(frozen=True)
class SupportResult:
    value: float
    chain: AuxChain
    corner: RateTuple


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
            "tuple": {"rc": self.tuple.rc, "re": self.tuple.re, "r1": self.tuple.r1, "r2": self.tuple.r2},
            "best_margin": self.best_margin,
            "search": {
                "restarts": self.params.restarts,
                "iterations": self.params.iterations,
                "seed": self.params.seed,
                "u_size": self.params.u_size,
                "v_size": self.params.v_size,
            },
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
        raise ValidationError(
            f"evaluate_chain: chain emits {chain.x_size} input symbols, channel expects {ch.x_size}"
        )
    w1 = marginal(ch, 1).matrix
    w2 = marginal(ch, 2).matrix
    iu1, iu2, iv1, iv2 = _core.chain_info(chain.pu.probs, chain.pvu.rows, chain.pxv.rows, w1, w2)
    return InfoQuantities(iu1, iu2, iv1, iv2)


def tuple_satisfied(iq: InfoQuantities, t: RateTuple) -> bool:
    """Whether a rate tuple meets every constraint for these quantities.

    The equivocation cap is clamped at zero, so the all-zero tuple passes
    for any chain; the resulting region (union over chains) is unchanged
    by the clamp since a chain with the second layer folded into the first
    dominates the clamped tuples.
    """
    return _margin(iq, t) >= -SLACK


def _margin(iq: InfoQuantities, t: RateTuple) -> float:
    return min(
        iq.secrecy_bound - t.re,
        iq.iv1 + iq.iu1 - t.rc - t.r1,
        iq.iv1 + iq.iu2 - t.rc - t.r2,
        iq.iu1 - t.r1,
        iq.iu2 - t.r2,
    )


def rc_re_star(iq: InfoQuantities, r1: float, r2: float) -> tuple:
    """Peak confidential and equivocation rates at given individual rates."""
    if r1 > iq.iu1 + SLACK:
        raise ValidationError(f"rc_re_star: r1={r1} exceeds I(U;Y1)={iq.iu1}")
    if r2 > iq.iu2 + SLACK:
        raise ValidationError(f"rc_re_star: r2={r2} exceeds I(U;Y2)={iq.iu2}")
    rc = iq.iv1 + min(iq.iu1 - r1, iq.iu2 - r2)
    return rc, iq.secrecy_bound


def _best_corner(iu1, iu2, iv1, iv2, w) -> tuple:
    """Maximize w . (rc,re,r1,r2) over the constraint polytope of one chain.

    The feasible set is linear in the tuple for fixed quantities, so the
    maximum sits on one of five candidate vertices; ties prefer larger re,
    then rc, then r1, then r2, making the output deterministic.
    """
    e = max(0.0, iv1 - iv2)
    m = min(iu1, iu2)
    candidates = (
        (0.0, 0.0),
        (iu1, 0.0),
        (0.0, iu2),
        (iu1, iu2),
        (iu1 - m, iu2 - m),
    )
    best = None
    for r1, r2 in candidates:
        rc = iv1 + min(iu1 - r1, iu2 - r2)
        re = min(rc, e)
        val = w[0] * rc + w[1] * re + w[2] * r1 + w[3] * r2
        key = (val, re, rc, r1, r2)
        if best is None or key > best:
            best = key
    val, re, rc, r1, r2 = best
    return val, (rc, re, r1, r2)


# ---------------------------------------------------------------------------
# search engine: random-restart coordinate ascent over simplex blocks
# ---------------------------------------------------------------------------


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    n = v.shape[0]
    a = -np.sort(-v)
    cums = (np.cumsum(a) - 1.0) / np.arange(1, n + 1)
    k = np.nonzero(a > cums)[0][-1]
    out = np.maximum(v - cums[k], 0.0)
    s = out.sum()
    return out / s if s > 0 else np.full(n, 1.0 / n)


def _hill_climb(score, blocks, rng, iterations, tol, stop_at=None):
    """In-place ascent: perturb one simplex row at a time, keep improvements.

    The step size halves after each sweep with no improvement (geometric
    decay) and the search stops when it falls below tol. A short
    fine-perturbation phase afterwards polishes the incumbent.
    """
    rows = [(bi, ri) for bi, blk in enumerate(blocks) for ri in range(blk.shape[0])]
    best = score(blocks)
    for phase_step, phase_iters in ((STEP0, iterations), (1e-3, max(1, iterations // 5))):
        step = phase_step
        for _ in range(phase_iters):
            if stop_at is not None and best >= stop_at:
                return best
            improved = False
            for bi, ri in rows:
                row = blocks[bi][ri].copy()
                blocks[bi][ri] = _project_simplex(row + step * rng.standard_normal(row.shape[0]))
                cand = score(blocks)
                if cand > best + 1e-15:
                    best = cand
                    improved = True
                else:
                    blocks[bi][ri] = row
            if not improved:
                step *= 0.5
                if step < tol:
                    break
    return best


def _structured_inits(nu, nv, nx):
    """Deterministic starting chains: a full-alphabet carrier, a secrecy
    layout (constant first layer, uniform second layer on the inputs), and
    a uniform carrier over all first-layer symbols."""

    def ident_rows(n_in, n_out):
        rows = np.zeros((n_in, n_out))
        rows[np.arange(n_in), np.arange(n_in) % n_out] = 1.0
        return rows

    inits = []
    pu = np.zeros(nu)
    pu[: min(nu, nx)] = 1.0 / min(nu, nx)
    inits.append([pu.reshape(1, -1), ident_rows(nu, nv), ident_rows(nv, nx)])

    pu = np.zeros(nu)
    pu[0] = 1.0
    pvu = ident_rows(nu, nv)
    pvu[0] = 0.0
    pvu[0, : min(nv, nx)] = 1.0 / min(nv, nx)
    inits.append([pu.reshape(1, -1), pvu, ident_rows(nv, nx)])

    inits.append([np.full((1, nu), 1.0 / nu), ident_rows(nu, nv), ident_rows(nv, nx)])
    return inits


def _random_init(nu, nv, nx, rng):
    return [
        rng.dirichlet(np.ones(nu)).reshape(1, -1),
        rng.dirichlet(np.ones(nv), size=nu),
        rng.dirichlet(np.ones(nx), size=nv),
    ]


def _climb_restarts(score, start, p: SearchParams, restarts: int, key: tuple = (), stop_at=None) -> tuple:
    """Best of `restarts` hill climbs; returns (value, blocks).

    Restart i draws its random stream from (seed, *key, i) and climbs from
    start(i, rng), so the result depends only on the seed and the key. Ties
    across restarts resolve to the lowest restart index; with stop_at, the
    search ends at the first restart that reaches it.
    """
    best_val, best_blocks = -np.inf, None
    for i in range(restarts):
        rng = np.random.default_rng((p.seed, *key, i))
        blocks = start(i, rng)
        val = _hill_climb(score, blocks, rng, p.iterations, p.tol, stop_at)
        if val > best_val:
            best_val, best_blocks = val, blocks
        if stop_at is not None and val >= stop_at:
            break
    return best_val, best_blocks


def _search_chain(
    ch: BroadcastChannel,
    score_fn: Callable,
    p: SearchParams,
    stop_at: Optional[float] = None,
) -> tuple:
    """Maximize score_fn(iu1, iu2, iv1, iv2) over auxiliary chains."""
    nx = ch.x_size
    nu, nv = p.sizes_for(nx)
    w1 = marginal(ch, 1).matrix
    w2 = marginal(ch, 2).matrix

    def score(blocks):
        iq4 = _core.chain_info(np.ascontiguousarray(blocks[0][0]), blocks[1], blocks[2], w1, w2)
        return score_fn(*iq4)

    inits = _structured_inits(nu, nv, nx)

    def start(i, rng):
        return [b.copy() for b in inits[i]] if i < len(inits) else _random_init(nu, nv, nx, rng)

    best_val, blocks = _climb_restarts(score, start, p, p.restarts, stop_at=stop_at)
    chain = AuxChain(
        Dist.normalized(blocks[0][0]),
        CondDist(blocks[1] / blocks[1].sum(axis=1, keepdims=True)),
        CondDist(blocks[2] / blocks[2].sum(axis=1, keepdims=True)),
    )
    return best_val, chain


# ---------------------------------------------------------------------------
# public region operations
# ---------------------------------------------------------------------------


def support_function(ch: BroadcastChannel, w, p: SearchParams = SearchParams()) -> SupportResult:
    """Maximum of w . (rc,re,r1,r2) over the full rate-equivocation region."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (4,) or np.any(w < 0.0) or not np.any(w > 0.0):
        raise ValidationError("support_function: weights must be 4 nonnegative values, not all zero")
    w = w.tolist()  # the corner is scored once per kernel call; floats keep that cheap

    def score(iu1, iu2, iv1, iv2):
        return _best_corner(iu1, iu2, iv1, iv2, w)[0]

    _, chain = _search_chain(ch, score, p)
    iq = evaluate_chain(chain, ch)
    val, corner = _best_corner(iq.iu1, iq.iu2, iq.iv1, iq.iv2, w)
    return SupportResult(val, chain, RateTuple(*corner))


def _octant_directions(count: int, dims: int) -> list:
    """Deterministic nonnegative weight directions: the integer lattice on
    the simplex, densified until at least `count` directions exist."""
    m = 1
    while math.comb(m + dims - 1, dims - 1) < count:
        m += 1
    dirs = []
    for combo in itertools.product(range(m + 1), repeat=dims):
        if sum(combo) == m:
            dirs.append(tuple(c / m for c in combo))
    return dirs


def secrecy_frontier(
    ch: BroadcastChannel,
    p: SearchParams = SearchParams(),
    weights: Optional[Sequence] = None,
) -> list:
    """Frontier of the perfect-secrecy region as (Rc, R1, R2) support points.

    The region is the re = rc slice of the full region, so the direction
    (wc, w1, w2) is the full-region direction (0, wc, w1, w2): with
    nonnegative weights each chain's best corner there is the box corner
    (secrecy bound, I(U;Y1), I(U;Y2)), which is the reported point.
    """
    if weights is None:
        weights = _octant_directions(p.grid, 3)
    entries = []
    for wdir in weights:
        res = support_function(ch, (0.0, *wdir), p)
        iq = evaluate_chain(res.chain, ch)
        point = RateTuple(iq.secrecy_bound, iq.secrecy_bound, iq.iu1, iq.iu2)
        wc, w1, w2 = (float(x) for x in wdir)
        entries.append(FrontierEntry((wc, 0.0, w1, w2), point, res.value, res.chain))
    return _dedupe(entries)


def bbc_frontier(ch: BroadcastChannel, p: SearchParams = SearchParams()) -> list:
    """Upper-right frontier of the plain bidirectional region.

    Weighted-sum maximization over the input law (the first layer is held
    constant and the second layer is the input itself), followed by a
    Pareto/hull closure of the support points; mixing any two points is
    achievable by time sharing, so the point list represents the hull.
    """
    nx = ch.x_size
    w1 = marginal(ch, 1).matrix
    w2 = marginal(ch, 2).matrix
    pxv = np.eye(nx)

    def mi_pair(px_blocks):
        iq4 = _core.chain_info(
            np.array([1.0]), np.ascontiguousarray(px_blocks[0]), pxv, w1, w2
        )
        return iq4[2], iq4[3]

    def start(i, rng):
        return [np.full((1, nx), 1.0 / nx) if i == 0 else rng.dirichlet(np.ones(nx)).reshape(1, -1)]

    entries = []
    for k in range(p.grid):
        theta = (math.pi / 2) * k / max(1, p.grid - 1)
        wr1, wr2 = math.cos(theta), math.sin(theta)

        def score(blocks, wr1=wr1, wr2=wr2):
            i1, i2 = mi_pair(blocks)
            return wr1 * i1 + wr2 * i2

        # the weighted objective is concave in the input law, so a few
        # restarts are plenty
        best_val, best_blocks = _climb_restarts(score, start, p, min(p.restarts, 6), key=(k,))
        i1, i2 = mi_pair(best_blocks)
        input_chain = AuxChain(
            Dist([1.0]),
            CondDist(best_blocks[0] / best_blocks[0].sum()),
            CondDist(pxv),
        )
        entries.append(
            FrontierEntry((0.0, 0.0, wr1, wr2), RateTuple(0.0, 0.0, i1, i2), best_val, input_chain)
        )
    return _pareto(_dedupe(entries))


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


def full_frontier(
    ch: BroadcastChannel,
    p: SearchParams = SearchParams(),
    weights: Optional[Sequence] = None,
) -> list:
    """Support points of the full rate-equivocation region over sampled
    4-dimensional weight directions."""
    if weights is None:
        weights = _octant_directions(p.grid, 4)
    entries = []
    for wdir in weights:
        res = support_function(ch, wdir, p)
        entries.append(
            FrontierEntry(tuple(float(x) for x in wdir), res.corner, res.value, res.chain)
        )
    return _dedupe(entries)


def _entropy_caps(ch: BroadcastChannel) -> tuple:
    cap1 = min(math.log2(ch.x_size), math.log2(ch.y1_size))
    cap2 = min(math.log2(ch.x_size), math.log2(ch.y2_size))
    return cap1, cap2


def membership(t: RateTuple, ch: BroadcastChannel, p: SearchParams = SearchParams()) -> MembershipResult:
    """Search verdict for one tuple: inside with a witness chain, outside up
    to the search budget, or boundary (normally unresolvable).

    "outside_up_to" is not a certificate: the support search can
    under-estimate. The verdict records the budget that produced it.
    """
    cap1, cap2 = _entropy_caps(ch)
    cap_margin = min(
        cap1 - t.r1,
        cap2 - t.r2,
        cap1 - t.re,
        2 * cap1 - t.rc - t.r1,
        cap1 + cap2 - t.rc - t.r2,
    )
    if cap_margin < -SLACK:
        # the caps outer-bound every chain's quantities, so this is already
        # a separation certificate
        return MembershipResult(
            "outside_up_to", t, None, cap_margin, p,
            evidence={"kind": "entropy_cap", "caps": [cap1, cap2]},
        )

    def score(iu1, iu2, iv1, iv2):
        return _margin(InfoQuantities(iu1, iu2, iv1, iv2), t)

    best_margin, chain = _search_chain(ch, score, p, stop_at=0.0)
    best_margin = _margin(evaluate_chain(chain, ch), t)
    if best_margin >= -SLACK:
        return MembershipResult("inside", t, chain, best_margin, p)

    tvec = t.as_array()
    directions = []
    norm = float(np.linalg.norm(tvec))
    if norm > 0:
        directions.append(tuple(tvec / norm))
    directions.extend(_octant_directions(min(p.grid, 10), 4))
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
