"""Independent oracles used by the tests.

Everything here is implemented directly from definitions (explicit sums,
grid searches, brute-force enumeration) without importing the package
under test, so the tests compare two unrelated computation paths.
"""

import itertools
import math
from statistics import NormalDist

import numpy as np


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def entropy_of(probs) -> float:
    return -math.fsum(p * math.log2(p) for p in np.asarray(probs).reshape(-1) if p > 0)


def mutual_information_xy(joint: np.ndarray) -> float:
    """I(X;Y) of a 2-D joint by the plain double sum."""
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            p = joint[i, j]
            if p > 0:
                total += p * math.log2(p / (px[i] * py[j]))
    return total


def mi_against_channel(px: np.ndarray, w: np.ndarray) -> float:
    """I(X;Y) for input law px through transition matrix w."""
    return mutual_information_xy(px[:, None] * w)


def chain_terms(pu, pvu, pxv, w1, w2) -> tuple:
    """(I(U;Y1), I(U;Y2), I(V;Y1|U), I(V;Y2|U)) of the chain U -> V -> X ->
    Yi with P(u) = pu, P(v|u) = pvu, P(x|v) = pxv, P(yi|x) = wi, from the
    plain sums of mi_against_channel: I(U;Yi) against P(yi|u), and
    I(V;Yi|U) as the P(u)-average of I(V;Yi | U = u) against P(yi|v)."""
    iu = [mi_against_channel(pu, pvu @ pxv @ w) for w in (w1, w2)]
    iv = [sum(pu[u] * mi_against_channel(pvu[u], pxv @ w) for u in range(len(pu))) for w in (w1, w2)]
    return (*iu, *iv)


def best_corner(iu1, iu2, iv1, iv2, w) -> tuple:
    """Maximum of w . (rc, re, r1, r2) over the rate polytope of each set of
    information terms (arrays of one shape), by enumerating its five
    vertices: with m = min(iu1, iu2), (r1, r2) is (0, 0), (iu1, 0), (0, iu2),
    (iu1, iu2) or (iu1 - m, iu2 - m), rc = iv1 + min(iu1 - r1, iu2 - r2)
    (written as iv1 plus m or 0) and re = min(rc, max(0, iv1 - iv2)). Ties
    go to the larger re, then rc, r1, r2. Returns the values and the
    corners (rc, re, r1, r2)."""
    zero = np.zeros(np.shape(iu1))
    m = np.minimum(iu1, iu2)
    r1 = np.array([zero, iu1, zero, iu1, iu1 - m])
    r2 = np.array([zero, zero, iu2, iu2, iu2 - m])
    rc = iv1 + np.array([m, zero, zero, zero, m])
    re = np.minimum(rc, np.maximum(0.0, iv1 - iv2))
    val = w[0] * rc + w[1] * re + w[2] * r1 + w[3] * r2
    keys = np.array([r2, r1, rc, re, val])
    pick = np.lexsort(keys, axis=0)[-1:]  # lexsort's primary key is the last
    r2, r1, rc, re, val = np.take_along_axis(keys, pick[None], axis=1)[:, 0]
    return val, (rc, re, r1, r2)


def grid_max_binary(f, step: float = 1e-4) -> float:
    """Maximize f(p) over the binary input law (p, 1-p) on a fixed grid."""
    best = -math.inf
    k = 0
    while True:
        p = k * step
        if p > 1.0:
            break
        best = max(best, f(np.array([1.0 - p, p])))
        k += 1
    return best


def grid_secrecy_rate(w1: np.ndarray, w2: np.ndarray, step: float = 1e-4) -> float:
    """max over binary inputs of I(X;Y1) - I(X;Y2), the degraded-channel
    secrecy rate."""
    return grid_max_binary(
        lambda px: mi_against_channel(px, w1) - mi_against_channel(px, w2), step
    )


def grid_channel_capacity(w: np.ndarray, step: float = 1e-4) -> float:
    return grid_max_binary(lambda px: mi_against_channel(px, w), step)


def binary_secrecy_capacity(joint, points: int) -> float:
    """Secrecy capacity of a binary-input channel joint[x, y1, y2] =
    P(y1, y2 | x): by Csiszar and Korner (1978) the max over V -> X of
    I(V;Y1) - I(V;Y2), which at input law P is g(P) minus the lower convex
    envelope of g, g(P) = H(Y1) - H(Y2). Both are taken on `points` equally
    spaced laws P = (1 - p, p), the envelope as the lower hull of those
    points (Andrew's monotone chain), so the value is a lower estimate that
    tightens as the grid refines."""
    joint = np.asarray(joint, dtype=float)
    p = np.linspace(0.0, 1.0, points)
    laws = np.stack([1.0 - p, p], axis=1)

    def entropies(q):
        with np.errstate(divide="ignore", invalid="ignore"):
            return -np.where(q > 0, q * np.log2(q), 0.0).sum(axis=1)

    g = entropies(laws @ joint.sum(axis=2)) - entropies(laws @ joint.sum(axis=1))
    hull = []
    for i in range(points):
        # drop the last vertex while it lies on or above the chord to point i
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (p[b] - p[a]) * (g[i] - g[a]) - (g[b] - g[a]) * (p[i] - p[a]) > 0:
                break
            hull.pop()
        hull.append(i)
    return float(np.max(g - np.interp(p, p[hull], g[hull])))


def duality_bound(px, ws, weights) -> float:
    """Upper bound on the maximum over input laws of sum_k w_k I(X;Y_k),
    valid at any law px: the maximum over x of
    sum_k w_k sum_y W_k(y|x) log2(W_k(y|x) / q_k(y)), with q_k = px W_k."""
    best = -math.inf
    for x in range(len(px)):
        total = 0.0
        for wk, w in zip(weights, ws):
            for y in range(w.shape[1]):
                q = sum(px[i] * w[i, y] for i in range(len(px)))
                if w[x, y] > 0:
                    total += wk * w[x, y] * math.log2(w[x, y] / q)
        best = max(best, total)
    return best


def degraded_secrecy_capacity(w1, k, tol: float) -> tuple:
    """(value, gap): the secrecy capacity max_P [I(X;Y1) - I(X;Y2)] of the
    degraded pair W1 and W2 = W1 K, and a certified bound on its error.

    On a degraded pair, V = X is optimal (Csiszar and Korner, 1978) and the
    objective f is concave in the input law P (van Dijk, 1997). With
    g_x = D(W1(.|x) || P W1) - D(W2(.|x) || P W2), the gradient up to a
    constant, concavity bounds the optimum by f(P) + max_x g_x - <g, P>; the
    returned gap is that bound minus f(P), and the ascent stops once it is
    at most `tol`. Ascent: exponentiated gradient, P <- P 2^(eta g) / Z; a
    step is taken, and eta grown by half, when f's slope at the new law
    along the step is not negative, and eta is halved otherwise."""
    w1 = np.asarray(w1, dtype=float)
    w2 = w1 @ np.asarray(k, dtype=float)

    def divergences(p, w):
        # D(W(.|x) || P W) per input x, with 0 log 0 = 0
        ratio = np.divide(w, p @ w, out=np.ones_like(w), where=w > 0)
        return (w * np.log2(ratio)).sum(axis=1)

    def value_and_gradient(p):
        g = divergences(p, w1) - divergences(p, w2)
        return float(p @ g), g  # <g, P> is I(X;Y1) - I(X;Y2)

    p = np.full(w1.shape[0], 1.0 / w1.shape[0])
    f, g = value_and_gradient(p)
    eta = 1.0
    for _ in range(200_000):
        gap = float(g.max()) - f
        if gap <= tol:
            return f, gap
        step = p * np.exp2(eta * (g - g.max()))
        step /= step.sum()
        f_step, g_step = value_and_gradient(step)
        # by concavity f(step) - f(p) >= <g(step), step - p>, a test that keeps
        # its sign where f changes by less than its round-off; g is centred
        # first, as sum(step - p) is zero only up to round-off
        if (g_step - f_step) @ (step - p) >= 0.0:
            p, f, g, eta = step, f_step, g_step, eta * 1.5
        else:
            eta /= 2
    raise RuntimeError(f"degraded_secrecy_capacity: gap {gap} above {tol} after 200000 steps")


def binomial_ci(errors: int, trials: int) -> tuple:
    """(low, high) of the 95% interval of an error frequency, clipped to
    [0, 1]: Wilson's score interval when fewer than 10 errors or 10 successes
    were seen, the normal interval otherwise. Wilson's ends are taken as the
    roots of its score equation (p_hat - p)^2 = z^2 p (1 - p) / trials."""
    z = NormalDist().inv_cdf(0.975)
    p_hat = errors / trials
    if min(errors, trials - errors) < 10:
        a, b, c = 1 + z * z / trials, -(2 * p_hat + z * z / trials), p_hat * p_hat
        root = math.sqrt(b * b - 4 * a * c)
        low, high = (-b - root) / (2 * a), (-b + root) / (2 * a)
    else:
        half = z * math.sqrt(p_hat * (1 - p_hat) / trials)
        low, high = p_hat - half, p_hat + half
    return min(max(low, 0.0), 1.0), min(max(high, 0.0), 1.0)


def bsc(p: float) -> np.ndarray:
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def message_map(j_size: int, l_size: int, m0_size: int, k_size) -> tuple:
    """The confidential message of every codeword cell, by the two
    constructions' definitions: (cell_mc (j, l, m0), mc_size, cells_per_mc).

    k_size None (case A): message (j, l, m0) in index digits, one cell each.
    Otherwise (case B, m0_size 1): message (j mod k, l) in index digits,
    owning the columns of its class.
    """
    cell_mc = np.empty((j_size, l_size, m0_size), dtype=np.int64)
    for j, l, m0 in itertools.product(range(j_size), range(l_size), range(m0_size)):
        if k_size is None:
            cell_mc[j, l, m0] = (j * l_size + l) * m0_size + m0
        else:
            cell_mc[j, l, m0] = (j % k_size) * l_size + l
    mc_size = j_size * l_size * m0_size if k_size is None else k_size * l_size
    cells_per_mc = [0] * mc_size
    for mc in cell_mc.reshape(-1).tolist():
        cells_per_mc[mc] += 1
    return cell_mc, mc_size, cells_per_mc


def brute_force_equivocation(v_words, sizes, m2: int, k_size, wv2) -> float:
    """H(Mc | Y2-word) given node 2's message m2, by full enumeration.

    v_words: the codebook's second-layer words, indexed [j, l, m0, m1, m2]
    then position; sizes: (m0, m1, m2, j, l); k_size: None for the triple
    construction (message (j, l, m0), probability 1/m1 per word), else the
    class count (message (j mod k, l), probability 1/(m1 |class|) per word,
    |class| the number of columns j' with j' mod k = j mod k); wv2:
    (|V|, |Y2|) effective channel. Uniform prior on the messages.
    """
    m0_size, m1_size, _, j_size, l_size = sizes
    v_words = np.asarray(v_words)
    n = v_words.shape[-1]
    ny = wv2.shape[1]
    words = []  # (word, message, P(word | message))
    for j, l, m0, m1 in itertools.product(range(j_size), range(l_size), range(m0_size), range(m1_size)):
        if k_size is None:
            msg, prob = (j, l, m0), 1.0 / m1_size
        else:
            members = sum(1 for jj in range(j_size) if jj % k_size == j % k_size)
            msg, prob = (j % k_size, l), 1.0 / (m1_size * members)
        words.append((v_words[j, l, m0, m1, m2], msg, prob))
    messages = sorted({msg for _, msg, _ in words})
    total = 0.0
    for y in itertools.product(range(ny), repeat=n):
        joint = dict.fromkeys(messages, 0.0)
        for word, msg, prob in words:
            lik = 1.0
            for k in range(n):
                lik *= wv2[word[k], y[k]]
            joint[msg] += lik * prob / len(messages)
        py = sum(joint.values())
        if py <= 0:
            continue
        for pm in joint.values():
            if pm > 0:
                total -= pm * math.log2(pm / py)
    return total


def sample_entropy_check(seqs: dict, joint: np.ndarray, axis_names, epsilon: float) -> bool:
    """Direct weak-typicality oracle: every non-empty subset's sample
    log-probability within epsilon of the subset entropy."""
    n = len(next(iter(seqs.values())))
    names = list(axis_names)
    for r in range(1, len(names) + 1):
        for sub in itertools.combinations(range(len(names)), r):
            axes_to_drop = tuple(i for i in range(len(names)) if i not in sub)
            marg = joint.sum(axis=axes_to_drop) if axes_to_drop else joint
            h = entropy_of(marg)
            logp = 0.0
            for k in range(n):
                idx = tuple(seqs[names[i]][k] for i in sub)
                p = marg[idx]
                if p <= 0:
                    return False
                logp += math.log2(p)
            if abs(-logp / n - h) > epsilon:
                return False
    return True


def inner_column_decode(y2, l, mprime, cb, epsilon):
    """Analysis decoder: the column index node 2 recovers from its word y2
    when given the row l and the first-layer triple mprime, or None unless
    exactly one column is typical.

    Column j is typical when every non-empty subset of (first-layer word,
    the word at (j, l, mprime), y2) has its sample log-probability within
    `epsilon` of the subset entropy under P(u, v, y2), the chain joint with
    the physical input and node 1's output summed out. Reads the
    codebook's arrays only; all columns are tested at once.
    """
    c = cb.chain
    joint = np.einsum("u,uv,vx,xab->uvb", c.pu.probs, c.pvu.rows, c.pxv.rows, cb.channel.tensor)
    v = cb.v_words[(slice(None), l, *mprime)]  # (columns, n)
    seqs = (np.broadcast_to(cb.u_words[tuple(mprime)], v.shape), v, np.broadcast_to(y2, v.shape))
    n = v.shape[1]
    ok = np.ones(v.shape[0], dtype=bool)
    for r in range(1, 4):
        for sub in itertools.combinations(range(3), r):
            drop = tuple(i for i in range(3) if i not in sub)
            marg = joint.sum(axis=drop) if drop else joint
            p = marg[tuple(seqs[i] for i in sub)]
            with np.errstate(divide="ignore"):
                sample = -np.log2(p).sum(axis=1) / n
            ok &= (p > 0).all(axis=1) & (np.abs(sample - entropy_of(marg)) <= epsilon)
    hits = np.flatnonzero(ok)
    return int(hits[0]) if hits.size == 1 else None


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def one_sided(s, t):
        return max(min(np.linalg.norm(p - q) for q in t) for p in s)

    return max(one_sided(a, b), one_sided(b, a))
