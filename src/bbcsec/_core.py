"""The hot kernel of the region search: the four information terms of a batch
of auxiliary chains, in numpy.

Callers look the kernel up as `_core.chain_info` at call time, so it can be
wrapped from outside (for example to count calls) without editing them.
"""

import numpy as np


def _masked_sums(parts):
    """For each chain b and each (terms, mask) pair in parts, the sum of the
    1-D array terms[b][mask[b]], added in the order `np.sum` adds it; returns
    a (B, len(parts)) array.

    So a chain's value does not depend on the rest of its batch. Every run
    starts with a 0.0, as `np.sum` starts from zero: `np.add.reduceat` starts
    a run from its first element, and would round differently.
    """
    b = parts[0][0].shape[0]
    zero, lead = np.zeros((b, 1)), np.ones((b, 1), dtype=bool)
    mask = np.concatenate([x for _, m in parts for x in (lead, m.reshape(b, -1))], axis=1)
    runs = np.concatenate([x for t, _ in parts for x in (zero, t.reshape(b, -1))], axis=1)[mask]
    leads = np.cumsum([0] + [1 + m[0].size for _, m in parts[:-1]])
    counts = np.add.reduceat(mask, leads, axis=1, dtype=np.intp).ravel()
    return np.add.reduceat(runs, np.cumsum(counts) - counts).reshape(b, len(parts))


def chain_info(pu, pvu, pxv, w1, w2):
    """Four mutual-information terms (bits) of each chain in a batch of B
    two-layer input laws.

    pu:  (B, nu) first-layer distributions
    pvu: (B, nu, nv) second layer given first
    pxv: (B, nv, nx) channel-input laws given second layer
    w1:  (nx, ny1) marginal channel to node 1
    w2:  (nx, ny2) marginal channel to node 2

    Returns a (B, 4) array whose row b is (iu1, iu2, iv1, iv2) of chain b,
    where iui = I(U;Yi) and ivi = I(V;Yi|U), evaluated against the per-letter
    effective channel from the second layer (the input-randomization law
    folded into the physical channel). Row b equals, bit for bit, the batch-1
    call on chain b alone.
    """
    puv = pu[:, :, None] * pvu
    iu, iv = [], []
    # zero-probability cells give 0/0 and log2(0); _masked_sums drops them
    with np.errstate(divide="ignore", invalid="ignore"):
        for w in (w1, w2):
            wv = pxv @ w            # effective per-letter law, second layer -> output
            puy = puv @ wv
            py = puy.sum(axis=1)
            ratio = puy / (pu[:, :, None] * py[:, None, :])
            iu.append((puy * np.log2(ratio), puy > 0.0))

            t = puv[:, :, :, None] * wv[:, None, :, :]
            ratio2 = (wv[:, None, :, :] * pu[:, :, None, None]) / puy[:, :, None, :]
            iv.append((t * np.log2(ratio2), t > 0.0))
    return _masked_sums(iu + iv)
