"""The hot kernel of the region search: the four information terms of a batch
of auxiliary chains, in numpy, by the entropy chain rule.

Callers look the kernel up as `_core.chain_info` at call time, so it can be
wrapped from outside (for example to count calls) without editing them.
"""

import numpy as np


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
    folded into the physical channel). By the chain rule and U - V - Y,
    iui = H(Yi) - H(Yi|U) and ivi = H(Yi|U) - H(Yi|V); both channels sit
    side by side in one output axis, so each entropy is one pass over 3-D
    arrays. P(y|u) is the product pvu @ P(y|v), never a quotient, so a
    one-point first layer gives iu = 0 and V = U gives iv = 0 exactly. Each
    term is summed over the chain's own cells only, so row b equals, bit for
    bit, the batch-1 call on chain b alone. Every term is clamped at zero
    here, since the sums can leave an exact 0 as low as -6e-16.
    """
    wv = pxv @ np.hstack([w1, w2])  # P(y|v), (B, nv, ny1 + ny2)
    q = pvu @ wv                    # P(y|u)
    pu_row = pu[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        hy = _plogp(pu_row @ q)            # -H(Y) per output column, (B, 1, ny1 + ny2)
        hyu = pu_row @ _plogp(q)           # -H(Y|U)
        hyv = (pu_row @ pvu) @ _plogp(wv)  # -H(Y|V)
    cols = np.concatenate([hyu - hy, hyv - hyu], axis=1)  # (B, 2, ny1 + ny2)
    terms = np.add.reduceat(cols, [0, w1.shape[1]], axis=2).reshape(len(pu), 4)
    return np.maximum(terms, 0.0)


def _plogp(p):
    """p log2 p per cell, 0 where the log is not finite (the cells p = 0)."""
    lg = np.log2(p)
    return np.where(np.isfinite(lg), p * lg, 0.0)
