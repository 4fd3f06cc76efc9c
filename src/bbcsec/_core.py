"""The hot kernel of the region search: the four information terms of an
auxiliary chain, in numpy.

Callers look the kernel up as `_core.chain_info` at call time, so it can be
wrapped from outside (for example to count calls) without editing them.
"""

import numpy as np


def chain_info(pu, pvu, pxv, w1, w2):
    """Four mutual-information terms (bits) of a two-layer input law.

    pu:  (nu,) first-layer distribution
    pvu: (nu, nv) second layer given first
    pxv: (nv, nx) channel-input law given second layer
    w1:  (nx, ny1) marginal channel to node 1
    w2:  (nx, ny2) marginal channel to node 2

    Returns (iu1, iu2, iv1, iv2) where iui = I(U;Yi) and ivi = I(V;Yi|U),
    evaluated against the per-letter effective channel from the second
    layer (the input-randomization law folded into the physical channel).
    """
    puv = pu[:, None] * pvu
    out = []
    for w in (w1, w2):
        wv = pxv @ w            # effective per-letter law, second layer -> output
        puy = puv @ wv
        py = puy.sum(axis=0)

        mask = puy > 0.0
        denom = pu[:, None] * py[None, :]
        ratio = np.divide(puy, denom, out=np.ones_like(puy), where=mask)
        iu = float(np.sum(puy[mask] * np.log2(ratio[mask])))

        t = puv[:, :, None] * wv[None, :, :]
        valid = t > 0.0
        num = wv[None, :, :] * pu[:, None, None]
        den = np.broadcast_to(puy[:, None, :], t.shape)
        ratio2 = np.divide(num, den, out=np.ones_like(t), where=valid)
        iv = float(np.sum(t[valid] * np.log2(ratio2[valid])))
        out.extend((iu, iv))

    return out[0], out[2], out[1], out[3]
