"""The hot kernel of the region search: the four information terms of a batch
of auxiliary chains, in numpy.

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
    folded into the physical channel). Each term is summed over the chain's
    own cells only, so row b equals, bit for bit, the batch-1 call on chain
    b alone.
    """
    puv = pu[:, :, None] * pvu
    out = np.empty((pu.shape[0], 4))
    # Each term sums p * log2(ratio) over the cells where the log is finite.
    # That drops the zero-probability cells (0/0, log2(0)) and the cells
    # whose ratio leaves the floats: a denominator that underflows to 0 under
    # a positive numerator, or a quotient that overflows. Such a cell holds
    # a mass below 2e-162, so its term is negligible.
    # Every other sum is bit for bit that of the mask p > 0: the only cells
    # kept beyond it add 0 * a finite log.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k, w in enumerate((w1, w2)):
            wv = pxv @ w            # effective per-letter law, second layer -> output
            puy = puv @ wv
            py = puy.sum(axis=1)
            lr = np.log2(puy / (pu[:, :, None] * py[:, None, :]))
            out[:, k] = np.where(np.isfinite(lr), puy * lr, 0.0).sum(axis=(1, 2))

            t = puv[:, :, :, None] * wv[:, None, :, :]
            lr2 = np.log2((wv[:, None, :, :] * pu[:, :, None, None]) / puy[:, :, None, :])
            out[:, 2 + k] = np.where(np.isfinite(lr2), t * lr2, 0.0).sum(axis=(1, 2, 3))
    return out
