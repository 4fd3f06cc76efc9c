"""The chain_info kernel must agree with the reference path through the
full chain joint."""

import numpy as np

from bbcsec import _core
from bbcsec.channel import marginal
from bbcsec.probability import CondDist, Dist, chain_joint, conditional_mutual_information

from .conftest import random_chain, random_channel


def _reference_iq(chain, ch):
    j = chain_joint(chain.pu, chain.pvu, chain.pxv, ch)
    return (
        conditional_mutual_information(j, {"U"}, {"Y1"}),
        conditional_mutual_information(j, {"U"}, {"Y2"}),
        conditional_mutual_information(j, {"V"}, {"Y1"}, {"U"}),
        conditional_mutual_information(j, {"V"}, {"Y2"}, {"U"}),
    )


def test_kernel_matches_joint_reference():
    rng = np.random.default_rng(1)
    for _ in range(50):
        chain = random_chain(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)), 2)
        ch = random_channel(rng, 2, 2, 3)
        fast = np.array(_core.chain_info(
            chain.pu.probs, chain.pvu.rows, chain.pxv.rows,
            marginal(ch, 1).matrix, marginal(ch, 2).matrix,
        ))
        ref = np.array(_reference_iq(chain, ch))
        assert np.max(np.abs(fast - ref)) < 1e-10


def test_kernel_handles_zero_support():
    # hard zeros in every block must not produce NaNs
    chain_pu = Dist([1.0, 0.0])
    chain_pvu = CondDist([[1.0, 0.0], [0.0, 1.0]])
    chain_pxv = CondDist([[1.0, 0.0], [1.0, 0.0]])
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = _core.chain_info(chain_pu.probs, chain_pvu.rows, chain_pxv.rows, w, w)
    assert all(np.isfinite(out))
    assert all(abs(v) < 1e-12 for v in out)
