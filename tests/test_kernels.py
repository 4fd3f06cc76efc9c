"""The chain_info kernel must agree with the plain-sum reference in
`oracles.chain_terms`, on batches, and a chain's row must not depend on the
rest of its batch."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbcsec import AuxChain, CondDist, Dist, _core
from bbcsec.channel import marginal

from . import oracles
from .conftest import random_chain, random_channel, with_zeros


def _reference_iq(chain, ch):
    return oracles.chain_terms(chain.pu.probs, chain.pvu.rows, chain.pxv.rows, *_marginals(ch))


def _batch(chains):
    return (
        np.stack([c.pu.probs for c in chains]),
        np.stack([c.pvu.rows for c in chains]),
        np.stack([c.pxv.rows for c in chains]),
    )


def _mixed_batch(rng, size, nu, nv, nx):
    chains = [random_chain(rng, nu, nv, nx) for _ in range(size)]
    return [with_zeros(rng, c) if i % 2 else c for i, c in enumerate(chains)]


def test_kernel_matches_joint_reference():
    rng = np.random.default_rng(1)
    for _ in range(50):
        chain = random_chain(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)), 2)
        ch = random_channel(rng, 2, 2, 3)
        fast = _core.chain_info(*_batch([chain]), marginal(ch, 1).matrix, marginal(ch, 2).matrix)
        assert fast.shape == (1, 4)
        ref = np.array(_reference_iq(chain, ch))
        assert np.max(np.abs(fast[0] - ref)) < 1e-10


def test_batch_matches_joint_reference():
    rng = np.random.default_rng(2)
    for nu, nv, nx, ny1, ny2 in ((3, 4, 2, 2, 3), (1, 5, 3, 3, 2), (4, 2, 3, 4, 4)):
        ch = random_channel(rng, nx, ny1, ny2)
        chains = _mixed_batch(rng, 12, nu, nv, nx)
        fast = _core.chain_info(*_batch(chains), marginal(ch, 1).matrix, marginal(ch, 2).matrix)
        assert fast.shape == (len(chains), 4)
        for row, chain in zip(fast, chains):
            assert np.max(np.abs(row - np.array(_reference_iq(chain, ch)))) < 1e-10


def test_batch_size_invariance():
    # each row of a batch is the batch-1 call on that chain, bit for bit
    rng = np.random.default_rng(3)
    batches = []
    for nu, nv, nx in ((5, 8, 2), (6, 8, 3), (2, 3, 2)):
        ch = random_channel(rng, nx, nx + 1, 2)
        batches.append((ch, _mixed_batch(rng, 16, nu, nv, nx)))
    # a batch the size of the default restart count, hard zeros in every chain
    ch = random_channel(rng, 3, 4, 2)
    batches.append((ch, [with_zeros(rng, random_chain(rng, 6, 8, 3)) for _ in range(64)]))
    for ch, chains in batches:
        w1, w2 = marginal(ch, 1).matrix, marginal(ch, 2).matrix
        full = _core.chain_info(*_batch(chains), w1, w2)
        for row, chain in zip(full, chains):
            assert np.array_equal(row, _core.chain_info(*_batch([chain]), w1, w2)[0])
        half = _core.chain_info(*_batch(chains[5:13]), w1, w2)
        assert np.array_equal(half, full[5:13])


def test_kernel_handles_zero_support():
    # hard zeros in every block must not produce NaNs, alone or in a batch
    zero_chain = AuxChain(
        Dist([1.0, 0.0]), CondDist([[1.0, 0.0], [0.0, 1.0]]), CondDist([[1.0, 0.0], [1.0, 0.0]])
    )
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = _core.chain_info(*_batch([zero_chain]), w, w)
    assert np.all(np.isfinite(out))
    assert np.all(np.abs(out) < 1e-12)

    other = random_chain(np.random.default_rng(4), 2, 2, 2)
    batch = _core.chain_info(*_batch([other, zero_chain, other]), w, w)
    assert np.all(np.isfinite(batch))
    assert np.array_equal(batch[1], out[0])
    assert np.array_equal(batch[0], batch[2])


def _marginals(ch):
    return marginal(ch, 1).matrix, marginal(ch, 2).matrix


@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(1, 5), nv=st.integers(1, 8), nx=st.integers(2, 4),
       zeros=st.booleans(), tiny=st.booleans())
@example(seed=0, nu=5, nv=8, nx=2, zeros=True, tiny=True)
@example(seed=1, nu=1, nv=1, nx=3, zeros=False, tiny=True)
@settings(max_examples=60, deadline=None)
def test_chain_rule_identity(seed, nu, nv, nx, zeros, tiny):
    # I(U;Y) + I(V;Y|U) = I(V;Y), the iu of the folded chain: P_V as the first
    # layer, an identity second layer, the same P_X|V
    rng = np.random.default_rng(seed)
    ch = random_channel(rng, nx, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
    chains = [random_chain(rng, nu, nv, nx) for _ in range(4)]
    pu, pvu, pxv = _batch([with_zeros(rng, c) for c in chains] if zeros else chains)
    if tiny:  # a mass of 5e-324, the smallest subnormal, in each block
        for rows in (pu[0], pvu[1, 0], pxv[2, -1]):
            rows[-1] = 5e-324
            rows /= rows.sum()
    iq = _core.chain_info(pu, pvu, pxv, *_marginals(ch))
    pv = (pu[:, None, :] @ pvu)[:, 0]
    folded = _core.chain_info(pv, np.repeat(np.eye(nv)[None], len(pv), axis=0), pxv, *_marginals(ch))
    assert np.all(np.isfinite(iq))
    assert np.max(np.abs(iq[:, :2] + iq[:, 2:] - folded[:, :2])) < 1e-12


def test_one_point_first_layer_gives_exactly_zero_iu():
    rng = np.random.default_rng(5)
    for nu, nv, nx in ((1, 8, 2), (3, 5, 3), (6, 8, 3)):
        ch = random_channel(rng, nx, nx + 1, 2)
        chains = _mixed_batch(rng, 12, nu, nv, nx)
        pu, pvu, pxv = _batch(chains)
        pu = np.eye(nu)[rng.integers(0, nu, size=len(chains))]  # each chain's U is one point
        iq = _core.chain_info(pu, pvu, pxv, *_marginals(ch))
        assert np.all(iq[:, :2] == 0.0)


def test_second_layer_equal_to_the_first_gives_exactly_zero_iv():
    rng = np.random.default_rng(6)
    for n, nx in ((1, 2), (4, 2), (6, 3)):
        ch = random_channel(rng, nx, 2, nx + 1)
        pu, _, pxv = _batch(_mixed_batch(rng, 12, n, n, nx))
        iq = _core.chain_info(pu, np.repeat(np.eye(n)[None], len(pu), axis=0), pxv, *_marginals(ch))
        assert np.all(iq[:, 2:] == 0.0)
