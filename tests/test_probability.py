import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcsec import (
    BroadcastChannel,
    CondDist,
    Dist,
    ValidationError,
    chain_joint,
)
from bbcsec.channel import binary_symmetric, marginal
from bbcsec.probability import _entropy

from .oracles import binary_entropy, mutual_information_xy


def _mutual_information(t):
    """I(A;B) = H(A) + H(B) - H(A,B) of a 2-D joint, by the entropy helper."""
    return _entropy(t.sum(axis=1)) + _entropy(t.sum(axis=0)) - _entropy(t)


class TestDist:
    def test_valid(self):
        d = Dist([0.25, 0.75])
        assert d.size == 2

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            Dist([1.1, -0.1])

    def test_mass_off_rejected(self):
        with pytest.raises(ValidationError):
            Dist([0.5, 0.4])

    def test_immutable(self):
        d = Dist([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


class TestEntropy:
    def test_uniform_binary(self):
        assert _entropy(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        assert _entropy(np.array([0.0, 1.0])) == 0.0

    def test_skewed_binary(self):
        # hand-calculator value of the binary entropy at 0.11
        expected = binary_entropy(0.11)
        assert expected == pytest.approx(0.49992, abs=5e-6)
        assert _entropy(np.array([0.11, 0.89])) == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = rng.integers(2, 9)
            h = _entropy(rng.dirichlet(np.ones(k)))
            assert -1e-12 <= h <= math.log2(k) + 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(6))
        assert _entropy(p) == pytest.approx(_entropy(p[::-1].copy()), abs=1e-12)


class TestMarginalize:
    """Marginals of the chain joint are axis sums of its (U, V, X, Y1, Y2)
    array."""

    def test_identity(self, bsc12):
        # U = V = X: summing out U and V leaves P(x) W(y1, y2 | x)
        px = np.array([0.3, 0.7])
        j = chain_joint(Dist(px), CondDist(np.eye(2)), CondDist(np.eye(2)), bsc12)
        assert np.allclose(j.sum(axis=(0, 1)), px[:, None, None] * bsc12.tensor, rtol=0, atol=1e-15)
        assert np.count_nonzero(j.sum(axis=(3, 4))) == 2  # mass only where u = v = x

    def test_chain_output_law(self, bsc12):
        # direct tensor contraction is the oracle
        chain = chain_joint(
            Dist.uniform(2), CondDist(np.eye(2)), CondDist(np.eye(2)), bsc12
        )
        direct = np.einsum("uvxab->a", chain)
        assert np.allclose(chain.sum(axis=(0, 1, 2, 4)), direct, atol=1e-15)
        assert np.allclose(direct, np.full(2, 0.5) @ marginal(bsc12, 1).matrix, atol=1e-15)

    def test_mass_preserved(self, bsc12):
        rng = np.random.default_rng(4)
        j = chain_joint(Dist(rng.dirichlet(np.ones(2))), CondDist(rng.dirichlet(np.ones(3), size=2)),
                        CondDist(rng.dirichlet(np.ones(2), size=3)), bsc12)
        for r in range(5):
            for drop in itertools.combinations(range(5), r):
                assert j.sum(axis=drop).sum() == pytest.approx(1.0, abs=1e-12)


class TestConditionalMutualInformation:
    """Mutual information as the entropy identity the package's reference
    terms use, I(A;B) = H(A) + H(B) - H(A,B), through the entropy helper."""

    def test_independent(self):
        assert _mutual_information(np.full((2, 2), 0.25)) == pytest.approx(0.0, abs=1e-12)

    def test_identity_coupling(self):
        assert _mutual_information(np.array([[0.5, 0.0], [0.0, 0.5]])) == pytest.approx(1.0, abs=1e-12)

    def test_bsc_coupling(self):
        expected = 1.0 - binary_entropy(0.1)
        assert expected == pytest.approx(0.53100, abs=5e-6)
        assert _mutual_information(0.5 * binary_symmetric(0.1)) == pytest.approx(expected, abs=1e-12)


class TestChainJoint:
    def test_degenerate_aux(self, bsc12):
        j = chain_joint(Dist([1.0]), CondDist([[1.0]]), CondDist([[0.3, 0.7]]), bsc12)
        px = np.array([0.3, 0.7])
        expected = np.einsum("x,xab->xab", px, bsc12.tensor)
        assert np.allclose(j.sum(axis=(0, 1)), expected, atol=1e-15)

    def test_identity_chain(self, noiseless2):
        j = chain_joint(Dist.uniform(2), CondDist(np.eye(2)), CondDist(np.eye(2)), noiseless2)
        assert mutual_information_xy(j.sum(axis=(1, 2, 4))) == pytest.approx(1.0, abs=1e-12)

    def test_markov_property(self, bsc12):
        rng = np.random.default_rng(2)
        for _ in range(20):
            j = chain_joint(
                Dist(rng.dirichlet(np.ones(3))),
                CondDist(rng.dirichlet(np.ones(4), size=3)),
                CondDist(rng.dirichlet(np.ones(2), size=4)),
                bsc12,
            )
            # A - B - C holds exactly when P(a, b, c) P(b) = P(a, b) P(b, c)
            uxy = j.sum(axis=1)  # U - X - (Y1, Y2)
            ux, xy = uxy.sum(axis=(2, 3)), uxy.sum(axis=0)
            assert np.allclose(uxy * ux.sum(axis=0)[:, None, None], ux[:, :, None, None] * xy, rtol=0, atol=1e-12)
            uvx = j.sum(axis=(3, 4))  # U - V - X
            uv, vx = uvx.sum(axis=2), uvx.sum(axis=0)
            assert np.allclose(uvx * uv.sum(axis=0)[:, None], uv[:, :, None] * vx, rtol=0, atol=1e-12)

    def test_read_only_array(self, bsc12):
        j = chain_joint(Dist([1.0]), CondDist([[1.0]]), CondDist([[0.3, 0.7]]), bsc12)
        assert type(j) is np.ndarray and j.shape == (1, 1, 2, 2, 2)
        with pytest.raises(ValueError):
            j[0, 0, 0, 0, 0] = 1.0

    def test_dimension_mismatch(self, bsc12):
        with pytest.raises(ValidationError):
            chain_joint(Dist([1.0]), CondDist([[1.0]]), CondDist([[0.2, 0.3, 0.5]]), bsc12)


@st.composite
def random_joints(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    na = draw(st.integers(2, 5))
    nb = draw(st.integers(2, 5))
    rng = np.random.default_rng(seed)
    t = rng.dirichlet(np.ones(na * nb)).reshape(na, nb)
    return t


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(random_joints())
    def test_chain_rule(self, j):
        h_ab = -sum(p * math.log2(p) for p in j.reshape(-1) if p > 0)
        h_a = _entropy(j.sum(axis=1))
        h_b_given_a = h_ab - h_a
        assert abs(h_ab - (h_a + h_b_given_a)) <= 1e-10
        assert abs(_entropy(j) - h_ab) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(random_joints())
    def test_mi_nonnegative(self, j):
        assert _mutual_information(j) >= -1e-10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_marginal_of_marginal(self, seed):
        rng = np.random.default_rng(seed)
        ch = BroadcastChannel(rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2))
        j = chain_joint(Dist(rng.dirichlet(np.ones(2))), CondDist(rng.dirichlet(np.ones(3), size=2)),
                        CondDist(rng.dirichlet(np.ones(2), size=3)), ch)
        two_step = j.sum(axis=(1, 2)).sum(axis=(0, 2))  # (U, Y1, Y2), then Y1
        assert np.allclose(two_step, j.sum(axis=(0, 1, 2, 4)), atol=1e-15)
