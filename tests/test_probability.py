import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcsec import (
    CondDist,
    Dist,
    JointDist,
    ValidationError,
    chain_joint,
    marginalize,
)
from bbcsec.channel import binary_symmetric
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
    def _product_joint(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.6, 0.4])
        return JointDist(("X", "Y1"), px[:, None] * py[None, :]), px, py

    def test_independence(self):
        j, px, _ = self._product_joint()
        m = marginalize(j, {"X"})
        assert m.axes == ("X",)
        assert np.allclose(m.tensor, px)

    def test_identity(self):
        j, _, _ = self._product_joint()
        m = marginalize(j, {"X", "Y1"})
        assert np.array_equal(m.tensor, j.tensor)

    def test_chain_output_law(self, bsc12):
        # direct tensor contraction is the oracle
        chain = chain_joint(
            Dist.uniform(2), CondDist(np.eye(2)), CondDist(np.eye(2)), bsc12
        )
        m = marginalize(chain, {"Y1"})
        direct = np.einsum("uvxab->a", chain.tensor)
        assert np.allclose(m.tensor, direct, atol=1e-15)

    def test_unknown_axis(self):
        j, _, _ = self._product_joint()
        with pytest.raises(ValidationError):
            marginalize(j, {"Z"})

    def test_mass_preserved(self):
        j, _, _ = self._product_joint()
        assert marginalize(j, {"Y1"}).tensor.sum() == pytest.approx(1.0, abs=1e-12)


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
        assert np.allclose(marginalize(j, {"X", "Y1", "Y2"}).tensor, expected, atol=1e-15)

    def test_identity_chain(self, noiseless2):
        j = chain_joint(Dist.uniform(2), CondDist(np.eye(2)), CondDist(np.eye(2)), noiseless2)
        assert mutual_information_xy(j.tensor.sum(axis=(1, 2, 4))) == pytest.approx(1.0, abs=1e-12)

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
            uxy = j.tensor.sum(axis=1)  # U - X - (Y1, Y2)
            ux, xy = uxy.sum(axis=(2, 3)), uxy.sum(axis=0)
            assert np.allclose(uxy * ux.sum(axis=0)[:, None, None], ux[:, :, None, None] * xy, rtol=0, atol=1e-12)
            uvx = j.tensor.sum(axis=(3, 4))  # U - V - X
            uv, vx = uvx.sum(axis=2), uvx.sum(axis=0)
            assert np.allclose(uvx * uv.sum(axis=0)[:, None], uv[:, :, None] * vx, rtol=0, atol=1e-12)

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
    return JointDist(("X", "Y1"), t)


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(random_joints())
    def test_chain_rule(self, j):
        h_ab = -sum(p * math.log2(p) for p in j.tensor.reshape(-1) if p > 0)
        h_a = _entropy(j.tensor.sum(axis=1))
        h_b_given_a = h_ab - h_a
        assert abs(h_ab - (h_a + h_b_given_a)) <= 1e-10
        assert abs(_entropy(j.tensor) - h_ab) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(random_joints())
    def test_mi_nonnegative(self, j):
        assert _mutual_information(j.tensor) >= -1e-10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_marginal_of_marginal(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.dirichlet(np.ones(24)).reshape(2, 3, 4)
        j = JointDist(("U", "X", "Y1"), t)
        two_step = marginalize(marginalize(j, {"U", "Y1"}), {"Y1"})
        direct = marginalize(j, {"Y1"})
        assert np.allclose(two_step.tensor, direct.tensor, atol=1e-15)
