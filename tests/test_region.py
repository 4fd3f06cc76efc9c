import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbcsec import (
    AuxChain,
    BroadcastChannel,
    CondDist,
    Dist,
    InfoQuantities,
    RateTuple,
    ValidationError,
    bbc_frontier,
    binary_symmetric,
    evaluate_chain,
    from_marginals,
    full_frontier,
    marginal,
    membership,
    octant_directions,
    rc_re_star,
    secrecy_frontier,
    support_function,
    tuple_satisfied,
)
from bbcsec import _core
from bbcsec.region import (
    SearchParams,
    _best_corner,
    _corner_value,
    _margin,
    _project_simplex,
    frontier_csv,
)

from . import oracles
from .conftest import random_channel

FAST = SearchParams(restarts=8, iterations=150, seed=0)


class TestEvaluateChain:
    def test_constant_aux(self, bsc12):
        chain = AuxChain(Dist([1.0]), CondDist([[1.0]]), CondDist([[0.5, 0.5]]))
        iq = evaluate_chain(chain, bsc12)
        assert iq.iu1 == iq.iu2 == iq.iv1 == iq.iv2 == 0.0

    def test_noiseless_uniform(self, noiseless2, degraded_chain):
        iq = evaluate_chain(degraded_chain, noiseless2)
        assert iq.iv1 == pytest.approx(1.0, abs=1e-12)
        assert iq.iv2 == pytest.approx(1.0, abs=1e-12)

    def test_degraded_bsc_values(self, bsc12, degraded_chain):
        iq = evaluate_chain(degraded_chain, bsc12)
        assert iq.iv1 == pytest.approx(1 - oracles.binary_entropy(0.1), abs=1e-12)
        assert iq.iv2 == pytest.approx(1 - oracles.binary_entropy(0.2), abs=1e-12)
        assert iq.iv1 == pytest.approx(0.53100, abs=5e-6)
        assert iq.iv2 == pytest.approx(0.27807, abs=5e-6)

    def test_dimension_mismatch(self, bsc12):
        chain = AuxChain(Dist([1.0]), CondDist([[1.0]]), CondDist([[0.2, 0.3, 0.5]]))
        with pytest.raises(ValidationError):
            evaluate_chain(chain, bsc12)

    def test_underflowed_mass_scores_as_zero_mass(self, noiseless2):
        # a mass of 5e-324 underflows pu * py to 0 (first chain) or makes a
        # ratio overflow (second chain); those cells' terms are negligible,
        # so each chain scores as the one with that mass set to 0
        asym4 = from_marginals(TestBbcFrontierCertified.W1, TestBbcFrontierCertified.W2)
        eye4, eye2 = CondDist(np.eye(4)), CondDist(np.eye(2))
        cases = [
            (asym4, (Dist([0.5, 0.5 - 5e-324, 5e-324, 0.0]), eye4, eye4), (Dist([0.5, 0.5, 0.0, 0.0]), eye4, eye4)),
            (noiseless2, (Dist([1.0]), CondDist([[1.0, 5e-324]]), eye2), (Dist([1.0]), CondDist([[1.0, 0.0]]), eye2)),
        ]
        for ch, tiny, zero in cases:
            got = astuple(evaluate_chain(AuxChain(*tiny), ch))
            assert np.allclose(got, astuple(evaluate_chain(AuxChain(*zero), ch)), rtol=0.0, atol=1e-12)


class TestRateTuple:
    def test_equivocation_cannot_exceed_confidential(self):
        with pytest.raises(ValidationError):
            RateTuple(0.2, 0.3, 0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            RateTuple(-0.1, 0.0, 0.0, 0.0)


class TestInfoQuantities:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError):
            InfoQuantities(0.5, 0.5, bad, 0.1)


class TestTupleSatisfied:
    def test_origin_always_inside(self):
        rng = np.random.default_rng(0)
        origin = RateTuple(0, 0, 0, 0)
        for _ in range(20):
            vals = rng.random(4)
            iq = InfoQuantities(*vals)
            assert tuple_satisfied(iq, origin)

    def test_equivocation_bound_violation(self):
        iq = InfoQuantities(0.5, 0.5, 0.4, 0.1)
        assert not tuple_satisfied(iq, RateTuple(0.31, 0.31, 0.0, 0.0))

    def test_degraded_bsc_threshold(self, bsc12, degraded_chain):
        # independent 1-D grid oracle for the secrecy bound
        bound = oracles.grid_secrecy_rate(binary_symmetric(0.1), binary_symmetric(0.2))
        assert bound == pytest.approx(0.25293, abs=5e-6)
        iq = evaluate_chain(degraded_chain, bsc12)
        assert tuple_satisfied(iq, RateTuple(0.25, 0.25, 0.0, 0.0))
        assert not tuple_satisfied(iq, RateTuple(0.26, 0.26, 0.0, 0.0))


class TestRcReStar:
    def test_saturated_individual_rates(self):
        iq = InfoQuantities(0.5, 0.3, 0.4, 0.1)
        rc, re = rc_re_star(iq, 0.5, 0.3)
        assert rc == pytest.approx(0.4)
        assert re == pytest.approx(0.3)

    def test_equal_layers_zero_equivocation(self):
        iq = InfoQuantities(0.5, 0.3, 0.4, 0.4)
        _, re = rc_re_star(iq, 0.0, 0.0)
        assert re == 0.0

    def test_formula(self):
        iq = InfoQuantities(0.5, 0.3, 0.4, 0.1)
        rc, re = rc_re_star(iq, 0.2, 0.2)
        assert rc == pytest.approx(0.5)
        assert re == pytest.approx(0.3)

    def test_precondition(self):
        iq = InfoQuantities(0.5, 0.3, 0.4, 0.1)
        with pytest.raises(ValidationError):
            rc_re_star(iq, 0.6, 0.0)


class TestBestCorner:
    def test_corner_is_feasible_and_dominates(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            iq = InfoQuantities(*rng.random(4))
            w = rng.random(4)
            val, corner = _best_corner(iq.iu1, iq.iu2, iq.iv1, iq.iv2, w)
            t = RateTuple(*corner)
            assert tuple_satisfied(iq, t)
            assert val == pytest.approx(float(np.dot(w, t.as_array())), abs=1e-12)
            # random feasible tuples never beat the corner
            for _ in range(30):
                s = rng.random() * min(iq.iu1, iq.iu2)
                r1 = rng.random() * (iq.iu1 - s)
                r2 = rng.random() * (iq.iu2 - s)
                rc = rng.random() * (iq.iv1 + min(iq.iu1 - r1, iq.iu2 - r2))
                re = min(rc, rng.random() * iq.secrecy_bound)
                cand = np.dot(w, [rc, re, r1, r2])
                assert cand <= val + 1e-9

    def test_equal_corners_tie_exactly(self):
        # in (0.5, 0, 0.5, 0) with iu1 < iu2, corner 0 (r2 = 0) and corner 4
        # (r2 = iu2 - iu1) have the same value, re, rc and r1; the documented
        # preference picks the larger r2, also when the terms move by one ulp
        rng = np.random.default_rng(13)
        w = (0.5, 0.0, 0.5, 0.0)
        for _ in range(500):
            iu1, iu2 = np.sort(rng.random(2))
            iv1, iv2 = rng.random(2)
            for d1, d2 in itertools.product((-np.inf, None, np.inf), repeat=2):
                a = iu1 if d1 is None else np.nextafter(iu1, d1)
                b = iu2 if d2 is None else np.nextafter(iu2, d2)
                assert a < b
                _, (rc, re, r1, r2) = _best_corner(a, b, iv1, iv2, w)
                assert (rc, r1, r2) == (iv1 + a, 0.0, b - a)
                assert r2 > 0.0

    @staticmethod
    def _cases():
        """4000 term sets (all zero, iu1 = iu2, iv2 > iv1, scattered zeros)
        and 64 weight vectors."""
        rng = np.random.default_rng(14)
        iq = rng.random((4, 4000))
        iq[:, :500] = 0.0  # every term zero
        iq[1, 500:1000] = iq[0, 500:1000]  # iu1 = iu2
        iq[3, 1000:1500] = iq[2, 1000:1500] + rng.random(500)  # no secrecy gain
        iq[:, 1500:2000] *= rng.random(500) < 0.5  # scattered zero terms
        weights = [rng.random(4) * (rng.random(4) < 0.7) for _ in range(60)] + list(np.eye(4))
        return iq, weights

    def test_matches_the_five_corner_enumeration(self):
        iq, weights = self._cases()
        rng = np.random.default_rng(15)
        ties = rng.random((4, 1000))
        ties[1] = np.nextafter(ties[0], rng.choice([-np.inf, np.inf], 1000))  # iu2 one ulp off iu1
        ties[2, :100] = 1e17  # iv1 + min(iu1, iu2) rounds to iv1
        iq = np.concatenate([iq, ties], axis=1)
        weights += [np.array(w) for w in ((0.5, 0, 0.5, 0), (0.5, 0, 0, 0.5), (1, 0, 0.5, 0.5), (1e-300, 0, 0, 1))]
        for w in weights:
            val, corner = _best_corner(*iq, w)
            ref_val, ref_corner = oracles.best_corner(*iq, w)
            assert np.array_equal(val, ref_val)
            for got, ref in zip(corner, ref_corner):
                assert np.array_equal(got, ref)

    def test_closed_form_value_is_the_best_corner(self):
        iq, weights = self._cases()
        for w in weights:
            assert np.max(np.abs(_corner_value(*iq, w) - oracles.best_corner(*iq, w)[0])) <= 1e-15


def _bisection_projection(v):
    """The simplex projection max(v - tau, 0), tau found by bisection on the
    decreasing function tau -> sum(max(v - tau, 0)) - 1."""
    lo, hi = v.min() - 1.0, v.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


class TestProjectSimplex:
    def test_matches_a_bisection_reference(self):
        rng = np.random.default_rng(15)
        rows = [rng.normal(size=n) * s for n in (1, 2, 3, 5, 8, 13) for s in (0.01, 0.3, 1.0, 10.0)]
        rows += [rng.integers(-3, 4, size=n) / 4.0 for n in (2, 4, 6, 9) for _ in range(5)]  # ties
        rows += [np.full(4, 0.7), np.array([0.5, 0.5, -1.0]), np.zeros(3), np.array([2.0, 2.0, 0.1])]
        on_simplex = [rng.dirichlet(np.ones(n)) for n in (1, 2, 3, 8)] + [np.eye(4)[2], np.full(5, 0.2)]
        for v in rows + on_simplex:
            out = _project_simplex(v[None])[0]
            assert np.max(np.abs(out - _bisection_projection(v))) < 1e-12
            assert out.sum() == pytest.approx(1.0, abs=1e-15)
        for v in on_simplex:
            assert np.max(np.abs(_project_simplex(v[None])[0] - v)) < 1e-15

    def test_batch_rows_are_projected_independently(self):
        rng = np.random.default_rng(16)
        v = rng.normal(size=(20, 6))
        v[::3, 1] = v[::3, 0]  # ties
        out = _project_simplex(v)
        for row, got in zip(v, out):
            assert np.array_equal(got, _project_simplex(row[None])[0])


class TestSupportFunction:
    def test_node1_capacity_direction(self, bsc12):
        res = support_function(bsc12, (0, 0, 1, 0), FAST)
        expected = oracles.grid_channel_capacity(binary_symmetric(0.1))
        assert res.value == pytest.approx(expected, abs=1e-4)
        assert res.value == pytest.approx(0.53100, abs=1e-4)

    def test_confidential_plus_equivocation_direction(self, bsc12):
        # grid oracle over binary inputs with a constant first layer; the
        # degraded channel makes input randomization unnecessary
        w1, w2 = binary_symmetric(0.1), binary_symmetric(0.2)

        def f(px):
            i1 = oracles.mi_against_channel(px, w1)
            i2 = oracles.mi_against_channel(px, w2)
            return i1 + max(0.0, i1 - i2)

        expected = oracles.grid_max_binary(f)
        res = support_function(bsc12, (1, 1, 0, 0), FAST)
        assert res.value == pytest.approx(expected, abs=1e-3)

    def test_scale_invariance(self, bsc12):
        a = support_function(bsc12, (0.3, 0.1, 0.2, 0.4), FAST)
        b = support_function(bsc12, (0.6, 0.2, 0.4, 0.8), FAST)
        assert b.value == pytest.approx(2 * a.value, abs=1e-9)

    @pytest.mark.parametrize("scale", [1e-300, 1e-6, 1e6])
    def test_cone_value_does_not_depend_on_the_weight_scale(self, scale):
        # value and duality gap both scale with the weights, so the
        # certificate stops at the same law at every scale
        ch = BroadcastChannel(np.random.default_rng(7).dirichlet(np.ones(9), size=3).reshape(3, 3, 3))
        w = np.array([0.0, 0.0, 0.6, 0.8])
        base = support_function(ch, w).value
        assert support_function(ch, scale * w).value == pytest.approx(scale * base, rel=1e-9, abs=0.0)

    def test_invalid_weights(self, bsc12):
        with pytest.raises(ValidationError):
            support_function(bsc12, (0, 0, 0, 0), FAST)
        with pytest.raises(ValidationError):
            support_function(bsc12, (-1, 0, 0, 1), FAST)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weights_rejected(self, bsc12, bad):
        with pytest.raises(ValidationError):
            support_function(bsc12, (bad, 1, 0, 0), FAST)
        with pytest.raises(ValidationError):
            full_frontier(bsc12, [(0, 0, 1, 0), (1, 0, bad, 0)], FAST)

    def test_set_alphabet_sizes_shape_the_chain(self, bsc12):
        p = SearchParams(u_size=1, v_size=2, restarts=2, iterations=10)
        res = support_function(bsc12, (0.3, 0.1, 0.2, 0.4), p)
        assert (res.chain.pu.size, res.chain.pvu.dims[1]) == (1, 2)

    @pytest.mark.parametrize("w", [(0, 0, 1, 0), (1, 0, 0, 0)])
    def test_bad_alphabet_size_rejected_in_and_outside_the_cone(self, bsc12, w):
        # the cone wc + we <= w1 is solved without a search, yet a malformed
        # budget still fails there
        with pytest.raises(ValidationError):
            support_function(bsc12, w, SearchParams(u_size=50))

    @given(seed=st.integers(0, 2**32 - 1), nx=st.integers(2, 4),
           w=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0.1))
    @example(seed=0, nx=4, w=[0.1, 0.2, 0.5, 0.3])
    @example(seed=0, nx=3, w=[0.5, 0.2, 0.1, 0.4])
    @settings(max_examples=40, deadline=None)
    def test_never_above_the_outer_bound(self, seed, nx, w):
        # rc + r1 <= I(X;Y1), r2 <= I(X;Y2) and re <= rc bound every value by
        # max_P [max(w1, wc + we) I(X;Y1) + w2 I(X;Y2)], which the duality
        # bound at any law exceeds; in the cone wc + we <= w1 the value is
        # that maximum, certified at the returned law
        rng = np.random.default_rng(seed)
        ch = random_channel(rng, nx, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        ws = (marginal(ch, 1).matrix, marginal(ch, 2).matrix)
        wc, we, w1, w2 = w
        res = support_function(ch, w, SearchParams(restarts=2, iterations=10))
        assert res.value <= oracles.duality_bound(np.full(nx, 1.0 / nx), ws, (max(w1, wc + we), w2)) + 1e-9
        if wc + we <= w1:
            law = res.chain.pu.probs @ res.chain.pvu.rows @ res.chain.pxv.rows
            assert res.value >= oracles.duality_bound(law, ws, (w1, w2)) - 1e-9

    def test_same_seed_identical(self, bsc12):
        w = (0.2, 0.1, 0.4, 0.3)
        p = SearchParams(restarts=6, iterations=60, seed=5)
        first = support_function(bsc12, w, p)
        again = support_function(bsc12, w, p)
        assert first.value == again.value
        assert np.array_equal(first.chain.pu.probs, again.chain.pu.probs)
        assert np.array_equal(first.chain.pvu.rows, again.chain.pvu.rows)
        assert np.array_equal(first.chain.pxv.rows, again.chain.pxv.rows)


class TestSearchParams:
    @pytest.mark.parametrize("name", ["restarts", "iterations", "seed", "u_size", "v_size"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_non_integer_rejected(self, name, value):
        with pytest.raises(ValidationError, match=name):
            SearchParams(**{name: value})

    def test_numpy_integers_stored_as_int(self):
        p = SearchParams(*(np.int64(v) for v in (4, 30, 0, 2, 3)))
        assert [type(v) for v in astuple(p)] == [int] * 5 and astuple(p) == (4, 30, 0, 2, 3)


class TestOctantDirections:
    @pytest.mark.parametrize("count,dims,size", [(1, 3, 3), (3, 3, 3), (4, 3, 6), (10, 4, 10), (11, 4, 20)])
    def test_least_lattice_with_count_directions(self, count, dims, size):
        dirs = octant_directions(count, dims)
        assert len(dirs) == size
        assert all(len(d) == dims and sum(d) == pytest.approx(1.0) and min(d) >= 0.0 for d in dirs)

    # a count that is not a positive integer, and one dimension, where the
    # lattice has one direction at every size, so no size reaches count 2
    @pytest.mark.parametrize("count,dims", [(0, 3), (-2, 3), (2.5, 3), (True, 3), (2, 1)],
                             ids=["0", "-2", "2.5", "True", "dims-1"])
    def test_nonpositive_count_rejected(self, count, dims):
        with pytest.raises(ValidationError):
            octant_directions(count, dims)


class TestSecrecyFrontier:
    def test_identical_marginals_no_secrecy(self):
        ch = from_marginals(binary_symmetric(0.1), binary_symmetric(0.1))
        pts = secrecy_frontier(ch, [(1, 0, 0), (1, 1, 1)], FAST)
        for e in pts:
            assert e.point.rc <= 1e-6

    def test_useless_eavesdropper_channel(self):
        ch = from_marginals(binary_symmetric(0.1), np.full((2, 2), 0.5))
        pts = secrecy_frontier(ch, [(1, 0, 0)], FAST)
        assert pts[0].point.rc == pytest.approx(0.53100, abs=1e-4)

    def test_degraded_bsc_secrecy_rate(self, bsc12):
        pts = secrecy_frontier(bsc12, [(1, 0, 0)], FAST)
        oracle = oracles.grid_secrecy_rate(binary_symmetric(0.1), binary_symmetric(0.2))
        assert pts[0].point.rc == pytest.approx(oracle, abs=1e-3)

    def test_points_satisfy_region_constraints(self, bsc12):
        # every secrecy point, read as a rate-equivocation tuple with full
        # equivocation, passes the full-region constraints of its own chain
        for e in secrecy_frontier(bsc12, [(1, 0, 0), (1, 1, 0), (0, 1, 1)], FAST):
            assert e.point.re == e.point.rc
            iq = evaluate_chain(e.chain, bsc12)
            assert tuple_satisfied(
                iq, RateTuple(e.point.rc, e.point.rc, e.point.r1, e.point.r2)
            )


    def test_values_are_support_values(self, bsc12):
        p = SearchParams(restarts=4, iterations=60, seed=2)
        for e in secrecy_frontier(bsc12, [(1, 0, 0), (0.5, 0.5, 0), (0.2, 0.3, 0.5)], p):
            wc, _, w1, w2 = e.weights
            assert e.value == support_function(bsc12, (0.0, wc, w1, w2), p).value

    @pytest.mark.parametrize(
        "wdir", [(1, -1, 0), (0, 0, 0), (1, 0), (1, 0, 0, 0), (float("nan"), 1, 0), (1, 0, float("inf"))]
    )
    def test_bad_direction_rejected(self, bsc12, wdir):
        with pytest.raises(ValidationError):
            secrecy_frontier(bsc12, [wdir], FAST)


class TestBbcFrontier:
    def test_noiseless_corner(self, noiseless2):
        pts = bbc_frontier(noiseless2, 5)
        assert len(pts) == 1
        assert pts[0].point.r1 == pytest.approx(1.0, abs=1e-6)
        assert pts[0].point.r2 == pytest.approx(1.0, abs=1e-6)

    def test_bsc_corner(self, bsc12):
        pts = bbc_frontier(bsc12, 9)
        r1 = max(e.point.r1 for e in pts)
        r2 = max(e.point.r2 for e in pts)
        assert r1 == pytest.approx(0.53100, abs=1e-3)
        assert r2 == pytest.approx(0.27807, abs=1e-3)

    def test_dead_second_node(self):
        ch = from_marginals(binary_symmetric(0.05), np.array([[1.0], [1.0]]))
        pts = bbc_frontier(ch, 5)
        for e in pts:
            assert e.point.r2 == pytest.approx(0.0, abs=1e-9)
        assert max(e.point.r1 for e in pts) == pytest.approx(
            oracles.grid_channel_capacity(binary_symmetric(0.05)), abs=1e-3
        )


class TestBbcFrontierCertified:
    # asymmetric, so the uniform start is not optimal in any direction
    W1 = np.array([[0.72, 0.28], [0.15, 0.85], [0.87, 0.13], [0.81, 0.19]])
    W2 = np.array([[0.738, 0.11, 0.152], [0.017, 0.149, 0.834], [0.131, 0.004, 0.865], [0.599, 0.035, 0.366]])

    @pytest.fixture()
    def asym4(self):
        return from_marginals(self.W1, self.W2)

    def test_points_meet_the_duality_bound(self, asym4):
        pts = bbc_frontier(asym4, 17)
        assert len(pts) > 1
        for e in pts:
            _, _, wr1, wr2 = e.weights
            law = e.chain.pu.probs @ e.chain.pvu.rows @ e.chain.pxv.rows
            value = wr1 * oracles.mi_against_channel(law, self.W1) + wr2 * oracles.mi_against_channel(law, self.W2)
            assert e.value == pytest.approx(value, abs=1e-9)
            assert e.value >= oracles.duality_bound(law, (self.W1, self.W2), (wr1, wr2)) - 1e-6

    def test_largest_r1_is_capacity(self, asym4):
        # a binary-output channel's capacity needs at most two inputs
        cap1 = max(oracles.grid_channel_capacity(self.W1[[i, j]]) for i, j in itertools.combinations(range(4), 2))
        r1 = max(e.point.r1 for e in bbc_frontier(asym4, 17))
        assert r1 == pytest.approx(cap1, abs=1e-6)

    def test_bidirectional_slice_meets_the_duality_bound(self, asym4):
        # every direction (0, 0, w1, w2) is in the cone wc + we <= w1, so at
        # criterion 04's budget the value is certified at the returned law
        p = SearchParams(restarts=8, iterations=120, seed=0)
        for k in range(33):
            theta = (math.pi / 2) * k / 32
            wr = (math.cos(theta), math.sin(theta))
            res = support_function(asym4, (0.0, 0.0, *wr), p)
            law = res.chain.pu.probs @ res.chain.pvu.rows @ res.chain.pxv.rows
            assert res.value == pytest.approx(oracles.duality_bound(law, (self.W1, self.W2), wr), abs=1e-9)

    @pytest.mark.parametrize("count", [0, -1, 2.5, True])
    def test_nonpositive_count_rejected(self, asym4, count):
        with pytest.raises(ValidationError):
            bbc_frontier(asym4, count)


class TestFrontierDirections:
    def test_one_entry_per_requested_direction(self, bsc12):
        # on the asym4 channel (0, 0.5, 0.5, 0) has the point of an earlier
        # direction, and on the BSC pair the secrecy directions (0, 1, 0) and
        # (0, 0, 1) share one point; each still has its own row, in order
        asym4 = from_marginals(TestBbcFrontierCertified.W1, TestBbcFrontierCertified.W2)
        dirs = octant_directions(5, 4)
        entries = full_frontier(asym4, dirs, SearchParams(restarts=6, iterations=80, seed=3))
        assert [e.weights for e in entries] == dirs
        dirs = octant_directions(3, 3)
        entries = secrecy_frontier(bsc12, dirs, FAST)
        assert [(wc, w1, w2) for wc, _, w1, w2 in (e.weights for e in entries)] == dirs
        assert astuple(entries[0].point) == pytest.approx(astuple(entries[1].point), abs=1e-9)


class TestFrontierChainsAchieveTheirPoints:
    # every frontier entry's chain is a witness: its terms meet the
    # constraints at the reported point, in all three modes
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_entry_chain_achieves_its_point(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_channel(rng, 2 + seed % 2, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        entries = (
            bbc_frontier(ch, 9)
            + secrecy_frontier(ch, octant_directions(6, 3), FAST)
            + full_frontier(ch, octant_directions(10, 4), FAST)
        )
        for e in entries:
            assert tuple_satisfied(evaluate_chain(e.chain, ch), e.point), e.weights


class TestMembership:
    def test_origin_inside(self, bsc12):
        res = membership(RateTuple(0, 0, 0, 0), bsc12, FAST)
        assert res.verdict == "inside"
        assert res.witness is not None

    def test_entropy_cap_outside(self, bsc12):
        res = membership(RateTuple(10, 10, 10, 10), bsc12, FAST)
        assert res.verdict == "outside_up_to"

    def test_entropy_cap_bounds_rc_plus_r1(self, bsc12):
        # rc + r1 <= I(V;Y1) <= log2 |X| = 1, so (0.9, 0, 0.9, 0) needs no search
        res = membership(RateTuple(0.9, 0.0, 0.9, 0.0), bsc12, SearchParams(20, 60, 0))
        assert res.verdict == "outside_up_to"
        assert res.evidence == {"kind": "entropy_cap", "caps": [1.0, 1.0]}
        assert res.best_margin == pytest.approx(-0.8, abs=1e-12)

    def test_degraded_point_inside(self, bsc12):
        res = membership(RateTuple(0.25, 0.25, 0, 0), bsc12, FAST)
        assert res.verdict == "inside"
        iq = evaluate_chain(res.witness, bsc12)
        assert tuple_satisfied(iq, RateTuple(0.25, 0.25, 0, 0))

    def test_just_outside_secrecy_bound(self, bsc12):
        res = membership(RateTuple(0.26, 0.26, 0, 0), bsc12, FAST)
        assert res.verdict in ("outside_up_to", "boundary")

    def test_monotone_in_equivocation(self, bsc12):
        base = membership(RateTuple(0.2, 0.2, 0.0, 0.0), bsc12, FAST)
        assert base.verdict == "inside"
        reduced = membership(RateTuple(0.2, 0.05, 0.0, 0.0), bsc12, FAST)
        assert reduced.verdict == "inside"


class TestRestartInvariance:
    # each restart's trajectory depends only on the seed and its index, not
    # on how many restarts run beside it

    def test_support_value_monotone_in_restarts(self, bsc12):
        w = (0.3, 0.2, 0.1, 0.4)
        values = [
            support_function(bsc12, w, SearchParams(restarts=r, iterations=30, seed=4)).value
            for r in range(1, 8)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_membership_unchanged_by_restarts_above_the_winner(self, bsc12):
        # restarts 0 and 1 end below margin 0 here and restart 2 climbs
        # above it, so the restarts beside it must not change its result
        t = RateTuple(0.25, 0.186, 0.053, 0.078)
        base = membership(t, bsc12, SearchParams(restarts=3, iterations=40, seed=0))
        assert base.verdict == "inside"
        for more in (4, 7):
            res = membership(t, bsc12, SearchParams(restarts=more, iterations=40, seed=0))
            assert res.verdict == "inside"
            assert res.best_margin == base.best_margin
            for key, rows in base.witness.to_dict().items():
                assert np.array_equal(res.witness.to_dict()[key], rows)


class TestSearchReturnsScoredTerms:
    # a search hands back the terms its winner was scored with: they are the
    # returned chain's terms, bit for bit, and are never computed again

    def test_membership_met_by_first_start_makes_one_kernel_call(self, bsc12, monkeypatch):
        calls = []
        kernel = _core.chain_info

        def counted(*args):
            calls.append(args[0].shape[0])
            return kernel(*args)

        monkeypatch.setattr(_core, "chain_info", counted)
        # the first structured start (U = X uniform, V = U) meets this tuple
        res = membership(RateTuple(0.1, 0.0, 0.2, 0.1), bsc12, FAST)
        assert res.verdict == "inside"
        assert calls == [1]

    def test_support_info_is_the_chain_terms(self, bsc12):
        rng = np.random.default_rng(5)
        ternary = random_channel(rng, 3, 3, 2)
        for ch, w in ((bsc12, (0.3, 0.2, 0.1, 0.4)), (ternary, (0.1, 0.5, 0.2, 0.2))):
            res = support_function(ch, w, SearchParams(restarts=6, iterations=40, seed=1))
            assert res.info == evaluate_chain(res.chain, ch)

    def test_membership_margin_is_the_witness_margin(self, bsc12):
        # the winner is restart 2 after climbing, not a start
        t = RateTuple(0.25, 0.186, 0.053, 0.078)
        res = membership(t, bsc12, SearchParams(restarts=3, iterations=40, seed=0))
        assert res.verdict == "inside"
        iq = evaluate_chain(res.witness, bsc12)
        assert res.best_margin == float(_margin(iq.iu1, iq.iu2, iq.iv1, iq.iv2, t))

    def test_bbc_points_are_their_chain_terms(self, bsc12):
        pts = bbc_frontier(bsc12, 5)
        for e in pts:
            iq = evaluate_chain(e.chain, bsc12)
            assert (e.point.r1, e.point.r2) == (iq.iu1, iq.iu2)
            assert tuple_satisfied(iq, e.point)


class TestBinarySecrecyOracle:
    # two channels where node 1's secrecy gain needs a prefix channel P(x|v):
    # H(Y1) - H(Y2) is not convex although I(X;Y1) <= I(X;Y2) for every input
    # law on the first, and the second is a seeded Dirichlet draw
    PREFIX_JOINTS = (
        [[[0.14518377103057717, 0.36489505223305424], [0.025072479807219265, 0.46484869692914937]],
         [[0.18066334667596778, 0.043439784081813961], [0.29477789320597425, 0.48111897603624387]]],
        np.random.default_rng(5).dirichlet(0.7 * np.ones(4), size=2).reshape(2, 2, 2),
    )

    def test_matches_the_degraded_oracle_on_the_bsc_pair(self):
        joint = np.einsum("xa,xb->xab", oracles.bsc(0.1), oracles.bsc(0.2))
        expected = oracles.grid_secrecy_rate(oracles.bsc(0.1), oracles.bsc(0.2))
        assert oracles.binary_secrecy_capacity(joint, 20_001) == pytest.approx(expected, abs=1e-9)

    def test_support_never_exceeds_the_oracle(self, bsc12):
        # the upper side only: the search value is achievable, so it may not
        # pass the capacity; the grid of 10^5 + 1 laws puts the oracle within
        # about 1e-11 of it. The lower side fails on the two prefix joints,
        # where the search returns 0 (the open secrecy-plateau defect in
        # ROADMAP.md), so it is not checked
        channels = [bsc12] + [BroadcastChannel(np.asarray(j)) for j in self.PREFIX_JOINTS]
        for seed in range(6):
            rng = np.random.default_rng(seed)
            channels.append(random_channel(rng, 2, int(rng.integers(2, 4)), int(rng.integers(2, 4))))
        for ch in channels:
            value = support_function(ch, (0, 1, 0, 0), SearchParams(restarts=4, iterations=60)).value
            assert value <= oracles.binary_secrecy_capacity(ch.tensor, 100_001) + 1e-9


class TestDataProcessing:
    # the region's constraints read the channel only through I(.;Y1) and
    # I(.;Y2) (ROADMAP item 4). Passing Y1 through a channel K can only shrink
    # the region, and passing Y2 through K can only raise the secrecy support
    # max (iv1 - iv2)+, so a degraded channel whose search value beats the
    # original's exposes an under-estimate of the original's. Relabeling the
    # symbols is not checked: the search does not yet reach the same optimum
    # under every labeling.
    DIRECTIONS = ((0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (0.5, 0.5, 0.2, 0.2), (1, 0.5, 0.3, 0.1),
                  (0.3, 1, 0, 0.5), (0, 1, 0.3, 0.3), (2, 1, 0.5, 0.5))
    BUDGET = SearchParams(restarts=8, iterations=30, seed=0)

    @staticmethod
    def _channels():
        # three seeded 3x3x3 joints, each followed by its K = 0.85 I + 0.15 (a
        # random stochastic matrix): 54 searches, about 2.5 s on a 2-vCPU
        # machine; a fourth joint would add 18 more (about 1 s)
        rng = np.random.default_rng(123)
        for _ in range(3):
            joint = rng.dirichlet(0.6 * np.ones(9), size=3).reshape(3, 3, 3)
            yield joint, 0.85 * np.eye(3) + 0.15 * rng.dirichlet(np.ones(3), size=3)

    def _value(self, tensor, w):
        return support_function(BroadcastChannel(tensor), w, self.BUDGET).value

    def test_degrading_node_1_never_raises_a_support_value(self):
        for joint, k in self._channels():
            degraded = np.einsum("xab,ac->xcb", joint, k)
            for w in self.DIRECTIONS:
                assert self._value(degraded, w) <= self._value(joint, w) + 1e-9

    def test_degrading_node_2_never_lowers_the_secrecy_support(self):
        for joint, k in self._channels():
            degraded = np.einsum("xab,bc->xac", joint, k)
            assert self._value(degraded, (0, 1, 0, 0)) >= self._value(joint, (0, 1, 0, 0)) - 1e-9


class TestDegradedSecrecyOracle:
    # ROADMAP item 5: on a degraded pair W2 = W1 K the secrecy capacity is
    # max_P I(X;Y1) - I(X;Y2), certified by a concavity gap at any |X|
    def test_matches_the_binary_oracle_on_the_bsc_pair(self):
        # BSC(0.2) is BSC(0.1) followed by BSC(0.125)
        value, gap = oracles.degraded_secrecy_capacity(oracles.bsc(0.1), oracles.bsc(0.125), 1e-12)
        joint = np.einsum("xa,xb->xab", oracles.bsc(0.1), oracles.bsc(0.2))
        assert gap <= 1e-12
        assert value == pytest.approx(oracles.binary_secrecy_capacity(joint, 20_001), abs=1e-9)

    def test_support_never_exceeds_the_oracle(self):
        # the upper side only: the search is known to fall short at small
        # budgets (ROADMAP measured up to 4.2e-5 at 20 x 60; here, at 8 x 30,
        # up to 1.1e-3 on a 4-input pair); about 0.8 s
        rng = np.random.default_rng(11)
        for _ in range(10):
            nx, ny1, ny2 = (int(s) for s in rng.integers(2, 5, size=3))
            w1 = rng.dirichlet(0.6 * np.ones(ny1), size=nx)
            k = rng.dirichlet(0.8 * np.ones(ny2), size=ny1)
            value, gap = oracles.degraded_secrecy_capacity(w1, k, 1e-10)
            res = support_function(from_marginals(w1, w1 @ k), (0, 1, 0, 0), SearchParams(restarts=8, iterations=30))
            assert res.value <= value + gap + 1e-12


class TestDegradedCollapse:
    def test_composed_degradation(self):
        # node 2 sees node 1's output through a further BSC
        w1 = binary_symmetric(0.05)
        w2 = w1 @ binary_symmetric(0.15)
        ch = from_marginals(w1, w2)
        pts = secrecy_frontier(ch, [(1, 0, 0)], SearchParams(restarts=10, iterations=200, seed=1))
        oracle = oracles.grid_secrecy_rate(w1, w2)
        assert pts[0].point.rc == pytest.approx(oracle, abs=1e-3)


class TestCsv:
    def test_header_and_locale_free_format(self, bsc12):
        pts = secrecy_frontier(bsc12, [(1, 0, 0)], FAST)
        text = frontier_csv(pts)
        lines = text.strip().split("\n")
        assert lines[0] == "w_rc,w_re,w_r1,w_r2,rc,re,r1,r2,support_value"
        assert "," in lines[1] and ";" not in lines[1]
        for field in lines[1].split(","):
            float(field)  # parses with '.' decimal point
