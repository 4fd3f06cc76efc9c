import math

import numpy as np
import pytest

from bbcsec import (
    AuxChain,
    CodebookParams,
    CondDist,
    Dist,
    GuardError,
    SimConfig,
    ValidationError,
    evaluate_chain,
    from_marginals,
    generate,
    rate_check,
    run,
)
from bbcsec.codebook import TypicalityScorer
from bbcsec.probability import chain_joint

from . import oracles


class TestParams:
    def test_bad_sizes(self):
        with pytest.raises(ValidationError):
            CodebookParams(n=0)
        with pytest.raises(ValidationError):
            CodebookParams(n=4, j_size=0)


class TestGenerate:
    def test_second_layer_symbols_past_127(self):
        # |V| = 130 is admissible at |X| = 10; every word uses symbols 128 and 129
        nv = 130
        pvu = np.zeros((1, nv))
        pvu[0, 128:] = 0.5
        chain = AuxChain(Dist([1.0]), CondDist(pvu), CondDist(np.full((nv, 10), 0.1)))
        ch = from_marginals(np.eye(10), np.eye(10))
        params = CodebookParams(n=6, j_size=2, l_size=2, seed=3)
        cb = generate(params, chain, ch)
        assert set(np.unique(cb.v_words).tolist()) == {128, 129}
        report = run(SimConfig(trials=4, params=params, chain=chain, channel=ch, equiv_mode="mc", mc_samples=4))
        assert report.e1.trials == 4

    def test_constant_first_layer(self, bsc12, degraded_chain):
        params = CodebookParams(n=6, j_size=2, l_size=2, seed=1)
        cb = generate(params, degraded_chain, bsc12)
        assert np.all(cb.u_words == 0)

    def test_deterministic_second_layer_copies_first(self, noiseless2):
        chain = AuxChain(Dist([0.5, 0.5]), CondDist(np.eye(2)), CondDist(np.eye(2)))
        params = CodebookParams(n=5, m1_size=2, m2_size=2, seed=2)
        cb = generate(params, chain, noiseless2)
        expected = np.broadcast_to(cb.u_words, cb.v_words.shape)
        assert np.array_equal(cb.v_words, expected)

    def test_seed_determinism(self, bsc12, degraded_chain):
        params = CodebookParams(n=8, j_size=4, l_size=2, seed=7)
        a = generate(params, degraded_chain, bsc12)
        b = generate(params, degraded_chain, bsc12)
        assert np.array_equal(a.u_words, b.u_words)
        assert np.array_equal(a.v_words, b.v_words)

    def test_sampler_frequencies(self, bsc12):
        # empirical check on the symbolwise sampler at long blocklength
        chain = AuxChain(
            Dist([0.2, 0.5, 0.3]),
            CondDist(np.tile([0.7, 0.3], (3, 1))),
            CondDist([[0.5, 0.5], [0.5, 0.5]]),
        )
        params = CodebookParams(n=4096, seed=3)
        cb = generate(params, chain, bsc12)
        freq = np.bincount(cb.u_words.reshape(-1), minlength=3) / 4096
        assert np.max(np.abs(freq - chain.pu.probs)) < 0.05

    def test_guard(self, bsc12, degraded_chain):
        params = CodebookParams(n=1024, j_size=1 << 12, l_size=1 << 6, m1_size=4, seed=0)
        with pytest.raises(GuardError):
            generate(params, degraded_chain, bsc12)


class TestRateCheck:
    def test_all_singleton_sizes(self, bsc12, degraded_chain):
        iq = evaluate_chain(degraded_chain, bsc12)
        conditions = rate_check(CodebookParams(n=8), iq, delta=0.3)
        for c in conditions:
            assert c.code_rate == 0.0
            assert c.exists_ok == (c.bound <= 0.3)

    def test_column_rate_arithmetic(self, bsc12, degraded_chain):
        iq = evaluate_chain(degraded_chain, bsc12)
        conditions = rate_check(CodebookParams(n=16, j_size=4), iq, delta=0.05)
        col = next(c for c in conditions if c.name == "column_index")
        assert col.code_rate == pytest.approx(0.125)
        assert col.bound == pytest.approx(iq.iv2)

    def test_degraded_reliability_direction(self, bsc12, degraded_chain):
        iq = evaluate_chain(degraded_chain, bsc12)
        conditions = rate_check(CodebookParams(n=16, j_size=16), iq, delta=0.05)
        col = next(c for c in conditions if c.name == "column_index")
        assert col.code_rate == pytest.approx(0.25)
        assert iq.iv2 == pytest.approx(1 - oracles.binary_entropy(0.2), abs=1e-12)
        assert col.reliable_ok  # 0.25 <= 0.27807


class TestIsTypical:
    def test_deterministic_joint_any_epsilon(self):
        j = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert TypicalityScorer(j, 1e-12).mask(np.zeros(8, dtype=int), np.zeros(8, dtype=int))

    def test_zero_probability_symbol(self):
        j = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert not TypicalityScorer(j, math.inf).mask(np.array([0, 1]), np.array([0, 0]))

    def test_uniform_pair(self):
        j = np.full((2, 2), 0.25)
        # sample log-probability is exactly the joint entropy here
        assert TypicalityScorer(j, 0.1).mask(np.zeros(16, dtype=int), np.zeros(16, dtype=int))

    def test_epsilon_zero_exact_match_only(self):
        balanced = (np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
        assert not TypicalityScorer(np.array([[0.4, 0.1], [0.1, 0.4]]), 0.0).mask(*balanced)
        assert TypicalityScorer(np.full((2, 2), 0.25), 0.0).mask(*balanced)

    def test_epsilon_infinity_accepts_positive_probability(self):
        rng = np.random.default_rng(5)
        j = rng.dirichlet(np.ones(4)).reshape(2, 2)
        seqs = rng.integers(2, size=12), rng.integers(2, size=12)
        if np.all(j > 0):
            assert TypicalityScorer(j, math.inf).mask(*seqs)

    def test_matches_independent_oracle(self, bsc12, degraded_chain):
        # the (V, Y1) law: U, X and Y2 summed out of the chain joint
        j = chain_joint(degraded_chain, bsc12).sum(axis=(0, 2, 4))
        rng = np.random.default_rng(9)
        for _ in range(100):
            eps = float(rng.choice([0.05, 0.15, 0.4]))
            seqs = {
                "V": rng.integers(2, size=10),
                "Y1": rng.integers(2, size=10),
            }
            expected = oracles.sample_entropy_check(seqs, j, ("V", "Y1"), eps)
            assert TypicalityScorer(j, eps).mask(seqs["V"], seqs["Y1"]) == expected

    @pytest.mark.parametrize("epsilon", [1.0, math.inf])
    def test_batch_matches_row_by_row(self, epsilon):
        # a (T, C, n) batch with one received word per row (T, 1, n), as the
        # decoders call it, on a joint with zero-probability cells
        rng = np.random.default_rng(31)
        tensor = rng.dirichlet(np.ones(12)).reshape(2, 2, 3)
        tensor[0, 1, 2] = tensor[1, 0, 0] = 0.0
        scorer = TypicalityScorer(tensor / tensor.sum(), epsilon)
        t, c, n = 5, 7, 6
        u, v = rng.integers(2, size=(t, c, n)), rng.integers(2, size=(t, c, n))
        y = rng.integers(3, size=(t, 1, n))
        batch = scorer.mask(u, v, y)
        rows = np.array([[scorer.mask(u[a, b], v[a, b], y[a, 0]) for b in range(c)] for a in range(t)])
        assert batch.shape == (t, c)
        assert np.array_equal(batch, rows)
        assert 0 < rows.sum() < rows.size  # both outcomes occur
        # codewords (C, n) shared by every received word broadcast the same way
        shared = scorer.mask(u[0], v[0], y)
        assert np.array_equal(shared, [[scorer.mask(u[0, b], v[0, b], y[a, 0]) for b in range(c)] for a in range(t)])

    def test_batch_shape_and_symbol_checks(self):
        scorer = TypicalityScorer(np.full((2, 2), 0.25), 0.1)
        with pytest.raises(ValidationError):
            scorer.mask(np.zeros((3, 4), dtype=int), np.zeros((2, 4), dtype=int))
        with pytest.raises(ValidationError):
            scorer.mask(np.array([0, 2]), np.array([0, 0]))
        with pytest.raises(ValidationError):
            TypicalityScorer(np.full((2, 2), 0.25), math.nan)
        # one sequence per axis of the joint, no more and no fewer
        for seqs in ((np.zeros(4, dtype=int),), (np.zeros(4, dtype=int),) * 3):
            with pytest.raises(ValidationError, match="2 axes"):
                scorer.mask(*seqs)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            TypicalityScorer(np.full((2, 2), 0.25), 0.1).mask(np.zeros(4, dtype=int), np.zeros(5, dtype=int))
