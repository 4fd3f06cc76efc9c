import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbcsec import (
    AuxChain,
    CodebookParams,
    CondDist,
    Dist,
    GuardError,
    MessageSets,
    SimConfig,
    ValidationError,
    asymptotic_terms,
    binary_symmetric,
    encode,
    equivocation_exact,
    equivocation_mc,
    evaluate_chain,
    from_marginals,
    generate,
    run,
    transmit,
)
from bbcsec.channel import marginal
from bbcsec.codebook import decoding_joint
from bbcsec.coding import Node1Decoder, Node2Decoder

from . import oracles
from .conftest import random_chain, random_channel, with_zeros


def _uniform_w2_channel(ny2=2):
    return from_marginals(binary_symmetric(0.1), np.full((2, ny2), 1.0 / ny2))


def _zero_cell_pair(chain):
    """A channel to node 2 with zero cells, and `chain` with a deterministic
    V -> X, so some output words are impossible under some messages."""
    ch = from_marginals(binary_symmetric(0.1), np.array([[0.7, 0.3, 0.0], [0.0, 0.4, 0.6]]))
    return ch, AuxChain(chain.pu, chain.pvu, CondDist(np.eye(2)[[0, 1, 0]]))


@st.composite
def _small_instances(draw):
    """(n, sizes (m0, m1, m2, j, l), k_size, zero_cells, seed): every size at
    most 3, case A (k_size None) or case B at any valid k_size."""
    n = draw(st.integers(1, 4))
    m0, m1, m2, j, l = (draw(st.integers(1, 3)) for _ in range(5))
    k_size = draw(st.one_of(st.none(), st.integers(1, j)))
    if k_size is not None:
        m0 = 1
    return n, (m0, m1, m2, j, l), k_size, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


class TestEquivocationExact:
    def test_uniform_output_gives_full_entropy(self, degraded_chain):
        ch = _uniform_w2_channel()
        params = CodebookParams(n=6, j_size=2, l_size=2, seed=0)
        cb = generate(params, degraded_chain, ch)
        ms = MessageSets(params)
        assert equivocation_exact(cb, ms) == pytest.approx(math.log2(ms.mc_size), abs=1e-12)

    def test_single_message(self, bsc12, degraded_chain):
        params = CodebookParams(n=4, seed=1)
        cb = generate(params, degraded_chain, bsc12)
        ms = MessageSets(params)
        assert equivocation_exact(cb, ms) == 0.0

    def test_noiseless_distinct_words_leak_everything(self):
        # node 2 sees the second-layer word exactly; with distinct words the
        # posterior is a point mass
        ch = from_marginals(np.eye(2), np.eye(2))
        chain = AuxChain(Dist([1.0]), CondDist([[0.5, 0.5]]), CondDist(np.eye(2)))
        params = CodebookParams(n=8, j_size=2, l_size=2, seed=3)
        cb = generate(params, chain, ch)
        ms = MessageSets(params)
        words = cb.v_words.reshape(-1, 8)
        if len({tuple(w) for w in words.tolist()}) == words.shape[0]:
            assert equivocation_exact(cb, ms) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matches_brute_force(self, bsc12, monkeypatch):
        # the oracle builds each word's message and encoder probability from
        # the sizes alone; case B with k = 2 and j = 3 has unequal classes.
        # On the zero-cell channel a deterministic V -> X leaves output words
        # some messages cannot produce, and chunks of 9 rows split the 27
        # output words into 3 prefix chunks; no step may warn on those cells
        import bbcsec.simulate as sim

        default_rows = sim._CHUNK_ROWS
        rng = np.random.default_rng(5)
        for trial in range(4):
            chain = random_chain(rng, 2, 3, 2)
            cases = [(bsc12, chain, sizes, k_size, default_rows)
                     for sizes, k_size in (((1, 2, 2, 2, 2), None), ((2, 1, 1, 2, 1), None),
                                           ((1, 2, 1, 2, 2), 1), ((1, 1, 2, 3, 2), 2))]
            zero_cells, det_chain = _zero_cell_pair(chain)
            cases += [(zero_cells, det_chain, sizes, k_size, 9)
                      for sizes, k_size in (((1, 2, 2, 2, 2), None), ((1, 1, 2, 3, 2), 2))]
            for ch, aux, sizes, k_size, chunk_rows in cases:
                monkeypatch.setattr(sim, "_CHUNK_ROWS", chunk_rows)
                wv2 = aux.pxv.rows @ marginal(ch, 2).matrix
                m0, m1, m2, j, l = sizes
                params = CodebookParams(n=3, m0_size=m0, m1_size=m1, m2_size=m2, j_size=j, l_size=l,
                                        seed=100 + trial)
                cb = generate(params, aux, ch)
                expected = sum(oracles.brute_force_equivocation(cb.v_words, sizes, m, k_size, wv2)
                               for m in range(m2)) / m2
                assert equivocation_exact(cb, MessageSets(params, k_size)) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(_small_instances())
    # case B with j = 3, k = 2 and m1 = 1: message class 0 owns two words and
    # class 1 one, so the closed form and the enumeration meet in one sum
    @example((3, (1, 1, 2, 3, 2), 2, False, 0))
    @example((3, (1, 1, 2, 3, 2), 2, True, 0))
    def test_small_instances_match_brute_force(self, bsc12, instance):
        n, sizes, k_size, zero_cells, seed = instance
        chain = random_chain(np.random.default_rng(seed), 2, 3, 2)
        ch = bsc12
        if zero_cells:
            ch, chain = _zero_cell_pair(chain)
        wv2 = chain.pxv.rows @ marginal(ch, 2).matrix
        m0, m1, m2, j, l = sizes
        params = CodebookParams(n=n, m0_size=m0, m1_size=m1, m2_size=m2, j_size=j, l_size=l, seed=seed)
        cb = generate(params, chain, ch)
        ms = MessageSets(params, k_size)
        h = equivocation_exact(cb, ms)
        expected = sum(oracles.brute_force_equivocation(cb.v_words, sizes, m, k_size, wv2)
                       for m in range(m2)) / m2
        assert abs(h - expected) <= 1e-10
        assert 0.0 <= h <= math.log2(ms.mc_size)

    def test_chunking_matches_unchunked(self, bsc12, degraded_chain, monkeypatch):
        # blocklength large enough to force several prefix chunks; the result
        # must match the single-chunk evaluation exactly
        import bbcsec.simulate as sim

        params = CodebookParams(n=15, j_size=2, l_size=2, seed=6)
        cb = generate(params, degraded_chain, bsc12)
        ms = MessageSets(params)
        chunked = equivocation_exact(cb, ms)
        monkeypatch.setattr(sim, "_CHUNK_ROWS", 1 << 21)
        whole = equivocation_exact(cb, ms)
        assert chunked == pytest.approx(whole, abs=1e-11)
        assert 0.0 <= chunked <= math.log2(ms.mc_size) + 1e-9

    def test_peak_memory_of_the_benchmark_instance(self, bsc12, degraded_chain):
        # 2^18 output words over 64 one-word messages: the suffix likelihood
        # table (8192 output words x 64 sub-words) is 4 MiB, the output law
        # (32 prefix x 8192 suffix output words) and the positive entries and
        # logs taken of it 2 MiB each, so the peak stays below five
        # 8192 x 64 arrays
        import tracemalloc

        params = CodebookParams(n=18, j_size=8, l_size=8, seed=0)
        cb = generate(params, degraded_chain, bsc12)
        ms = MessageSets(params)
        tracemalloc.start()
        try:
            equivocation_exact(cb, ms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8192 * 64 * 8

    def test_guard(self, bsc12, degraded_chain):
        params = CodebookParams(n=21, j_size=2, seed=0)
        cb = generate(params, degraded_chain, bsc12)
        with pytest.raises(GuardError):
            equivocation_exact(cb, MessageSets(params))

    def test_dense_chunk_guard(self, bsc12, degraded_chain, monkeypatch):
        # the suffix table of 64 output words x 128 sub-words is over a limit
        # of 4096 entries
        import bbcsec.simulate as sim

        monkeypatch.setattr(sim, "MAX_TABLE_ENTRIES", 1 << 12)
        params = CodebookParams(n=6, j_size=128, l_size=1, seed=0)
        cb = generate(params, degraded_chain, bsc12)
        with pytest.raises(GuardError, match="limit 4096"):
            equivocation_exact(cb, MessageSets.case_b(params, 1))


class TestEquivocationMc:
    def test_uniform_output_within_three_se(self, degraded_chain):
        ch = _uniform_w2_channel()
        params = CodebookParams(n=5, j_size=2, l_size=2, seed=2)
        cb = generate(params, degraded_chain, ch)
        ms = MessageSets(params)
        est, se = equivocation_mc(cb, ms, 500, np.random.default_rng(3))
        assert est == pytest.approx(math.log2(ms.mc_size), abs=max(3 * se, 1e-9))

    def test_single_message_exact_zero(self, bsc12, degraded_chain):
        params = CodebookParams(n=4, seed=1)
        cb = generate(params, degraded_chain, bsc12)
        ms = MessageSets(params)
        est, se = equivocation_mc(cb, ms, 100, np.random.default_rng(0))
        assert est == 0.0
        assert se == 0.0

    def test_cross_validates_exact(self, bsc12):
        # case A, then case B with k < j and m1 > 1: each message's words form
        # one segment of several words, of unequal lengths when k does not
        # divide j
        rng = np.random.default_rng(7)
        cases = [(dict(m1_size=2, j_size=2, l_size=2), None)] * 3
        cases += [(dict(m1_size=2, j_size=4, l_size=2), 2), (dict(m1_size=3, j_size=5, l_size=1), 2),
                  (dict(m1_size=2, m2_size=2, j_size=3, l_size=2), 1)]
        for trial, (sizes, k_size) in enumerate(cases):
            chain = random_chain(rng, 1, 2, 2)
            params = CodebookParams(n=6, seed=40 + trial, **sizes)
            cb = generate(params, chain, bsc12)
            ms = MessageSets(params, k_size)
            exact = equivocation_exact(cb, ms)
            est, se = equivocation_mc(cb, ms, 3000, np.random.default_rng(50 + trial))
            assert abs(est - exact) <= max(3 * se, 1e-9)


def _two_case_configs():
    """Case A and case B with more than one message on every index set the
    construction allows, and noise that makes both decoders err on some
    trials but not all."""
    ch = from_marginals(binary_symmetric(0.05), binary_symmetric(0.1))
    chain = AuxChain(Dist([0.5, 0.5]), CondDist([[0.9, 0.1], [0.1, 0.9]]), CondDist(np.eye(2)))
    cases = ((None, dict(m0_size=2, m1_size=2, m2_size=3, j_size=2, l_size=2)),
             (2, dict(m1_size=4, m2_size=2, j_size=8, l_size=2)))
    for k_size, sizes in cases:
        params = CodebookParams(n=12, seed=3, **sizes)
        cfg = SimConfig(trials=60, params=params, chain=chain, channel=ch, epsilon=0.3, seed=5, k_size=k_size)
        yield cfg, generate(params, chain, ch), MessageSets(params, k_size)


class TestBatchedTrials:
    def test_block_size_invariance(self, monkeypatch):
        import bbcsec.simulate as sim

        for cfg, cb, ms in _two_case_configs():
            results = []
            for rows in (1, 180, 1 << 20):  # one trial per block, a few with a partial last one, all
                monkeypatch.setattr(sim, "_CHUNK_ROWS", rows)
                results.append((sim._run_trials(cfg, cb, ms),
                                equivocation_mc(cb, ms, 400, np.random.default_rng(2))))
            assert results[0] == results[1] == results[2]
            (n1, n2), _ = results[0]
            assert 0 < n1 < cfg.trials and 0 < n2 < cfg.trials

    def test_batch_equals_one_shot_replay(self):
        # each trial replayed alone, as a batch of one, with the draws in
        # the documented order
        from bbcsec.simulate import _run_trials

        for cfg, cb, ms in _two_case_configs():
            n = cfg.params.n
            dec1, dec2 = Node1Decoder(cb, ms, cfg.epsilon), Node2Decoder(cb, cfg.epsilon)
            n1 = n2 = 0
            for t in range(cfg.trials):
                rng = np.random.default_rng((cfg.seed, 0, t))
                mc, m1, m2 = (int(rng.integers(size)) for size in (ms.mc_size, cfg.params.m1_size, cfg.params.m2_size))
                x = encode(ms.cell(mc, rng), m1, m2, cb, rng.random(n))
                y1, y2 = transmit(x, cfg.channel, rng.random(n))
                mc_hat, m2_hat = dec1(y1[None], [m1])
                n1 += (int(mc_hat[0]), int(m2_hat[0])) != (mc, m2)
                n2 += int(dec2(y2[None], [m2])[0]) != m1
            assert _run_trials(cfg, cb, ms) == (n1, n2)


class TestDecodersMatchTheDefinition:
    """Both decoders equal a decoder written from the typicality definition:
    every candidate of the codebook tested alone with
    oracles.sample_entropy_check against decoding_joint (summed over V for
    node 2), under the test's own axis names, then the one message shared
    by all hits, or an erasure."""

    @staticmethod
    def _words(cfg, cb, ms, rng):
        # 100 received words from codewords and 100 drawn uniformly, per node
        p, ch = cfg.params, cfg.channel
        mc, m1, m2 = (rng.integers(size, size=200) for size in (ms.mc_size, p.m1_size, p.m2_size))
        cells = [ms.cell(m, rng) for m in mc[:100].tolist()]
        y1, y2 = transmit(encode(cells, m1[:100], m2[:100], cb, rng.random((100, p.n))), ch,
                          rng.random((100, p.n)))
        y1 = np.concatenate([y1, rng.integers(ch.y1_size, size=(100, p.n))])
        y2 = np.concatenate([y2, rng.integers(ch.y2_size, size=(100, p.n))])
        return y1, m1, y2, m2

    @staticmethod
    def _message(cfg, j, l, m0):
        p = cfg.params
        if cfg.k_size is None:
            return (j * p.l_size + l) * p.m0_size + m0
        return (j % cfg.k_size) * p.l_size + l

    def _node1(self, cfg, cb, y1, m1):
        p = cfg.params
        joint = decoding_joint(cb, 1)
        hits = set()
        for j, l, m0, m2 in itertools.product(*(range(s) for s in (p.j_size, p.l_size, p.m0_size, p.m2_size))):
            seqs = {"U": cb.u_words[m0, m1, m2], "V": cb.v_words[j, l, m0, m1, m2], "Y1": y1}
            if oracles.sample_entropy_check(seqs, joint, ("U", "V", "Y1"), cfg.epsilon):
                hits.add((self._message(cfg, j, l, m0), m2))
        return hits.pop() if len(hits) == 1 else (-1, -1)

    @staticmethod
    def _node2(cfg, cb, y2, m2):
        p = cfg.params
        joint = decoding_joint(cb, 2).sum(axis=1)  # axes U, Y2
        hits = {m1 for m0, m1 in itertools.product(range(p.m0_size), range(p.m1_size))
                if oracles.sample_entropy_check({"U": cb.u_words[m0, m1, m2], "Y2": y2}, joint, ("U", "Y2"),
                                                cfg.epsilon)}
        return hits.pop() if len(hits) == 1 else -1

    def test_both_decoders_on_both_constructions(self):
        rng = np.random.default_rng(17)
        for cfg, cb, ms in _two_case_configs():
            y1, m1, y2, m2 = self._words(cfg, cb, ms, rng)
            mc_hat, m2_hat = Node1Decoder(cb, ms, cfg.epsilon)(y1, m1)
            expected1 = [self._node1(cfg, cb, y, m) for y, m in zip(y1, m1.tolist())]
            assert list(zip(mc_hat.tolist(), m2_hat.tolist())) == expected1
            m1_hat = Node2Decoder(cb, cfg.epsilon)(y2, m2)
            assert m1_hat.tolist() == [self._node2(cfg, cb, y, m) for y, m in zip(y2, m2.tolist())]
            for decoded in (mc_hat, m1_hat):
                assert 0 < np.count_nonzero(decoded >= 0) < decoded.size


class TestAsymptoticTerms:
    def test_trivial_chain_all_zero(self):
        ch = from_marginals(np.eye(2), np.eye(2))
        chain = AuxChain(Dist([1.0]), CondDist([[1.0]]), CondDist([[1.0, 0.0]]))
        terms = asymptotic_terms(chain, ch)
        assert terms.sub_rate_limit == pytest.approx(0.0, abs=1e-12)
        assert terms.combination == pytest.approx(0.0, abs=1e-12)

    def test_uniform_output_channel(self, degraded_chain):
        ch = _uniform_w2_channel()
        terms = asymptotic_terms(degraded_chain, ch)
        assert terms.h_out2_given_code == pytest.approx(1.0, abs=1e-12)
        assert terms.h_out2_given_cloud == pytest.approx(1.0, abs=1e-12)
        assert terms.combination == pytest.approx(terms.sub_rate_limit, abs=1e-12)

    def test_degraded_bsc_combination(self, bsc12, degraded_chain):
        terms = asymptotic_terms(degraded_chain, bsc12)
        expected = oracles.binary_entropy(0.2) - oracles.binary_entropy(0.1)
        assert terms.combination == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nx=st.integers(2, 3), zeros=st.booleans())
    @example(seed=0, nx=3, zeros=True)
    @example(seed=1, nx=2, zeros=True)
    def test_identity_for_random_chains(self, seed, nx, zeros):
        # |X| = 2 or 3, and chains with about a third of their masses zeroed
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)), nx)
        if zeros:
            chain = with_zeros(rng, chain)
        ch = random_channel(rng, nx, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        terms = asymptotic_terms(chain, ch)
        iq = evaluate_chain(chain, ch)
        assert abs(terms.sub_rate_limit - iq.iv1) <= 1e-12
        assert abs(terms.combination - (iq.iv1 - iq.iv2)) < 1e-10
        assert abs((terms.h_out2_given_code - terms.h_out2_given_cloud) + iq.iv2) < 1e-10


class TestRun:
    def test_noiseless_no_errors_and_exact_equivocation(self):
        ch = from_marginals(np.eye(4), np.eye(4))
        chain = AuxChain(Dist([1.0]), CondDist([[0.25] * 4]), CondDist(np.eye(4)))
        params = CodebookParams(n=6, j_size=2, l_size=2, seed=4)
        cfg = SimConfig(trials=60, params=params, chain=chain, channel=ch, epsilon=1.0, seed=9)
        rep = run(cfg)
        assert rep.e1.rate == 0.0
        cb = generate(params, chain, ch)
        assert rep.equiv_rate == pytest.approx(
            equivocation_exact(cb, MessageSets(params)) / params.n, abs=1e-12
        )

    def test_uniform_output_zero_leakage(self, degraded_chain):
        ch = _uniform_w2_channel()
        params = CodebookParams(n=5, j_size=2, l_size=2, seed=5)
        cfg = SimConfig(trials=40, params=params, chain=degraded_chain, channel=ch, epsilon=0.4, seed=1)
        rep = run(cfg)
        assert rep.leakage_rate == pytest.approx(0.0, abs=1e-12)

    def test_equiv_rate_within_range(self, bsc12, degraded_chain):
        params = CodebookParams(n=8, j_size=4, l_size=2, seed=7)
        cfg = SimConfig(trials=30, params=params, chain=degraded_chain, channel=bsc12, epsilon=0.3, seed=2)
        rep = run(cfg)
        assert 0.0 <= rep.equiv_rate <= rep.confidential_rate + 1e-9
        assert rep.epsilon_n == max(rep.e1.rate, rep.e2.rate)

    def test_mc_mode(self, bsc12, degraded_chain):
        params = CodebookParams(n=6, j_size=2, l_size=2, seed=8)
        cfg = SimConfig(trials=20, params=params, chain=degraded_chain, channel=bsc12,
                        equiv_mode="mc", mc_samples=400, epsilon=0.3, seed=4)
        rep = run(cfg)
        assert rep.equiv_se is not None and rep.equiv_se > 0

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, math.inf, math.nan])
    def test_bad_epsilon(self, bsc12, degraded_chain, epsilon):
        with pytest.raises(ValidationError, match="epsilon"):
            SimConfig(trials=1, params=CodebookParams(n=4), chain=degraded_chain,
                      channel=bsc12, epsilon=epsilon)

    def test_bad_mode(self, bsc12, degraded_chain):
        with pytest.raises(ValidationError):
            SimConfig(trials=1, params=CodebookParams(n=4), chain=degraded_chain,
                      channel=bsc12, equiv_mode="sometimes")

    @pytest.mark.parametrize("sizes, k_size", [((1, 1, 1, 4, 2), 0), ((2, 1, 1, 4, 2), 2)])
    def test_bad_k_size_rejected_before_the_codebook(self, bsc12, degraded_chain, monkeypatch, sizes, k_size):
        # k_size 0, and case B with a common message, fail before any
        # codebook is built, so a large instance fails at once
        import bbcsec.simulate as sim

        calls = []
        monkeypatch.setattr(sim, "generate", lambda *args: calls.append(args))
        m0, m1, m2, j, l = sizes
        params = CodebookParams(n=4, m0_size=m0, m1_size=m1, m2_size=m2, j_size=j, l_size=l)
        cfg = SimConfig(trials=1, params=params, chain=degraded_chain, channel=bsc12, k_size=k_size)
        with pytest.raises(ValidationError):
            run(cfg)
        assert calls == []

    @pytest.mark.parametrize("mode", ["exact", "mc", "none"])
    @pytest.mark.parametrize("samples", [-7, 1])
    def test_too_few_mc_samples(self, bsc12, degraded_chain, mode, samples):
        with pytest.raises(ValidationError, match="mc_samples"):
            SimConfig(trials=1, params=CodebookParams(n=4), chain=degraded_chain,
                      channel=bsc12, equiv_mode=mode, mc_samples=samples)
