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
    ValidationError,
    encode,
    evaluate_chain,
    from_marginals,
    generate,
    make_partition,
    transmit,
)
from bbcsec.coding import Node1Decoder, Node2Decoder

from . import oracles

# chi-square critical values at p = 0.01
CHI2_99 = {1: 6.635, 2: 9.210, 3: 11.345}


def _encode(mc, m1, m2, cb, ms, rng):
    """One block, the uniforms of its cell and input word drawn from rng in
    the simulator's order; returns the cell (column, row, common) and the
    input word."""
    cell = tuple(ms.cell(mc, rng.random()).tolist())
    return cell, encode(cell, m1, m2, cb, rng.random(cb.params.n))


def _transmit(x, ch, rng):
    return transmit(x, ch, rng.random(x.shape[-1]))


def _decode1(y1, m1, cb, ms, epsilon):
    """Node1Decoder on a batch of one: (mc, m2), or (-1, -1) on erasure."""
    mc, m2 = Node1Decoder(cb, ms, epsilon)(np.asarray(y1)[None], [m1])
    return int(mc[0]), int(m2[0])


def _decode2(y2, m2, cb, epsilon):
    """Node2Decoder on a batch of one: m1, or -1 on erasure."""
    return int(Node2Decoder(cb, epsilon)(np.asarray(y2)[None], [m2])[0])


@pytest.fixture(scope="module")
def carrier_chain():
    """First layer carries data over a 4-letter alphabet, second layer
    deterministic, identity input map (noiseless-friendly)."""
    return AuxChain(Dist(np.full(4, 1 / 4)), CondDist(np.eye(4)), CondDist(np.eye(4)))


@pytest.fixture(scope="module")
def noiseless4():
    return from_marginals(np.eye(4), np.eye(4))


class TestPartition:
    def test_bijection(self):
        classes = make_partition(4, 4)
        assert sorted(classes.tolist()) == [0, 1, 2, 3]
        assert np.bincount(classes).tolist() == [1, 1, 1, 1]

    def test_near_equal_sizes(self):
        classes = make_partition(7, 3)
        assert classes.tolist() == [0, 1, 2, 0, 1, 2, 0]
        assert sorted(np.bincount(classes).tolist()) == [2, 2, 3]

    def test_single_class(self):
        classes = make_partition(4, 1)
        assert classes.tolist() == [0, 0, 0, 0]
        assert np.bincount(classes).tolist() == [4]

    def test_size_constraint_spot(self):
        for j, k in [(5, 2), (9, 4), (16, 5), (31, 7)]:
            sizes = np.bincount(make_partition(j, k), minlength=k)
            assert max(sizes) <= 2 * min(sizes)

    def test_invalid(self):
        for j, k in [(2, 3), (4, 0), (4, 2.5), (4, True), (2.5, 1), (True, 1), (0, 1), (np.float64(4.0), 2)]:
            with pytest.raises(ValidationError):
                make_partition(j, k)
        assert make_partition(np.int64(3), 2).tolist() == [0, 1, 0]


@st.composite
def _message_sizes(draw) -> tuple:
    """(j, l, m0, k): case A (k None) with any m0, or case B with k in
    [1, j] and the single common message."""
    j, l = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    k = draw(st.one_of(st.none(), st.integers(1, j)))
    return j, l, draw(st.integers(1, 3)) if k is None else 1, k


class TestMessageCells:
    def test_case_a_cell_is_the_index_digits_and_draws_nothing(self):
        # one cell per message, so the uniform has nothing to pick: the
        # smallest and the largest uniform below 1 give the same cell
        params = CodebookParams(n=2, m0_size=2, j_size=3, l_size=2)
        ms = MessageSets(params)
        assert ms.column_class.tolist() == [0, 1, 2]  # one column per class
        for mc in range(ms.mc_size):
            digits = [int(i) for i in np.unravel_index(mc, ms.mc_shape)]
            for u in (0.0, np.nextafter(1.0, 0.0)):
                assert ms.cell(mc, u).tolist() == digits
        assert ms.cells_per_mc.tolist() == [1] * ms.mc_size

    def test_case_b_cells_lie_in_the_class(self):
        params = CodebookParams(n=2, j_size=7, l_size=2)
        ms = MessageSets.case_b(params, 3)
        sizes = np.bincount(ms.column_class)
        assert ms.mc_shape == (3, 2, 1)
        assert np.array_equal(ms.cells_per_mc.reshape(3, 2), np.repeat(sizes[:, None], 2, axis=1))
        rng = np.random.default_rng(4)
        for mc in range(ms.mc_size):
            k, l = divmod(mc, params.l_size)
            seen = {tuple(c) for c in ms.cell(np.full(60, mc), rng.random(60)).tolist()}
            assert {c[1:] for c in seen} == {(l, 0)}
            assert all(ms.column_class[j] == k for j, _, _ in seen)
            assert all(ms.cell_mc[c] == mc for c in seen)
            assert len(seen) == sizes[k]

    def test_midpoint_grid_hits_every_cell_of_a_class_equally(self):
        # case B with k not dividing j (classes of 3, 2 and 2 columns): the
        # midpoints of 60 equal bins of [0, 1) pick each cell of a class
        # 60 / (class size) times
        params = CodebookParams(n=2, j_size=7, l_size=2)
        ms = MessageSets(params, 3)
        grid = (np.arange(60) + 0.5) / 60
        for mc in range(ms.mc_size):
            cells = ms.cell(np.full(grid.size, mc), grid)
            _, counts = np.unique(cells, axis=0, return_counts=True)
            size = ms.cells_per_mc[mc]
            assert counts.tolist() == [60 // size] * size
            assert (ms.cell_mc[tuple(cells.T)] == mc).all()

    @pytest.mark.parametrize("k_size,sizes", [(None, dict(m0_size=2, j_size=3, l_size=2)),
                                              (3, dict(j_size=7, l_size=2))])
    def test_cell_is_the_drawn_cell_of_an_enumeration(self, k_size, sizes):
        # the i-th cell of message mc in ascending order, with
        # i = floor(u count), for every message of a case-A code with m0 > 1
        # and a case-B code with k not dividing j, one message at a time and
        # as one array
        ms = MessageSets(CodebookParams(n=2, **sizes), k_size)
        mc = np.tile(np.arange(ms.mc_size), 5)
        u = np.random.default_rng(8).random(mc.size)
        expected = [np.argwhere(ms.cell_mc == m)[math.floor(x * ms.cells_per_mc[m])].tolist()
                    for m, x in zip(mc.tolist(), u.tolist())]
        assert [ms.cell(m, x).tolist() for m, x in zip(mc.tolist(), u.tolist())] == expected
        assert ms.cell(mc, u).tolist() == expected

    @settings(max_examples=80, deadline=None)
    @given(_message_sizes())
    @example((3, 2, 2, None))  # case A with m0 > 1
    @example((7, 2, 1, 3))  # case B with k not dividing j
    def test_maps_and_drawn_cells_match_the_oracle(self, sizes):
        # the maps equal the oracle's, and the cell is the i-th of the
        # message's cells in ascending order, i = floor(u count)
        j, l, m0, k = sizes
        ms = MessageSets(CodebookParams(n=2, m0_size=m0, j_size=j, l_size=l), k)
        cell_mc, mc_size, cells_per_mc = oracles.message_map(j, l, m0, k)
        assert np.array_equal(ms.cell_mc, cell_mc)
        assert ms.mc_size == mc_size
        assert ms.cells_per_mc.tolist() == cells_per_mc
        u = np.random.default_rng(8).random((3, mc_size))
        for mc in range(mc_size):
            cells = np.argwhere(cell_mc == mc)
            for x in u[:, mc].tolist():
                assert ms.cell(mc, x).tolist() == cells[math.floor(x * len(cells))].tolist()

    def test_out_of_range(self):
        ms = MessageSets.case_b(CodebookParams(n=2, j_size=4, l_size=2), 2)
        for mc in (-1, ms.mc_size, 1.9, [0.0, 1.0]):  # a float is not truncated
            with pytest.raises(ValidationError):
                ms.cell(mc, 0.5)


class TestEncode:
    def test_case_b_bijection_is_deterministic(self, bsc12, degraded_chain):
        params = CodebookParams(n=4, j_size=4, l_size=2, seed=0)
        cb = generate(params, degraded_chain, bsc12)
        ms = MessageSets.case_b(params, 4)
        for mc in range(ms.mc_size):
            k, _ = divmod(mc, params.l_size)
            cells = [_encode(mc, 0, 0, cb, ms, np.random.default_rng(s))[0] for s in range(5)]
            assert all(j == k for j, _, _ in cells)

    def test_case_a_deterministic_codeword(self, bsc12, degraded_chain):
        params = CodebookParams(n=6, j_size=2, l_size=2, seed=1)
        cb = generate(params, degraded_chain, bsc12)
        ms = MessageSets(params)
        cell_a, x_a = _encode(3, 0, 0, cb, ms, np.random.default_rng(4))
        cell_b, x_b = _encode(3, 0, 0, cb, ms, np.random.default_rng(4))
        assert cell_a == cell_b  # and so is the codeword, v_words[(*cell, m1, m2)]
        assert np.array_equal(x_a, x_b)

    def test_case_b_spreads_uniformly(self, bsc12, degraded_chain):
        params = CodebookParams(n=2, j_size=4, l_size=1, seed=2)
        cb = generate(params, degraded_chain, bsc12)
        ms = MessageSets.case_b(params, 2)
        rng = np.random.default_rng(11)
        draws = 10_000
        counts = np.zeros(4)
        for _ in range(draws):
            (j, _, _), _ = _encode(0, 0, 0, cb, ms, rng)  # class 0 -> columns {0, 2}
            counts[j] += 1
        assert counts[1] == counts[3] == 0
        expected = draws / 2
        chi2 = ((counts[0] - expected) ** 2 + (counts[2] - expected) ** 2) / expected
        assert chi2 < CHI2_99[1]

    def test_out_of_range(self, bsc12, degraded_chain):
        params = CodebookParams(n=4, j_size=2, l_size=2, seed=0)
        cb = generate(params, degraded_chain, bsc12)
        ms = MessageSets(params)
        with pytest.raises(ValidationError):
            _encode(99, 0, 0, cb, ms, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            _encode(0, 5, 0, cb, ms, np.random.default_rng(0))
        # a float cell or message is not truncated to an index
        for cell, m1 in (((1.9, 0, 0), 0), ((1, 0, 0), 0.5)):
            with pytest.raises(ValidationError, match="integer"):
                encode(cell, m1, 0, cb, np.full(4, 0.5))

    def test_case_a_injective_in_messages(self, noiseless4, carrier_chain):
        params = CodebookParams(n=4, m1_size=2, m2_size=2, seed=5)
        cb = generate(params, carrier_chain, noiseless4)
        ms = MessageSets(params)
        seen = set()
        rng = np.random.default_rng(0)
        for mc in range(ms.mc_size):
            for m1 in range(2):
                for m2 in range(2):
                    cell, _ = _encode(mc, m1, m2, cb, ms, rng)
                    key = (*cell, m1, m2)
                    assert key not in seen
                    seen.add(key)

    def test_stochastic_input_normalization(self, bsc12):
        # enumerate all encoder randomness analytically on a tiny instance:
        # the induced law over input words must sum to one
        chain = AuxChain(Dist([1.0]), CondDist([[0.6, 0.4]]), CondDist([[0.7, 0.3], [0.2, 0.8]]))
        params = CodebookParams(n=3, j_size=2, l_size=1, seed=8)
        cb = generate(params, chain, bsc12)
        ms = MessageSets.case_b(params, 1)
        pre = np.nonzero(ms.column_class == 0)[0]
        total = 0.0
        for xw in np.ndindex(2, 2, 2):
            p = 0.0
            for j in pre:
                v = cb.v_words[j, 0, 0, 0, 0]
                lik = 1.0
                for k in range(3):
                    lik *= chain.pxv.rows[v[k], xw[k]]
                p += lik / pre.size
            total += p
        assert total == pytest.approx(1.0, abs=1e-12)


class TestTransmit:
    def test_identity_channel(self, noiseless4, carrier_chain):
        params = CodebookParams(n=5, seed=0)
        cb = generate(params, carrier_chain, noiseless4)
        ms = MessageSets(params)
        _, x = _encode(0, 0, 0, cb, ms, np.random.default_rng(1))
        y1, y2 = _transmit(x, noiseless4, np.random.default_rng(2))
        assert np.array_equal(y1, x)
        assert np.array_equal(y2, x)

    def test_uniform_output_independent(self):
        ch = from_marginals(np.eye(2), np.full((2, 2), 0.5))
        chain = AuxChain(Dist([1.0]), CondDist([[1.0]]), CondDist([[1.0, 0.0]]))
        params = CodebookParams(n=2000, seed=0)
        cb = generate(params, chain, ch)
        _, x = _encode(0, 0, 0, cb, MessageSets(params), np.random.default_rng(3))
        _, y2 = _transmit(x, ch, np.random.default_rng(4))
        # all-zero input, output should still be near-uniform
        assert abs(y2.mean() - 0.5) < 0.05

    def test_flip_rate(self, bsc12, degraded_chain):
        params = CodebookParams(n=10_000, seed=1)
        cb = generate(params, degraded_chain, bsc12)
        _, x = _encode(0, 0, 0, cb, MessageSets(params), np.random.default_rng(5))
        y1, _ = _transmit(x, bsc12, np.random.default_rng(6))
        flips = np.mean(y1 != x)
        assert abs(flips - 0.1) < 0.01

    def test_out_of_range_input_symbol(self, bsc12):
        # a negative symbol would otherwise index the last channel row
        for x in ([0, -1, 1], [0, 2, 1], [0, 1.9, 1]):
            with pytest.raises(ValidationError, match="input symbol"):
                transmit(np.array(x), bsc12, np.full(3, 0.5))


class TestDecoders:
    def test_noiseless_round_trip_node1(self, bsc12):
        # second layer carries the confidential pair over a 4-letter alphabet
        chain = AuxChain(Dist([1.0]), CondDist([[0.25] * 4]), CondDist(np.eye(4)))
        ch = from_marginals(np.eye(4), np.eye(4))
        epsilon = 1.0
        params = CodebookParams(n=8, j_size=2, l_size=2, seed=4)
        cb = generate(params, chain, ch)
        ms = MessageSets(params)
        rng = np.random.default_rng(7)
        for mc in range(ms.mc_size):
            _, x = _encode(mc, 0, 0, cb, ms, rng)
            y1, _ = _transmit(x, ch, rng)
            assert _decode1(y1, 0, cb, ms, epsilon) == (mc, 0)

    def test_float_messages_and_symbols_rejected(self, bsc12, degraded_chain):
        # a float own message or received symbol is not truncated to an index
        params = CodebookParams(n=4, m1_size=2, m2_size=2, j_size=2, seed=0)
        cb = generate(params, degraded_chain, bsc12)
        words, own = np.zeros((2, 4), dtype=int), np.zeros(2, dtype=int)
        for decode in (Node1Decoder(cb, MessageSets(params), 0.2), Node2Decoder(cb, 0.2)):
            for y, m in ((words, own + 0.9), (words + 0.9, own)):
                with pytest.raises(ValidationError, match="integer"):
                    decode(y, m)

    def test_noiseless_round_trip_node2(self, noiseless4, carrier_chain):
        epsilon = 1.0
        params = CodebookParams(n=6, m1_size=2, m2_size=2, seed=9)
        cb = generate(params, carrier_chain, noiseless4)
        ms = MessageSets(params)
        rng = np.random.default_rng(8)
        for m1 in range(2):
            for m2 in range(2):
                _, x = _encode(0, m1, m2, cb, ms, rng)
                _, y2 = _transmit(x, noiseless4, rng)
                assert _decode2(y2, m2, cb, epsilon) == m1

    def test_independent_output_erases(self, bsc12, degraded_chain):
        epsilon = 0.05
        params = CodebookParams(n=24, j_size=2, l_size=2, seed=10)
        cb = generate(params, degraded_chain, bsc12)
        ms = MessageSets(params)
        rng = np.random.default_rng(11)
        erasures = 0
        for _ in range(30):
            y1 = rng.integers(2, size=24)  # not from the code at all
            if _decode1(y1, 0, cb, ms, epsilon) == (-1, -1):
                erasures += 1
        assert erasures >= 25

    def test_single_m1_never_wrong(self, bsc12, degraded_chain):
        epsilon = 0.5
        params = CodebookParams(n=8, m1_size=1, seed=12)
        cb = generate(params, degraded_chain, bsc12)
        ms = MessageSets(params)
        rng = np.random.default_rng(13)
        for _ in range(20):
            y2 = rng.integers(2, size=8)
            assert _decode2(y2, 0, cb, epsilon) in (0, -1)

    def test_message_level_ambiguity_erases(self):
        # two codewords carrying different confidential messages made
        # identical: the decoder must erase, never guess
        ch = from_marginals(np.eye(2), np.eye(2))
        chain = AuxChain(Dist([1.0]), CondDist([[0.5, 0.5]]), CondDist(np.eye(2)))
        epsilon = 1.5
        params = CodebookParams(n=10, j_size=2, l_size=1, seed=22)
        cb = generate(params, chain, ch)
        v = cb.v_words.copy()
        v[1] = v[0]
        object.__setattr__(cb, "v_words", v)
        ms = MessageSets(params)  # columns are distinct messages here
        rng = np.random.default_rng(23)
        _, x = _encode(0, 0, 0, cb, ms, rng)
        y1, _ = _transmit(x, ch, rng)
        assert _decode1(y1, 0, cb, ms, epsilon) == (-1, -1)

    def test_case_b_same_class_hits_still_decode(self):
        # both columns of one class map to the same confidential message, so
        # simultaneous typicality of the pair is not an ambiguity
        ch = from_marginals(np.eye(2), np.eye(2))
        chain = AuxChain(Dist([1.0]), CondDist([[0.5, 0.5]]), CondDist(np.eye(2)))
        epsilon = 1.5
        params = CodebookParams(n=10, j_size=2, l_size=1, seed=20)
        cb = generate(params, chain, ch)
        # force identical column words so both columns are always typical
        v = cb.v_words.copy()
        v[1] = v[0]
        object.__setattr__(cb, "v_words", v)
        ms = MessageSets.case_b(params, 1)
        rng = np.random.default_rng(21)
        _, x = _encode(0, 0, 0, cb, ms, rng)
        y1, _ = _transmit(x, ch, rng)
        assert _decode1(y1, 0, cb, ms, epsilon) == (0, 0)

    def test_inner_decoder_noiseless(self, bsc12):
        chain = AuxChain(Dist([1.0]), CondDist([[0.25] * 4]), CondDist(np.eye(4)))
        ch = from_marginals(np.eye(4), np.eye(4))
        epsilon = 1.0
        params = CodebookParams(n=8, j_size=4, l_size=1, seed=14)
        cb = generate(params, chain, ch)
        ms = MessageSets(params)
        rng = np.random.default_rng(15)
        for mc in range(ms.mc_size):
            (j, l, m0), x = _encode(mc, 0, 0, cb, ms, rng)
            _, y2 = _transmit(x, ch, rng)
            assert oracles.inner_column_decode(y2, l, (m0, 0, 0), cb, epsilon) == j

    def test_inner_decoder_saturates_above_capacity(self, bsc12, degraded_chain):
        # column rate far above the node-2 information term: decoding fails
        # at least half the time
        iq = evaluate_chain(degraded_chain, bsc12)
        n = 16
        j_size = 2 ** int(np.ceil(n * (iq.iv2 + 0.35)))
        epsilon = 0.25
        params = CodebookParams(n=n, j_size=j_size, l_size=1, seed=16)
        cb = generate(params, degraded_chain, bsc12)
        ms = MessageSets(params)
        rng = np.random.default_rng(17)
        errors = 0
        trials = 40
        for _ in range(trials):
            mc = int(rng.integers(ms.mc_size))
            (j, l, m0), x = _encode(mc, 0, 0, cb, ms, rng)
            _, y2 = _transmit(x, bsc12, rng)
            if oracles.inner_column_decode(y2, l, (m0, 0, 0), cb, epsilon) != j:
                errors += 1
        assert errors / trials >= 0.5

    def test_candidate_guard(self, bsc12, degraded_chain):
        params = CodebookParams(n=2, j_size=1 << 11, l_size=1 << 10, seed=18)
        cb = generate(params, degraded_chain, bsc12)
        with pytest.raises(GuardError):
            Node1Decoder(cb, MessageSets(params), 0.15)


class TestMessageSets:
    def test_case_b_requires_sentinel_common(self):
        params = CodebookParams(n=4, m0_size=2, j_size=4)
        with pytest.raises(ValidationError):
            MessageSets.case_b(params, 2)
