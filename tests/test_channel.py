import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbcsec import (
    AuxChain,
    BroadcastChannel,
    MarginalChannel,
    ValidationError,
    binary_symmetric,
    from_marginals,
    jsonio,
    load_channel,
    marginal,
    save_channel,
)
from bbcsec.channel import load_chain_file
from bbcsec.cli import main
from bbcsec.probability import CondDist, Dist


class TestMarginal:
    def test_product_recovers_factor(self):
        w1 = binary_symmetric(0.1)
        w2 = binary_symmetric(0.2)
        ch = from_marginals(w1, w2)
        assert np.allclose(marginal(ch, 1).matrix, w1, atol=1e-12)
        assert np.allclose(marginal(ch, 2).matrix, w2, atol=1e-12)

    def test_noiseless_pair(self):
        tensor = np.zeros((2, 2, 2))
        tensor[0, 0, 0] = 1.0
        tensor[1, 1, 1] = 1.0
        ch = BroadcastChannel(tensor)
        assert np.array_equal(marginal(ch, 1).matrix, np.eye(2))
        assert np.array_equal(marginal(ch, 2).matrix, np.eye(2))

    def test_bsc_product_rows(self):
        ch = from_marginals(binary_symmetric(0.1), binary_symmetric(0.2))
        assert np.allclose(marginal(ch, 2).matrix, [[0.8, 0.2], [0.2, 0.8]])

    def test_bad_node(self):
        # the integer 1 or 2 only: not a bool (True is not node 1) or a float
        ch = from_marginals(np.eye(2), np.eye(2))
        for node in (3, 0, -1, True, False, 1.0, 2.5, "1", None):
            with pytest.raises(ValidationError, match="marginal: node"):
                marginal(ch, node)
        assert marginal(ch, np.int64(2)) is marginal(ch, 2)

    def test_built_once_and_read_only(self):
        ch = from_marginals(binary_symmetric(0.1), binary_symmetric(0.2))
        for node in (1, 2):
            assert marginal(ch, node) is marginal(ch, node)
            assert not marginal(ch, node).matrix.flags.writeable

    def test_marginals_are_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.dirichlet(np.ones(12), size=2).reshape(2, 3, 4)
            ch = BroadcastChannel(t)
            MarginalChannel(marginal(ch, 1).matrix)
            MarginalChannel(marginal(ch, 2).matrix)


class TestFromMarginals:
    def test_identity_pair(self):
        ch = from_marginals(np.eye(2), np.eye(2))
        for x in range(2):
            for y1 in range(2):
                for y2 in range(2):
                    expected = 1.0 if x == y1 == y2 else 0.0
                    assert ch.tensor[x, y1, y2] == expected

    def test_uniform_second(self):
        ch = from_marginals(binary_symmetric(0.3), np.full((2, 2), 0.5))
        assert np.allclose(marginal(ch, 2).matrix, 0.5)

    def test_bsc_value(self):
        ch = from_marginals(binary_symmetric(0.1), binary_symmetric(0.2))
        assert ch.tensor[0, 0, 0] == pytest.approx(0.72, abs=1e-15)

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            from_marginals(np.eye(2), np.eye(3))


class TestValidation:
    def test_row_sum_error_names_input(self):
        tensor = np.full((2, 2, 2), 0.25)
        tensor[1] *= 0.9
        with pytest.raises(ValidationError, match="x=1"):
            BroadcastChannel(tensor)

    def test_negative_entry(self):
        tensor = np.full((1, 2, 2), 0.25)
        tensor = tensor.copy()
        tensor[0, 0, 0] = -0.25
        tensor[0, 1, 1] = 0.75
        with pytest.raises(ValidationError, match="negative"):
            BroadcastChannel(tensor)


W = [[0.9, 0.1], [0.2, 0.8]]
CHAIN = {"p_u": [1.0], "p_v_given_u": [[0.5, 0.5]], "p_x_given_v": [[1.0, 0.0], [0.0, 1.0]]}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))  # NaN and inf become the NaN/Infinity literals json.loads reads
    return str(path)


def _marginals_file(tmp_path, w1):
    return _write(tmp_path, "ch.json", {"x_size": 2, "y1_size": 2, "y2_size": 2,
                                        "marginals": {"w1": w1, "w2": W}})


# name -> (valid data, call that validates it; CLI calls return the exit code)
INPUTS = {
    "Dist": ([0.25, 0.75], lambda d, tmp: Dist(d)),
    "CondDist": (W, lambda d, tmp: CondDist(d)),
    "BroadcastChannel": ([[[0.5, 0.5]], [[0.25, 0.75]]], lambda d, tmp: BroadcastChannel(d)),
    "MarginalChannel": (W, lambda d, tmp: MarginalChannel(d)),
    "load_channel_joint": ([[[0.5, 0.5]], [[0.25, 0.75]]], lambda d, tmp: load_channel(
        _write(tmp, "ch.json", {"x_size": 2, "y1_size": 1, "y2_size": 2, "joint": d}))),
    "load_channel_marginals": (W, lambda d, tmp: load_channel(_marginals_file(tmp, d))),
    "load_chain_file": (CHAIN["p_x_given_v"], lambda d, tmp: load_chain_file(
        _write(tmp, "chain.json", dict(CHAIN, p_x_given_v=d)))),
    "info_uniform_x": (W, lambda d, tmp: main(["info", _marginals_file(tmp, d), "--uniform-x"])),
    "info_chain": (CHAIN["p_x_given_v"], lambda d, tmp: main(
        ["info", _marginals_file(tmp, W), "--chain", _write(tmp, "chain.json", dict(CHAIN, p_x_given_v=d))])),
}


def _corrupt(data, kind):
    """Copy of nested-list data with its first entry set to NaN or inf, or
    with its first innermost list one entry longer than the others."""
    data = copy.deepcopy(data)
    row = data
    while isinstance(row[0], list):
        row = row[0]
    if kind == "ragged":
        if row is data:
            data[0] = [data[0]]
        else:
            row.append(0.0)
    else:
        row[0] = float(kind)
    return data


@pytest.mark.parametrize("kind", ["nan", "inf", "ragged"])
@pytest.mark.parametrize("target", sorted(INPUTS))
def test_non_finite_or_ragged_input_rejected(target, kind, tmp_path):
    valid, call = INPUTS[target]
    if target.startswith("info"):
        assert call(valid, tmp_path) == 0
        assert call(_corrupt(valid, kind), tmp_path) == 2
    else:
        call(valid, tmp_path)
        with pytest.raises(ValidationError):
            call(_corrupt(valid, kind), tmp_path)


@pytest.mark.parametrize("size", [2.5, 2.0, "2", True])
def test_non_integer_alphabet_size_rejected(size, tmp_path):
    path = _write(tmp_path, "ch.json", {"x_size": size, "y1_size": 2, "y2_size": 2,
                                        "marginals": {"w1": W, "w2": W}})
    with pytest.raises(ValidationError, match="x_size"):
        load_channel(path)
    assert main(["info", path, "--uniform-x"]) == 2


class TestFileFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        ch = from_marginals(binary_symmetric(0.1), binary_symmetric(0.2))
        path = tmp_path / "ch.json"
        save_channel(ch, path)
        again = load_channel(path)
        assert np.array_equal(again.tensor, ch.tensor)

    def test_marginals_form(self, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text(
            '{"x_size": 2, "y1_size": 2, "y2_size": 2,'
            ' "marginals": {"w1": [[0.9,0.1],[0.1,0.9]], "w2": [[0.8,0.2],[0.2,0.8]]}}'
        )
        ch = load_channel(path)
        assert ch.tensor[0, 0, 0] == pytest.approx(0.72, abs=1e-15)

    def test_joint_and_marginals_together_rejected(self, tmp_path):
        # a uniform joint beside BSC marginals: neither may silently win
        path = _write(tmp_path, "ch.json", {"x_size": 2, "y1_size": 2, "y2_size": 2,
                                            "joint": np.full((2, 2, 2), 0.25).tolist(),
                                            "marginals": {"w1": W, "w2": W}})
        with pytest.raises(ValidationError, match="only one of 'joint' and 'marginals'"):
            load_channel(path)

    def test_bad_row_sum_names_position(self, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text(
            '{"x_size": 1, "y1_size": 2, "y2_size": 1, "joint": [[[0.5],[0.4]]]}'
        )
        with pytest.raises(ValidationError, match="x=0"):
            load_channel(path)

    def test_parse_error_position(self, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text('{"x_size": 1,')
        with pytest.raises(ValidationError, match="line"):
            load_channel(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text('{"x_size": 1, "y1_size": 1, "y2_size": 1}')
        with pytest.raises(ValidationError, match="joint"):
            load_channel(path)

    def test_serialized_precision(self, tmp_path):
        # one-third does not have a short decimal form; the file must carry
        # enough digits to reproduce it exactly
        third = 1.0 / 3.0
        w = np.array([[third, third, 1.0 - 2 * third]])
        ch = from_marginals(w, np.array([[1.0]]))
        path = tmp_path / "ch.json"
        save_channel(ch, path)
        text = path.read_text()
        assert "0.33333333333333331" in text
        assert np.array_equal(load_channel(path).tensor, ch.tensor)

    def test_chain_file_round_trip(self, tmp_path):
        pu = Dist([0.25, 0.75])
        pvu = CondDist([[0.5, 0.5], [1.0 / 3.0, 2.0 / 3.0]])
        pxv = CondDist(np.eye(2))
        path = tmp_path / "chain.json"
        jsonio.dump(AuxChain(pu, pvu, pxv).to_dict(), path)  # the form `member` prints a witness chain in
        pu2, pvu2, pxv2 = load_chain_file(path)
        assert np.array_equal(pu2.probs, pu.probs)
        assert np.array_equal(pvu2.rows, pvu.rows)
        assert np.array_equal(pxv2.rows, pxv.rows)


# valid files for the mutation test; integer entries are legal JSON numbers
def _valid_docs() -> tuple:
    channel = {"x_size": 2, "y1_size": 2, "y2_size": 2,
               "marginals": {"w1": [[0.9, 0.1], [0.2, 0.8]], "w2": [[1, 0], [0.5, 0.5]]}}
    chain = {"p_u": [1], "p_v_given_u": [[0.5, 0.5]], "p_x_given_v": [[1, 0], [0, 1]]}
    return channel, chain


def _holder(docs, field) -> dict:
    """The object of docs (channel, chain) that holds the array `field`."""
    channel, chain = docs
    return channel["marginals"] if field in ("w1", "w2") else chain


def _leaf_paths(value, path=()) -> list:
    if not isinstance(value, list):
        return [path]
    return [p for i, v in enumerate(value) for p in _leaf_paths(v, path + (i,))]


NOT_A_NUMBER = st.one_of(st.text(max_size=4), st.booleans(), st.none(), st.lists(st.floats(0, 1), max_size=3))
ARRAY_FIELDS = ("w1", "w2", "p_u", "p_v_given_u", "p_x_given_v")


@st.composite
def mutations(draw):
    """One defect: (kind, field, position or depth, value)."""
    kind = draw(st.sampled_from(["leaf", "drop_row", "add_dim", "size"]))
    if kind == "size":
        new = st.one_of(st.integers(-2, 6).filter(lambda v: v != 2), st.floats(allow_nan=False), NOT_A_NUMBER)
        return kind, draw(st.sampled_from(["x_size", "y1_size", "y2_size"])), None, draw(new)
    field = draw(st.sampled_from(ARRAY_FIELDS))
    array = _holder(_valid_docs(), field)[field]
    if kind == "leaf":
        return kind, field, draw(st.sampled_from(_leaf_paths(array))), draw(NOT_A_NUMBER)
    if kind == "drop_row":
        return kind, field, draw(st.integers(0, len(array) - 1)), None
    return kind, field, draw(st.integers(1, 3)), None


@given(mutations())
@example(("leaf", "w1", (0, 0), "0.9"))
@example(("leaf", "p_u", (0,), "1"))
@example(("leaf", "p_x_given_v", (0, 0), True))
@example(("add_dim", "w1", 900, None))
@settings(max_examples=100, deadline=None)
def test_mutated_input_files_exit_2(mutation):
    kind, field, where, value = mutation
    docs = _valid_docs()
    if kind == "size":
        docs[0][field] = value
    else:
        doc = _holder(docs, field)
        if kind == "leaf":
            row = doc[field]
            for i in where[:-1]:
                row = row[i]
            row[where[-1]] = value
        elif kind == "drop_row":
            del doc[field][where]
        else:
            for _ in range(where):
                doc[field] = [doc[field]]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "ch.json", Path(tmp) / "chain.json"]
        for path, doc in zip(paths, docs):
            path.write_text(json.dumps(doc))
        assert main(["info", str(paths[0]), "--chain", str(paths[1])]) == 2
