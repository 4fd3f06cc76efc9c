import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bbcsec
from bbcsec import binary_symmetric, jsonio
from bbcsec.cli import main


@pytest.fixture()
def bsc_file(tmp_path):
    path = tmp_path / "bsc12.json"
    jsonio.dump(
        {
            "x_size": 2, "y1_size": 2, "y2_size": 2,
            "marginals": {"w1": binary_symmetric(0.1), "w2": binary_symmetric(0.2)},
        },
        path,
    )
    return str(path)


@pytest.fixture()
def noiseless_file(tmp_path):
    path = tmp_path / "noiseless.json"
    jsonio.dump(
        {
            "x_size": 2, "y1_size": 2, "y2_size": 2,
            "marginals": {"w1": np.eye(2), "w2": np.eye(2)},
        },
        path,
    )
    return str(path)


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    jsonio.dump(
        {"p_u": [1.0], "p_v_given_u": [[0.5, 0.5]], "p_x_given_v": [[1.0, 0.0], [0.0, 1.0]]},
        path,
    )
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FAST = ["--restarts", "6", "--iterations", "80"]


class TestInfo:
    def test_noiseless_uniform_chain(self, capsys, noiseless_file):
        code, out, _ = run_cli(capsys, "info", noiseless_file, "--uniform-x")
        assert code == 0
        doc = json.loads(out)
        assert doc["info_quantities"]["iv1"] == pytest.approx(1.0, abs=1e-12)
        assert doc["info_quantities"]["iv2"] == pytest.approx(1.0, abs=1e-12)
        assert doc["re_star"] == pytest.approx(0.0, abs=1e-12)

    def test_degraded_bsc_values(self, capsys, bsc_file, chain_file):
        code, out, _ = run_cli(capsys, "info", bsc_file, "--chain", chain_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["rc_star_at_zero_individual_rates"] == pytest.approx(0.53100, abs=5e-6)
        assert doc["re_star"] == pytest.approx(0.25293, abs=5e-6)

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "info", "no-such-file.json", "--uniform-x")
        assert code == 2
        assert err != ""
        assert out == ""

    def test_requires_chain_choice(self, capsys, bsc_file):
        code, _, err = run_cli(capsys, "info", bsc_file)
        assert code == 1
        assert "chain" in err


class TestRegion:
    def test_bbc_noiseless_single_corner(self, capsys, noiseless_file):
        code, out, _ = run_cli(
            capsys, "region", noiseless_file, "--mode", "bbc", "--weights", "5", *FAST
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "w_rc,w_re,w_r1,w_r2,rc,re,r1,r2,support_value"
        assert len(lines) == 2
        fields = [float(x) for x in lines[1].split(",")]
        assert fields[6] == pytest.approx(1.0, abs=1e-6)
        assert fields[7] == pytest.approx(1.0, abs=1e-6)

    def test_secrecy_identical_marginals(self, capsys, tmp_path):
        path = tmp_path / "same.json"
        jsonio.dump(
            {"x_size": 2, "y1_size": 2, "y2_size": 2,
             "marginals": {"w1": binary_symmetric(0.1), "w2": binary_symmetric(0.1)}},
            path,
        )
        code, out, _ = run_cli(
            capsys, "region", str(path), "--mode", "secrecy", "--weights", "4", *FAST
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            rc = float(line.split(",")[4])
            assert rc <= 1e-6

    def test_secrecy_csv_and_manifest(self, capsys, bsc_file, tmp_path):
        out_path = tmp_path / "frontier.csv"
        code, _, _ = run_cli(
            capsys, "region", bsc_file, "--mode", "secrecy", "--weights", "4",
            "--out", str(out_path), *FAST,
        )
        assert code == 0
        text = out_path.read_text()
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        by_weight = {tuple(float(v) for v in r[:4]): [float(v) for v in r[4:]] for r in rows}
        assert (1.0, 0.0, 0.0, 0.0) in by_weight
        assert by_weight[(1.0, 0.0, 0.0, 0.0)][0] == pytest.approx(0.25293, abs=1e-3)
        manifest = json.loads((tmp_path / "frontier.csv.manifest.json").read_text())
        assert manifest["command"] == "region"
        assert bsc_file in manifest["inputs"]
        assert manifest["parameters"]["weights"] == 4
        assert not {"grid", "tol"} & set(manifest["parameters"])

    def test_bbc_ignores_and_records_no_search_flags(self, capsys, bsc_file, tmp_path):
        # the bbc frontier is solved exactly: the search flags do not shape it
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, flags in ((a, ["--seed", "0"]), (b, ["--seed", "3", "--restarts", "1", "--iterations", "20"])):
            code, _, _ = run_cli(capsys, "region", bsc_file, "--mode", "bbc", "--out", str(path), *flags)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        for path in (a, b):
            manifest = json.loads((tmp_path / f"{path.name}.manifest.json").read_text())
            assert manifest["parameters"] == {"mode": "bbc", "weights": 33}

    @pytest.mark.parametrize("mode", ["secrecy", "full"])
    def test_search_manifest_records_the_budget(self, capsys, bsc_file, tmp_path, mode):
        out_path = tmp_path / "frontier.csv"
        code, _, _ = run_cli(capsys, "region", bsc_file, "--mode", mode, "--weights", "3", "--seed", "2",
                             "--out", str(out_path), *FAST)
        assert code == 0
        manifest = json.loads((tmp_path / "frontier.csv.manifest.json").read_text())
        assert manifest["parameters"] == {"mode": mode, "weights": 3, "restarts": 6, "iterations": 80,
                                          "seed": 2, "u_size": None, "v_size": None}
        assert manifest["seed"] == 2

    def test_set_alphabet_sizes_are_recorded(self, capsys, bsc_file, tmp_path):
        out_path = tmp_path / "frontier.csv"
        code, _, _ = run_cli(capsys, "region", bsc_file, "--mode", "secrecy", "--weights", "1",
                             "--u-size", "2", "--v-size", "3", "--out", str(out_path), "--restarts", "2",
                             "--iterations", "10")
        assert code == 0
        params = json.loads((tmp_path / "frontier.csv.manifest.json").read_text())["parameters"]
        assert (params["u_size"], params["v_size"]) == (2, 3)

    @pytest.mark.parametrize("mode", ["bbc", "secrecy", "full"])
    def test_zero_weights_exits_2(self, capsys, bsc_file, mode):
        code, out, err = run_cli(capsys, "region", bsc_file, "--mode", mode, "--weights", "0", *FAST)
        assert code == 2
        assert out == ""
        assert "validation error" in err

    def test_grid_flag_rejected(self, capsys, bsc_file):
        # the weight count is --weights; region has no separate --grid
        code, out, err = run_cli(
            capsys, "region", bsc_file, "--mode", "bbc", "--grid", "3", "--weights", "2", *FAST
        )
        assert code == 1
        assert "--grid" in err
        assert out == ""

    def test_full_mode_rows_are_region_corners(self, capsys, bsc_file):
        code, out, _ = run_cli(
            capsys, "region", bsc_file, "--mode", "full", "--weights", "5",
            "--restarts", "4", "--iterations", "60",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) >= 2
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            rc, re = vals[4], vals[5]
            assert re <= rc + 1e-9
            value = vals[8]
            assert value == pytest.approx(float(np.dot(vals[:4], vals[4:8])), abs=1e-9)

    def test_reproducible_output_file(self, capsys, bsc_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "region", bsc_file, "--mode", "secrecy", "--weights", "4",
                "--seed", "3", "--out", str(path), *FAST,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestMember:
    def test_origin(self, capsys, bsc_file):
        code, out, _ = run_cli(capsys, "member", bsc_file, "--tuple", "0,0,0,0", *FAST)
        assert code == 0
        assert json.loads(out)["verdict"] == "inside"

    def test_entropy_cap(self, capsys, bsc_file):
        code, out, _ = run_cli(capsys, "member", bsc_file, "--tuple", "10,10,10,10", *FAST)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "outside_up_to"

    def test_degraded_point(self, capsys, bsc_file):
        code, out, _ = run_cli(capsys, "member", bsc_file, "--tuple", "0.25,0.25,0,0", *FAST)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "inside"
        assert doc["witness_chain"] is not None

    def test_report_file_and_manifest(self, capsys, bsc_file, tmp_path):
        out_path = tmp_path / "member.json"
        code, out, _ = run_cli(capsys, "member", bsc_file, "--tuple", "0,0,0,0", "--out", str(out_path), *FAST)
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["verdict"] == "inside"
        manifest = json.loads((tmp_path / "member.json.manifest.json").read_text())
        assert manifest["command"] == "member"
        assert manifest["parameters"] == {"tuple": "0,0,0,0", "restarts": 6, "iterations": 80, "seed": 0,
                                          "u_size": None, "v_size": None}

    def test_malformed_tuple(self, capsys, bsc_file):
        code, _, err = run_cli(capsys, "member", bsc_file, "--tuple", "1,2,3")
        assert code == 1
        code, _, err = run_cli(capsys, "member", bsc_file, "--tuple", "0.1,0.2,0,0")
        assert code == 1  # re > rc
        for bad in ("nan,0,0,0", "0.1,0.05,inf,0"):
            code, _, err = run_cli(capsys, "member", bsc_file, "--tuple", bad)
            assert code == 1


class TestSimulate:
    def test_runs_and_reports(self, capsys, bsc_file, chain_file):
        code, out, _ = run_cli(
            capsys, "simulate", bsc_file, chain_file,
            "--n", "6", "--sizes", "1,1,1,2,2", "--trials", "20", "--seed", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert 0 <= doc["e1"]["rate"] <= 1
        assert doc["equivocation_rate"] is not None
        assert doc["config"]["seed"] == 5

    def test_byte_identical_reports(self, capsys, bsc_file, chain_file):
        args = ["simulate", bsc_file, chain_file, "--n", "6", "--sizes", "1,1,1,2,2",
                "--trials", "15", "--seed", "7"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_guard_exit_code(self, capsys, bsc_file, chain_file):
        code, _, err = run_cli(
            capsys, "simulate", bsc_file, chain_file,
            "--n", "30", "--sizes", "1,1,1,2,2", "--trials", "1", "--equiv", "exact",
        )
        assert code == 3
        assert "guard" in err.lower() or "limit" in err.lower()

    @pytest.mark.parametrize("equiv, n, samples", [
        # 65 536 sub-words: at n = 16 the exact mode's table of 8192 suffix
        # output words x sub-words would take 4 GiB
        pytest.param("exact", "16", "2000", id="exact"),
        # 10^12 Monte Carlo draws would take 8 TB; the guard fires before any
        pytest.param("mc", "4", "1000000000000", id="mc"),
    ])
    def test_dense_equivocation_table_guard_exit_code(self, capsys, bsc_file, chain_file, equiv, n, samples):
        code, out, err = run_cli(
            capsys, "simulate", bsc_file, chain_file, "--n", n, "--sizes", "1,1,1,1024,64",
            "--trials", "2", "--equiv", equiv, "--mc-samples", samples,
        )
        assert code == 3
        assert out == ""
        assert "limit" in err

    @pytest.mark.parametrize("equiv, n, samples, message", [
        pytest.param("exact", "40", "2000", "2^40 output words exceeds the limit", id="exact"),
        pytest.param("mc", "4", "1000000000000", "draws of 1000000000000 x 1 entries exceeds the limit", id="mc"),
    ])
    def test_equivocation_guards_fire_before_the_trials(self, capsys, monkeypatch, bsc_file, chain_file,
                                                        equiv, n, samples, message):
        def no_trials(*args):
            raise AssertionError("a trial ran before the equivocation guard")

        monkeypatch.setattr("bbcsec.simulate._run_trials", no_trials)
        code, out, err = run_cli(
            capsys, "simulate", bsc_file, chain_file, "--n", n, "--sizes", "1,1,1,2,2",
            "--trials", "20000", "--equiv", equiv, "--mc-samples", samples,
        )
        assert code == 3
        assert out == ""
        assert message in err

    def test_exact_equivocation_of_65536_messages(self, capsys, bsc_file, chain_file):
        # one word per message: the exact mode builds no words x messages
        # table, and log2|Mc| - n log2|Y2| <= H(Mc|Y2) <= log2|Mc| bounds the
        # rate to [16 - 4, 16] / 4
        code, out, _ = run_cli(
            capsys, "simulate", bsc_file, chain_file,
            "--n", "4", "--sizes", "1,1,1,1024,64", "--trials", "2", "--equiv", "exact",
        )
        assert code == 0
        assert 3.0 <= json.loads(out)["equivocation_rate"] <= 4.0

    def test_mc_equivocation_of_65536_messages(self, capsys, bsc_file, chain_file):
        # the same instance by Monte Carlo: one-word messages are segments of
        # one word, and no words x messages table is built
        code, out, _ = run_cli(
            capsys, "simulate", bsc_file, chain_file,
            "--n", "4", "--sizes", "1,1,1,1024,64", "--trials", "2", "--equiv", "mc", "--mc-samples", "200",
        )
        assert code == 0
        assert 3.0 <= json.loads(out)["equivocation_rate"] <= 4.0

    def test_infeasible_rates_still_report(self, capsys, bsc_file, chain_file):
        # rates far above the region: exit 0, the report shows the errors
        code, out, _ = run_cli(
            capsys, "simulate", bsc_file, chain_file,
            "--n", "4", "--sizes", "1,1,1,8,8", "--trials", "10", "--equiv", "none",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["e1"]["rate"] >= 0


    @pytest.mark.parametrize("equiv,samples", [("exact", "-7"), ("mc", "1")])
    def test_too_few_mc_samples_exits_2(self, capsys, bsc_file, chain_file, tmp_path, equiv, samples):
        # rejected before any trial runs, in every mode, and nothing is written
        out_path = tmp_path / "sim.json"
        code, out, err = run_cli(
            capsys, "simulate", bsc_file, chain_file, "--n", "4", "--trials", "2",
            "--equiv", equiv, "--mc-samples", samples, "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert "mc_samples" in err
        assert not out_path.exists()


def test_channel_with_joint_and_marginals_exits_2(capsys, tmp_path):
    path = tmp_path / "both.json"
    jsonio.dump({"x_size": 2, "y1_size": 2, "y2_size": 2, "joint": np.full((2, 2, 2), 0.25),
                 "marginals": {"w1": binary_symmetric(0.1), "w2": binary_symmetric(0.2)}}, path)
    code, out, err = run_cli(capsys, "info", str(path), "--uniform-x")
    assert code == 2
    assert out == ""
    assert "only one of 'joint' and 'marginals'" in err


class TestReportKeyOrder:
    """The key sequence of each nested report block, as the files list them."""

    def test_simulate(self, capsys, bsc_file, chain_file):
        code, out, _ = run_cli(capsys, "simulate", bsc_file, chain_file, "--n", "4", "--trials", "4")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["e1", "e2", "equivocation_rate", "equivocation_se", "leakage_rate",
                             "confidential_rate", "equivocation_bound", "asymptotic_terms",
                             "epsilon_n", "config"]
        for block in ("e1", "e2"):
            assert list(doc[block]) == ["rate", "ci_low", "ci_high", "errors", "trials"]
        assert list(doc["asymptotic_terms"]) == ["sub_rate_limit", "h_out2_given_code",
                                                 "h_out2_given_cloud", "combination"]
        assert list(doc["config"]) == ["trials", "n", "sizes", "epsilon", "codebook_seed", "equiv_mode",
                                       "mc_samples", "seed", "k_size", "chain"]

    def test_codebook(self, capsys, bsc_file, chain_file, tmp_path):
        out_path = tmp_path / "cb.json"
        code, out, _ = run_cli(capsys, "codebook", bsc_file, chain_file, "--n", "4", "--out", str(out_path))
        assert code == 0
        dump = json.loads(out_path.read_text())
        assert list(dump) == ["params", "chain", "u_words", "v_words"]
        assert list(dump["params"]) == ["n", "m0_size", "m1_size", "m2_size", "j_size", "l_size", "seed"]
        manifest = json.loads((tmp_path / "cb.json.manifest.json").read_text())
        assert list(manifest["parameters"]) == ["n", "sizes", "delta"]
        assert list(json.loads(out)["rate_conditions"][0]) == ["name", "code_rate", "bound", "delta",
                                                               "exists_ok", "reliable_ok"]

    def test_member(self, capsys, bsc_file):
        code, out, _ = run_cli(capsys, "member", bsc_file, "--tuple", "0,0,0,0", *FAST)
        assert code == 0
        doc = json.loads(out)
        assert list(doc["tuple"]) == ["rc", "re", "r1", "r2"]
        assert list(doc["search"]) == ["restarts", "iterations", "seed", "u_size", "v_size"]

    def test_info(self, capsys, bsc_file):
        code, out, _ = run_cli(capsys, "info", bsc_file, "--uniform-x")
        assert code == 0
        assert list(json.loads(out)["info_quantities"]) == ["iu1", "iu2", "iv1", "iv2"]


@pytest.mark.parametrize("cmd,opt", [("region", "--tol"), ("member", "--tol"), ("member", "--grid")])
def test_removed_search_option_exits_1(capsys, bsc_file, cmd, opt):
    # the climb tolerance and the separation lattice are constants
    extra = ["--tuple", "0,0,0,0"] if cmd == "member" else []
    code, out, err = run_cli(capsys, cmd, bsc_file, *extra, opt, "3", *FAST)
    assert code == 1
    assert opt in err
    assert out == ""


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("cmd,opt", [("simulate", "--epsilon"), ("codebook", "--delta")])
def test_non_finite_option_exits_2(capsys, bsc_file, chain_file, tmp_path, cmd, opt, value):
    files = {
        "simulate": [bsc_file, chain_file],
        "codebook": [bsc_file, chain_file, "--out", str(tmp_path / "cb.json")],
    }
    code, out, _ = run_cli(capsys, cmd, *files[cmd], opt, value)
    assert code == 2
    assert out == ""


def test_zero_epsilon_exits_2(capsys, bsc_file, chain_file):
    code, out, err = run_cli(capsys, "simulate", bsc_file, chain_file, "--epsilon", "0")
    assert code == 2
    assert out == ""
    assert "epsilon" in err


def test_codebook_takes_no_epsilon(capsys, bsc_file, chain_file, tmp_path):
    # the typicality slack is a decoder setting; a codebook dump has none
    code, out, err = run_cli(capsys, "codebook", bsc_file, chain_file, "--n", "4",
                             "--epsilon", "0.1", "--out", str(tmp_path / "cb.json"))
    assert code == 1
    assert "--epsilon" in err
    assert out == ""
    assert not (tmp_path / "cb.json").exists()


def test_negative_delta_exits_2(capsys, bsc_file, chain_file, tmp_path):
    # a negative slack has no meaning in the rate conditions
    code, out, err = run_cli(capsys, "codebook", bsc_file, chain_file, "--n", "4",
                             "--delta", "-1", "--out", str(tmp_path / "cb.json"))
    assert code == 2
    assert out == ""
    assert "validation error" in err
    assert not (tmp_path / "cb.json").exists()


@pytest.mark.parametrize("argv", [
    ["region", "{bsc}", "--mode", "secrecy", "--seed", "-1"],
    ["region", "{bsc}", "--mode", "bbc", "--seed", "-1"],
    ["region", "{bsc}", "--mode", "bbc", "--u-size", "0"],
    ["region", "{bsc}", "--mode", "bbc", "--v-size", "0"],
    ["member", "{bsc}", "--tuple", "0,0,0,0", "--seed", "-1"],
    ["simulate", "{bsc}", "{chain}", "--seed", "-1"],
    ["codebook", "{bsc}", "{chain}", "--out", "{tmp}/cb.json", "--seed", "-1"],
])
def test_negative_seed_or_empty_alphabet_exits_2(capsys, bsc_file, chain_file, tmp_path, argv):
    argv = [a.format(bsc=bsc_file, chain=chain_file, tmp=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "validation error" in err
    assert not (tmp_path / "cb.json").exists()


@pytest.mark.parametrize("target", ["missing_directory", "directory"])
@pytest.mark.parametrize("argv", [
    ["region", "{bsc}", "--mode", "bbc", "--weights", "3"],
    ["member", "{bsc}", "--tuple", "0,0,0,0", *FAST],
    ["simulate", "{bsc}", "{chain}", "--n", "4", "--trials", "4", "--equiv", "none"],
    ["codebook", "{bsc}", "{chain}", "--n", "4"],
])
def test_unwritable_out_exits_2(capsys, bsc_file, chain_file, tmp_path, argv, target):
    # the output is computed first; failing to write it is a validation error
    out = tmp_path / "no-such-dir" / "x" if target == "missing_directory" else tmp_path
    argv = [a.format(bsc=bsc_file, chain=chain_file) for a in argv]
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"validation error: cannot write output file {out}")


def test_output_does_not_depend_on_the_hash_seed(bsc_file, chain_file):
    # set and dict iteration order varies with PYTHONHASHSEED across
    # processes, which no in-process test sees
    commands = [
        ["simulate", bsc_file, chain_file, "--n", "4", "--sizes", "1,2,2,2,2", "--trials", "40",
         "--equiv", "mc", "--mc-samples", "200", "--seed", "3"],
        ["member", bsc_file, "--tuple", "0.3,0.1,0.2,0.1", "--restarts", "3", "--iterations", "20"],
    ]
    src = str(Path(bbcsec.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    for argv in commands:
        procs = [subprocess.Popen([sys.executable, "-m", "bbcsec.cli", *argv], stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
                 for seed in ("0", "1")]
        outputs = [proc.communicate(timeout=60) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], outputs
        assert outputs[0][0] == outputs[1][0] != b""


@pytest.mark.parametrize("which", ["channel", "chain"])
def test_deeply_nested_json_exits_2(capsys, bsc_file, tmp_path, which):
    nested = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    if which == "channel":
        path.write_text('{"x_size": 2, "y1_size": 2, "y2_size": 2, "joint": ' + nested + "}")
        argv = ["info", str(path), "--uniform-x"]
    else:
        path.write_text('{"p_u": ' + nested + ', "p_v_given_u": [[1.0]], "p_x_given_v": [[0.5, 0.5]]}')
        argv = ["info", bsc_file, "--chain", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "validation error" in err


class TestCodebook:
    def test_dump_and_rate_report(self, capsys, bsc_file, chain_file, tmp_path):
        out_path = tmp_path / "cb.json"
        code, out, _ = run_cli(
            capsys, "codebook", bsc_file, chain_file,
            "--n", "4", "--sizes", "1,1,1,2,1", "--out", str(out_path),
        )
        assert code == 0
        report = json.loads(out)
        names = {c["name"] for c in report["rate_conditions"]}
        assert names == {"first_layer_node1", "first_layer_node2", "column_index", "row_index"}
        dump = json.loads(out_path.read_text())
        assert dump["params"]["n"] == 4
        # constant first layer is visible in the dump
        assert np.asarray(dump["u_words"]).max() == 0

    def test_seed_repeat_identical_dump(self, capsys, bsc_file, chain_file, tmp_path):
        p1, p2 = tmp_path / "cb1.json", tmp_path / "cb2.json"
        for p in (p1, p2):
            code, _, _ = run_cli(
                capsys, "codebook", bsc_file, chain_file,
                "--n", "6", "--sizes", "1,1,1,4,2", "--seed", "9", "--out", str(p),
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()
