import json
import subprocess
import sys

import numpy as np
import pytest

from uflkit import ptas
from uflkit.cli import _config, build_parser
from uflkit.experiments import blob_instance
from uflkit.geometry import load_points, save_points_text
from uflkit.projection import sample_map


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "uflkit.cli", *args],
                          capture_output=True, text=True)


def test_import_loads_no_scipy():
    # the package runs on numpy alone; importing scipy took most of the CLI's start-up
    res = subprocess.run([sys.executable, "-c", "import sys, uflkit, uflkit.cli; "
                          "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pts.txt"
    res = run_cli("gen", "--kind", "subspace", "--n", "10", "--d", "8",
                  "--intrinsic-dim", "2", "--seed", "4", "--out", str(path))
    assert res.returncode == 0
    return path


@pytest.mark.parametrize("argv", [["solve", "in"], ["reduce", "in", "--out", "o"],
                                  ["partition", "in"], ["experiment", "ptas"]],
                         ids=lambda argv: argv[0])
def test_config_flags_are_the_config_fields(argv):
    args = build_parser().parse_args(argv + ["--eps", "0.3", "--ddim", "1.5",
                                             "--kappa-cap", "2", "--seed", "5"])
    assert _config(args) == ptas.PtasConfig(eps=0.3, ddim=1.5, kappa_cap=2.0, seed=5)
    for flag in ("--c1", "--c2", "--c3", "--c4", "--alpha"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + [flag, "1"])


@pytest.mark.parametrize("argv, message", [
    (["solve", "{data}", "--algo", "ptas", "--eps", "1.5"], "eps must lie in (0, 1)"),
    (["reduce", "{data}", "--m", "0", "--out", "{out}"], "both dimensions must be at least 1"),
    (["gen", "--n", "0", "--out", "{out}"], "need n >= 1"),
], ids=["solve", "reduce", "gen"])
def test_bad_argument_is_an_input_error(dataset, tmp_path, argv, message):
    out = tmp_path / "out.txt"
    res = run_cli(*(a.format(data=dataset, out=out) for a in argv))
    assert res.returncode == 2
    assert res.stderr.startswith("uflkit: error: " + message)
    assert "Traceback" not in res.stderr and not out.exists()


@pytest.mark.parametrize("argv", [["solve", "{missing}/pts.txt"],
                                  ["gen", "--out", "{missing}/dir/x.txt"]],
                         ids=["solve", "gen"])
def test_unusable_file_is_an_input_error(tmp_path, argv):
    res = run_cli(*(a.format(missing=tmp_path / "missing") for a in argv))
    assert res.returncode == 2
    assert res.stderr.startswith("uflkit: error: ") and res.stderr.count("\n") == 1
    assert "No such file or directory" in res.stderr and "Traceback" not in res.stderr


class TestGen:
    def test_writes_loadable_file(self, dataset):
        X = load_points(dataset)
        assert (X.n, X.d) == (10, 8)

    def test_binary_output(self, tmp_path):
        path = tmp_path / "pts.bin"
        res = run_cli("gen", "--n", "6", "--d", "4", "--intrinsic-dim", "2",
                      "--seed", "1", "--binary", "--out", str(path))
        assert res.returncode == 0
        assert path.read_bytes()[:4] == b"UFLP"
        assert load_points(path).n == 6

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run_cli("gen", "--n", "8", "--d", "6", "--intrinsic-dim", "2",
                           "--seed", "33", "--out", str(out)).returncode == 0
        assert a.read_bytes() == b.read_bytes()


class TestSolve:
    def test_approx_csv(self, dataset):
        res = run_cli("solve", str(dataset), "--algo", "approx")
        assert res.returncode == 0
        assert res.stdout.startswith("# facilities")
        assert "point_id,facility_index,distance" in res.stdout

    def test_oracle(self, dataset):
        res = run_cli("solve", str(dataset), "--algo", "oracle")
        assert res.returncode == 0
        assert res.stdout.startswith("opt_continuous,")

    @pytest.mark.parametrize("algo, n, cap", [("oracle", 14, "at most 12"),
                                              ("oracle-discrete", 16, "at most 15")])
    def test_oracle_beyond_its_cap_is_an_input_error(self, tmp_path, algo, n, cap):
        # c12's 14-point clusters file for the continuous oracle
        path = tmp_path / "pts.txt"
        assert run_cli("gen", "--kind", "clusters", "--n", str(n), "--d", "8",
                       "--intrinsic-dim", "2", "--seed", "3", "--out", str(path)).returncode == 0
        res = run_cli("solve", str(path), "--algo", algo)
        assert res.returncode == 2
        assert res.stderr.startswith("uflkit: error: oracle scale exceeded")
        assert cap in res.stderr and "Traceback" not in res.stderr

    def test_ptas_with_trace(self, dataset, tmp_path):
        trace = tmp_path / "trace.jsonl"
        res = run_cli("solve", str(dataset), "--algo", "ptas", "--seed", "5",
                      "--trace", str(trace))
        assert res.returncode == 0
        rec = json.loads(trace.read_text().strip().split("\n")[0])
        assert rec["adopted"] in ("median", "fallback")

    def test_ptas_discrete(self, dataset):
        res = run_cli("solve", str(dataset), "--algo", "ptas-discrete", "--seed", "5")
        assert res.returncode == 0
        assert res.stdout.startswith("facility_id")

    @pytest.mark.parametrize("algo", ["ptas", "ptas-discrete"])
    def test_repeated_row(self, tmp_path, algo):
        path = tmp_path / "pts.txt"
        path.write_text("4 2\n0 0\n0 0\n3 4\n5 5\n")
        res = run_cli("solve", str(path), "--algo", algo)
        assert res.returncode == 0, res.stderr

    def test_solve_deterministic(self, dataset, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("solve", str(dataset), "--algo", "ptas", "--seed", "9",
                           "--out", str(out)).returncode == 0
        assert a.read_bytes() == b.read_bytes()


class TestReduceAndPartition:
    def test_reduce_with_override(self, dataset, tmp_path):
        out = tmp_path / "proj.txt"
        res = run_cli("reduce", str(dataset), "--m", "5", "--seed", "2",
                      "--out", str(out))
        assert res.returncode == 0
        assert load_points(out).d == 5

    def test_reduce_deterministic(self, dataset, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            run_cli("reduce", str(dataset), "--m", "4", "--seed", "6",
                    "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_reduce_applies_the_ptas_map(self, dataset, tmp_path, monkeypatch):
        X = load_points(dataset)
        calls = []

        def recording_sample_map(*args):
            calls.append(args)
            return sample_map(*args)

        monkeypatch.setattr(ptas, "sample_map", recording_sample_map)
        ptas.ptas_euclidean(X, ptas.PtasConfig(seed=7))
        (args,) = calls
        out, expected = tmp_path / "proj.txt", tmp_path / "expected.txt"
        assert run_cli("reduce", str(dataset), "--seed", "7",
                       "--out", str(out)).returncode == 0
        save_points_text(sample_map(*args).embed(X), expected)
        assert out.read_bytes() == expected.read_bytes()
        assert args[1] > X.d and load_points(out).d == X.d

    def test_partition_csv(self, dataset):
        res = run_cli("partition", str(dataset), "--seed", "3")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "part_index,point_id,provenance_cluster,level,is_last"
        assert len(lines) == 11


class TestPartitionMatchesPtas:
    @pytest.fixture(scope="class")
    def blobs(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("blobs") / "blobs.txt"
        save_points_text(blob_instance(4, 25), path)
        return path

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_partition_is_the_one_ptas_solves(self, blobs, tmp_path, seed):
        flags = ["--seed", str(seed), "--eps", "0.3", "--kappa-cap", "4"]
        res = run_cli("partition", str(blobs), *flags)
        assert res.returncode == 0
        rows = [line.split(",") for line in res.stdout.strip().split("\n")[1:]]
        trace = tmp_path / "trace.jsonl"
        assert run_cli("solve", str(blobs), "--algo", "ptas", *flags,
                       "--trace", str(trace)).returncode == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert ({(int(r[0]), int(r[3])) for r in rows}
                == {(r["part"], r["level"]) for r in records})


class TestExperiment:
    def test_dimred_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        res = run_cli("experiment", "dimred", "--n", "6", "--trials", "3",
                      "--seed", "2", "--out", str(out))
        assert res.returncode == 0
        text = out.read_text()
        assert text.startswith("trial,dataset_seed,map_seed,m,")
        assert "# fraction_in_band" in text

    def test_ptas_mode(self, tmp_path):
        out = tmp_path / "rows.csv"
        res = run_cli("experiment", "ptas", "--n", "8", "--trials", "2",
                      "--seed", "2", "--out", str(out))
        assert res.returncode == 0
        assert out.read_text().startswith("trial,dataset_seed,n,cost,oracle,ratio")


class TestVerify:
    def test_passes_and_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("verify", "--trials", "40", "--seed", "3", "--out", str(out))
        assert res.returncode == 0
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        assert any("cutting" in p["name"] for p in report["properties"])

    def test_unchecked_property_is_skipped_not_failed(self, tmp_path):
        # at 30 trials partition_structure draws 4 instances, and none of
        # their random pairs is a good pair in distinct parts
        out = tmp_path / "report.json"
        res = run_cli("verify", "--trials", "30", "--seed", "21", "--out", str(out))
        assert res.returncode == 0
        report = json.loads(out.read_text())
        skipped = [p for p in report["properties"] if p.get("skipped")]
        assert [p["name"] for p in skipped] == ["partition_structure"]
        assert skipped[0]["good_cross_pairs_checked"] == 0 and not skipped[0]["passed"]
        assert report["all_passed"] is True
