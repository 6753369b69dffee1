import json
import subprocess
import sys

import numpy as np
import pytest

from uflkit import ptas
from uflkit.experiments import blob_instance
from uflkit.geometry import load_points, save_points_text
from uflkit.projection import sample_map


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "uflkit.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pts.txt"
    res = run_cli("gen", "--kind", "subspace", "--n", "10", "--d", "8",
                  "--intrinsic-dim", "2", "--seed", "4", "--out", str(path))
    assert res.returncode == 0
    return path


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
        save_points_text(sample_map(*args).apply(X), expected)
        assert out.read_bytes() == expected.read_bytes()

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
