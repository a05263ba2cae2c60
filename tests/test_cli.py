import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import podag.cli
import podag.evaluation
from podag import Dataset, Pdag, apply_meek_rules
from podag.cli import EXIT_LABELS, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, main

from helpers import dependent_four_columns

README = Path(__file__).resolve().parents[1] / "README.md"


def run(args):
    return main([str(a) for a in args])


def simulate_into(tmp_path, seed=7, nodes=10, layers=2, n=200, epn=2.0):
    out = tmp_path / f"sim{seed}"
    code = run(
        ["simulate", "--nodes", nodes, "--layers", layers, "--epn", epn,
         "--n", n, "--seed", seed, "-o", out]
    )
    assert code == EXIT_OK
    return out


class TestSimulate:
    def test_writes_four_files(self, tmp_path):
        out = simulate_into(tmp_path)
        for name in ("dataset.csv", "graph.tsv", "sem.json", "layering.txt"):
            assert (out / name).exists()

    def test_byte_identical_reruns(self, tmp_path):
        a = simulate_into(tmp_path / "a")
        b = simulate_into(tmp_path / "b")
        for name in ("dataset.csv", "graph.tsv", "sem.json", "layering.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_epn_is_usage_error(self, tmp_path):
        code = run(
            ["simulate", "--nodes", 5, "--epn", -1, "--n", 10, "-o", tmp_path / "x"]
        )
        assert code == EXIT_USAGE

    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["simulate", "--bogus", 3])
        assert err.value.code == 2


class TestLearn:
    def test_pipeline_round_trip(self, tmp_path):
        sim = simulate_into(tmp_path)
        out = tmp_path / "fit"
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "--algorithm", "podag", "--within-layers", "--max-sepset-size", 2,
             "--on-conflict", "ignore", "-o", out]
        )
        assert code == EXIT_OK
        doc = json.loads((out / "result.json").read_text())
        assert doc["diagnostics"]["elapsed_ms"] == 0  # deterministic by default
        assert (out / "edges.tsv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        sim = simulate_into(tmp_path)
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            code = run(
                ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
                 "--algorithm", "podag", "--max-sepset-size", 2, "--seed", 0,
                 "--threads", 1, "-o", out]
            )
            assert code == EXIT_OK
            outs.append(out)
        for name in ("result.json", "edges.tsv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_every_algorithm_runs(self, tmp_path):
        sim = simulate_into(tmp_path, nodes=8, n=300)
        for algo in ("podag", "pc", "pc+", "h0", "h-minus-j"):
            out = tmp_path / f"algo-{algo}"
            # h0 and h-minus-j orient nothing, so --on-conflict is theirs to reject
            policy = ["--on-conflict", "ignore"] if algo in ("podag", "pc", "pc+") else []
            code = run(
                ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
                 "--algorithm", algo, *policy, "-o", out]
            )
            assert code == EXIT_OK, algo
            assert (out / "result.json").exists()

    def test_label_mismatch_exits_three(self, tmp_path):
        sim = simulate_into(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text("V0,V1\nWRONG,V3\n")
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", bad, "-o", tmp_path / "o"]
        )
        assert code == EXIT_LABELS

    def test_repeated_data_label_exits_three_naming_it(self, tmp_path, capsys):
        data = tmp_path / "repeated.csv"
        data.write_text("A,B,A\n1.0,2.0,3.0\n2.0,3.0,1.0\n3.0,1.0,2.0\n4.0,4.0,5.0\n5.0,6.0,4.0\n")
        layering = tmp_path / "lay.txt"
        layering.write_text("A\nB\n")
        code = run(["learn", "--data", data, "--layering", layering, "-o", tmp_path / "o"])
        assert code == EXIT_LABELS
        err = capsys.readouterr().err
        assert "duplicate column labels: ['A']" in err and "layering" not in err

    @pytest.mark.parametrize("flag", ["--data", "--layering"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_input_exits_two(self, tmp_path, capsys, flag, kind):
        sim = simulate_into(tmp_path)
        capsys.readouterr()
        bad = tmp_path / "nope.csv" if kind == "missing" else tmp_path
        paths = {"--data": sim / "dataset.csv", "--layering": sim / "layering.txt", flag: bad}
        code = run(["learn", *(x for item in paths.items() for x in item), "-o", tmp_path / "o"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        reason = "No such file or directory" if kind == "missing" else "Is a directory"
        assert err.strip() == f"error: cannot read {bad}: {reason}"

    def test_degenerate_data_exits_four(self, tmp_path):
        data = tmp_path / "flat.csv"
        data.write_text("a,b\n1.0,5.0\n2.0,5.0\n3.0,5.0\n4.0,5.0\n")
        layering = tmp_path / "lay.txt"
        layering.write_text("a\nb\n")
        code = run(
            ["learn", "--data", data, "--layering", layering, "-o", tmp_path / "o2"]
        )
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("backend", ["sis", "lasso"])
    def test_threshold_with_other_backend_is_usage_error(self, tmp_path, capsys, backend):
        sim = simulate_into(tmp_path)
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "--backend", backend, "--threshold", 0.1, "-o", tmp_path / "o"]
        )
        assert code == EXIT_USAGE
        assert "--threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["pc", "pc+", "h0"])
    def test_threshold_with_another_algorithm_is_usage_error(self, tmp_path, capsys, algorithm):
        sim = simulate_into(tmp_path)
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "--algorithm", algorithm, "--threshold", 0.1, "-o", tmp_path / "o"]
        )
        assert code == EXIT_USAGE
        assert f"--threshold applies to podag's pcor screening only, not {algorithm}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("algorithm", ["pc", "pc+", "h0", "h-minus-j"])
    @pytest.mark.parametrize(
        "flag", [["--backend", "lasso"], ["--screen-alpha", "0.9"], ["--within-layers"], ["--screen-only"]]
    )
    def test_podag_flag_with_another_algorithm_is_usage_error(self, tmp_path, capsys, algorithm, flag):
        sim = simulate_into(tmp_path, nodes=8)
        out = tmp_path / "o"
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "--algorithm", algorithm, *flag, "-o", out]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{flag[0]} applies to podag only, not {algorithm}" in err
        assert not (out / "result.json").exists()

    def test_podag_flags_at_their_defaults_pass_with_another_algorithm(self, tmp_path):
        sim = simulate_into(tmp_path, nodes=8)
        args = ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt", "--algorithm", "pc"]
        assert run(args + ["-o", tmp_path / "plain"]) == EXIT_OK
        assert run(args + ["--backend", "pcor", "--screen-alpha", "0.5", "-o", tmp_path / "flagged"]) == EXIT_OK
        assert (tmp_path / "plain" / "result.json").read_text() == (tmp_path / "flagged" / "result.json").read_text()

    @pytest.mark.parametrize("algorithm", ["h0", "h-minus-j"])
    @pytest.mark.parametrize("flag", [["--stable"], ["--max-sepset-size", "1"], ["--on-conflict", "ignore"]])
    def test_search_flag_with_a_naive_estimator_is_usage_error(self, tmp_path, capsys, algorithm, flag):
        sim = simulate_into(tmp_path, nodes=8)
        out = tmp_path / "o"
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "--algorithm", algorithm, *flag, "-o", out]
        )
        assert code == EXIT_USAGE
        assert f"{flag[0]} applies to podag, pc and pc+ only, not {algorithm}" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    def test_search_flags_at_their_defaults_pass_with_a_naive_estimator(self, tmp_path):
        sim = simulate_into(tmp_path, nodes=8)
        args = ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt", "--algorithm", "h0"]
        assert run(args + ["-o", tmp_path / "plain"]) == EXIT_OK
        assert run(args + ["--on-conflict", "error", "-o", tmp_path / "flagged"]) == EXIT_OK
        assert (tmp_path / "plain" / "result.json").read_text() == (tmp_path / "flagged" / "result.json").read_text()

    @pytest.mark.parametrize(
        "algorithm, name",
        [("podag", "podag"), ("pc", "pc"), ("pc+", "pc_plus"), ("h0", "h0"), ("h-minus-j", "h_minus_j")],
    )
    def test_each_algorithm_is_one_fit_call(self, tmp_path, monkeypatch, algorithm, name):
        sim = simulate_into(tmp_path, nodes=8)
        calls = []
        fit = podag.evaluation._fit

        def recorded(fitted, *args, **kwargs):
            calls.append(fitted)
            return fit(fitted, *args, **kwargs)

        monkeypatch.setattr(podag.cli, "_fit", recorded)
        policy = ["--on-conflict", "ignore"] if algorithm in ("podag", "pc", "pc+") else []
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "--algorithm", algorithm, *policy, "-o", tmp_path / "o"]
        )
        assert code == EXIT_OK
        assert calls == [name]

    @pytest.mark.parametrize("algorithm", ["podag", "h0", "h-minus-j"])
    def test_orient_by_ordering_with_another_algorithm_is_usage_error(self, tmp_path, capsys, algorithm):
        sim = simulate_into(tmp_path, nodes=8)
        out = tmp_path / "o"
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "--algorithm", algorithm, "--orient-by-ordering", "-o", out]
        )
        assert code == EXIT_USAGE
        assert f"--orient-by-ordering applies to pc and pc+ only, not {algorithm}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--backend", "sis"], "the pcor backend only, not sis"),
            (["--backend", "lasso"], "the pcor backend only, not lasso"),
            (["--threshold", "0.1"], "alpha screening only, not --threshold"),
        ],
    )
    def test_screen_alpha_that_no_screen_reads_is_usage_error(self, tmp_path, capsys, flag, message):
        sim = simulate_into(tmp_path, nodes=8)
        out = tmp_path / "o"
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "--screen-alpha", "0.3", *flag, "-o", out]
        )
        assert code == EXIT_USAGE
        assert f"--screen-alpha applies to {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threshold", [-1, 2, "nan"])
    def test_threshold_outside_the_unit_interval_is_usage_error(self, tmp_path, capsys, threshold):
        sim = simulate_into(tmp_path)
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "--threshold", threshold, "-o", tmp_path / "o"]
        )
        assert code == EXIT_USAGE
        assert "threshold must be in [0, 1)" in capsys.readouterr().err

    def test_more_nodes_than_samples_exits_four(self, tmp_path, capsys):
        sim = simulate_into(tmp_path, nodes=40, layers=2, n=20)
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "-o", tmp_path / "o"]
        )
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "--backend lasso" in err and "--backend sis" in err

    def test_collinear_columns_exit_four_with_one_line(self, tmp_path, capsys):
        sim = simulate_into(tmp_path, nodes=30, layers=3, n=500)
        data = Dataset.from_csv(sim / "dataset.csv")
        copied = data.data.copy()
        copied[:, 5] = copied[:, 4]
        (sim / "dataset.csv").write_text(Dataset(copied, data.labels).to_csv())
        capsys.readouterr()
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "-o", tmp_path / "o"]
        )
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"columns {data.labels[4]} and {data.labels[5]} are collinear" in err

    @pytest.mark.parametrize("backend", ["pcor", "sis", "lasso"])
    def test_screen_only_on_collinear_columns_exits_four(self, tmp_path, capsys, backend):
        sim = simulate_into(tmp_path, nodes=30, layers=3, n=500)
        data = Dataset.from_csv(sim / "dataset.csv")
        copied = data.data.copy()
        copied[:, 5] = copied[:, 4]
        (sim / "dataset.csv").write_text(Dataset(copied, data.labels).to_csv())
        capsys.readouterr()
        out = tmp_path / "o"
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "--screen-only", "--backend", backend, "-o", out]
        )
        assert code == EXIT_NUMERIC
        assert f"columns {data.labels[4]} and {data.labels[5]} are collinear" in capsys.readouterr().err
        assert not (out / "screen.json").exists()

    @pytest.mark.parametrize("algorithm", ["podag", "pc"])
    def test_dependent_columns_exit_four_with_one_line(self, tmp_path, capsys, algorithm):
        sim = simulate_into(tmp_path, nodes=30, layers=3, n=500)
        data = Dataset.from_csv(sim / "dataset.csv")
        summed = data.data.copy()
        summed[:, 5] = summed[:, 3] + summed[:, 4]
        (sim / "dataset.csv").write_text(Dataset(summed, data.labels).to_csv())
        capsys.readouterr()
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "--algorithm", algorithm, "-o", tmp_path / "o"]
        )
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "columns V3, V4 and V5 are linearly dependent" in err

    def test_dependent_set_in_a_screening_block_exits_four_with_labels(self, tmp_path, capsys):
        x = np.random.default_rng(7).normal(size=(200, 4))
        x[:, 2] = x[:, 0] + x[:, 1]
        (tmp_path / "data.csv").write_text(Dataset(x, ["a", "b", "c", "d"]).to_csv())
        (tmp_path / "layering.txt").write_text("a, b\nc, d\n")
        capsys.readouterr()
        code = run(
            ["learn", "--data", tmp_path / "data.csv", "--layering", tmp_path / "layering.txt",
             "-o", tmp_path / "o"]
        )
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "columns a, b and c are linearly dependent" in err

    @pytest.mark.parametrize("algorithm", ["h0", "h-minus-j"])
    def test_dependent_set_in_a_naive_estimator_exits_four_with_labels(self, tmp_path, capsys, algorithm):
        data, _ = dependent_four_columns()
        (tmp_path / "data.csv").write_text(data.to_csv())
        (tmp_path / "layering.txt").write_text("V0, V1\nV2, V3\n")
        capsys.readouterr()
        code = run(
            ["learn", "--algorithm", algorithm, "--data", tmp_path / "data.csv",
             "--layering", tmp_path / "layering.txt", "-o", tmp_path / "o"]
        )
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "columns V0, V1 and V2 are linearly dependent" in err

    def test_orientation_conflict_names_labels_and_points_to_ignore(self, tmp_path, capsys):
        sim = simulate_into(tmp_path, seed=88, nodes=30, layers=3, n=500)
        args = ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
                "--within-layers"]
        capsys.readouterr()
        assert run(args + ["-o", tmp_path / "o"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        labels = set(Dataset.from_csv(sim / "dataset.csv").labels)
        pair, triple = re.search(r"edge \((.+?)\) \(triple \((.+?)\)\)", err).groups()
        assert set(pair.split(", ")) <= labels and set(triple.split(", ")) <= labels
        assert "rerun with --on-conflict ignore" in err
        assert run(args + ["--on-conflict", "ignore", "-o", tmp_path / "o2"]) == EXIT_OK

    @pytest.mark.parametrize("algorithm", ["pc", "pc+"])
    @pytest.mark.parametrize("flag", [["--stable"], ["--max-sepset-size", 0]])
    def test_search_flags_reach_pc(self, tmp_path, algorithm, flag):
        sim = simulate_into(tmp_path, seed=88, nodes=30, layers=3, n=500)
        args = ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
                "--algorithm", algorithm, "--on-conflict", "ignore"]
        assert run(args + ["-o", tmp_path / "plain"]) == EXIT_OK
        assert run(args + flag + ["-o", tmp_path / "flag"]) == EXIT_OK
        plain, flagged = (
            json.loads((tmp_path / out / "result.json").read_text())["diagnostics"]["ci_tests"]
            for out in ("plain", "flag")
        )
        # stable PC defers removals (more tests); a cap of 0 stops after level 0
        assert flagged > plain if flag == ["--stable"] else flagged < plain

    @pytest.mark.parametrize("algorithm", ["pc", "pc+"])
    def test_negative_cap_on_pc_exits_two(self, tmp_path, capsys, algorithm):
        sim = simulate_into(tmp_path, nodes=8)
        out = tmp_path / "neg"
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "--algorithm", algorithm, "--max-sepset-size", -1, "-o", out]
        )
        assert code == EXIT_USAGE
        assert "max_sepset_size must be nonnegative" in capsys.readouterr().err
        assert not (out / "edges.tsv").exists()

    def test_screen_only_mode(self, tmp_path):
        sim = simulate_into(tmp_path)
        out = tmp_path / "screen"
        code = run(
            ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "--screen-only", "-o", out]
        )
        assert code == EXIT_OK
        doc = json.loads((out / "screen.json").read_text())
        assert all(set(v) == {"s0", "s1"} for v in doc.values())

    def test_orient_by_ordering(self, tmp_path):
        # on seed 14, orienting pc's output by the ordering alone leaves
        # edges that Meek's rules orient
        for seed in (7, 14):
            sim = simulate_into(tmp_path, seed=seed, nodes=8, n=400)
            out = tmp_path / f"pcorient{seed}"
            code = run(
                ["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
                 "--algorithm", "pc", "--orient-by-ordering", "--on-conflict", "ignore",
                 "-o", out]
            )
            assert code == EXIT_OK
            doc = json.loads((out / "result.json").read_text())
            layering = (sim / "layering.txt").read_text()
            first_layer = set(layering.splitlines()[0].split(","))
            for a, b in doc["undirected"]:
                # any surviving undirected pair must be within one layer
                assert (a in first_layer) == (b in first_layer)
            # the written graph is closed under Meek's rules
            labels = Dataset.from_csv(sim / "dataset.csv").labels
            index = {lab: i for i, lab in enumerate(labels)}
            written = Pdag(
                len(index),
                [(index[a], index[b]) for a, b in doc["directed"]],
                [(index[a], index[b]) for a, b in doc["undirected"]],
            )
            assert apply_meek_rules(written) == written


class TestBenchmark:
    def args(self, tmp_path, tag):
        return [
            "benchmark", "--nodes", "8", "--layers", "2", "--n", "150",
            "--replicates", 2, "--epn", 1.5, "--max-sepset-size", 2,
            "--seed", 3, "--threads", 1, "-o", tmp_path / f"bench-{tag}.csv",
        ]

    def test_runs_and_is_deterministic(self, tmp_path):
        assert run(self.args(tmp_path, "a")) == EXIT_OK
        assert run(self.args(tmp_path, "b")) == EXIT_OK
        a = (tmp_path / "bench-a.csv").read_bytes()
        b = (tmp_path / "bench-b.csv").read_bytes()
        assert a == b
        header = a.decode().splitlines()[0]
        assert header.startswith("n_nodes,layers,n,algorithm")

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"n_nodes": [8], "layers": [2], "n": [150], "replicates": 1,'
            ' "seed": 4, "max_sepset_size": 2, "expected_edges_per_node": 1.5}'
        )
        out = tmp_path / "bench.csv"
        code = run(["benchmark", "--spec", spec, "--threads", 1, "-o", out])
        assert code == EXIT_OK
        assert out.exists()
        spec.write_text('{"n_nodes": [8], "replicate": 1}')
        assert run(["benchmark", "--spec", spec, "-o", out]) == EXIT_USAGE

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_spec_exits_two(self, tmp_path, capsys, kind):
        spec = tmp_path / "nope.json" if kind == "missing" else tmp_path
        out = tmp_path / "bench.csv"
        assert run(["benchmark", "--spec", spec, "-o", out]) == EXIT_USAGE
        reason = "No such file or directory" if kind == "missing" else "Is a directory"
        assert capsys.readouterr().err.strip() == f"error: cannot read {spec}: {reason}"
        assert not out.exists()

    def test_unknown_names_exit_two_before_any_fit(self, tmp_path, monkeypatch, capsys):
        grids = []
        monkeypatch.setattr(podag.cli, "run_benchmark", lambda *args, **kwargs: grids.append(args))
        out = tmp_path / "bench.csv"
        assert run(["benchmark", "--algorithms", "pc,pcplus", "-o", out]) == EXIT_USAGE
        assert "unknown algorithm 'pcplus'; choose from pc, pc_plus, podag" in capsys.readouterr().err
        spec = tmp_path / "spec.json"
        spec.write_text('{"scopes": ["cross_only", "skel"]}')
        assert run(["benchmark", "--spec", spec, "-o", out]) == EXIT_USAGE
        assert "unknown scope 'skel'" in capsys.readouterr().err
        assert grids == [] and not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("[1, 2]", "error: a benchmark spec must be a JSON object"),
            ('{"replicates": "3"}', "error: benchmark spec key 'replicates' must be an integer, got '3'"),
            ('{"max_sepset_size": "2"}', "error: benchmark spec key 'max_sepset_size' must be an integer or null, got '2'"),
            (
                '{"n_nodes": ["8"], "replicates": 1, "algorithms": ["pc"]}',
                "error: benchmark spec key 'n_nodes' must hold integers, got '8'",
            ),
            (
                '{"weight_range": ["a", 1], "n_nodes": [8], "replicates": 1, "algorithms": ["pc"]}',
                "error: benchmark spec key 'weight_range' must hold numbers, got 'a'",
            ),
        ],
        ids=["array", "replicates", "max_sepset_size", "n_nodes_element", "weight_range_element"],
    )
    def test_mistyped_spec_exits_two_naming_the_key(self, tmp_path, monkeypatch, capsys, doc, message):
        grids = []
        monkeypatch.setattr(podag.cli, "run_benchmark", lambda *args, **kwargs: grids.append(args))
        spec = tmp_path / "spec.json"
        spec.write_text(doc)
        out = tmp_path / "bench.csv"
        assert run(["benchmark", "--spec", spec, "-o", out]) == EXIT_USAGE
        assert capsys.readouterr().err.strip() == message
        assert grids == [] and not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-sepset-size", -1, "max_sepset_size must be nonnegative"),
            ("--podag-alpha", 1.5, "alpha must be in (0, 1)"),
            ("--alpha", 0, "alpha must be in (0, 1)"),
            ("--screen-alpha", 1, "screen_alpha must be in (0, 1)"),
        ],
    )
    def test_bad_levels_and_cap_exit_two_before_any_fit(
        self, tmp_path, monkeypatch, capsys, flag, value, message
    ):
        grids = []
        monkeypatch.setattr(podag.cli, "run_benchmark", lambda *args, **kwargs: grids.append(args))
        out = tmp_path / "bench.csv"
        assert run(["benchmark", "--algorithms", "pc,pc_plus", flag, value, "-o", out]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert grids == [] and not out.exists()


@pytest.mark.parametrize("threads", [0, -1])
@pytest.mark.parametrize("command", ["benchmark", "faithfulness"])
def test_threads_below_one_exit_two_naming_the_flag(tmp_path, monkeypatch, capsys, command, threads):
    pools = []
    monkeypatch.setattr(podag.evaluation, "ThreadPoolExecutor", lambda *args, **kwargs: pools.append(args))
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as err:
        run([command, "--threads", threads, "-o", out])
    assert err.value.code == EXIT_USAGE
    assert f"argument --threads: must be at least 1, got {threads}" in capsys.readouterr().err
    assert pools == [] and not out.exists()


class TestFaithfulness:
    def test_runs_and_is_deterministic(self, tmp_path):
        args = [
            "faithfulness", "--replicates", 3, "--nodes", 8, "--epn", 1.5,
            "--seed", 6, "--threads", 1,
        ]
        assert run(args + ["-o", tmp_path / "f1.csv"]) == EXIT_OK
        assert run(args + ["-o", tmp_path / "f2.csv"]) == EXIT_OK
        assert (tmp_path / "f1.csv").read_bytes() == (tmp_path / "f2.csv").read_bytes()
        lines = (tmp_path / "f1.csv").read_text().strip().splitlines()
        assert len(lines) == 10  # header + 3 replicates x 3 algorithms

    @pytest.mark.parametrize("replicates", [0, -1])
    def test_replicates_below_one_exit_two(self, tmp_path, capsys, replicates):
        out = tmp_path / "f.csv"
        assert run(["faithfulness", "--replicates", replicates, "-o", out]) == EXIT_USAGE
        assert capsys.readouterr().err.strip() == "error: replicates must be at least 1"
        assert not out.exists()


def readme_commands():
    """Each ``podag`` command of README's command-line block, continuations joined."""
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [cmd for cmd in block.replace("\\\n", " ").splitlines() if cmd.startswith("podag ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) == 4
    parser = build_parser()
    for cmd in commands:
        args = parser.parse_args(shlex.split(cmd)[1:])
        assert args.command == cmd.split()[1]
