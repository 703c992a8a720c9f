import dataclasses
import json
import os
import subprocess
import sys

import pytest

import hypchrom
from hypchrom.augment import PHASE_LAYERS, PhaseReport
from hypchrom.bundle import read_bundle, write_bundle
from hypchrom.cli import main
from hypchrom.coloring import AdjacencyGraph, SearchStats, moser_spindle, verify_coloring
from hypchrom.dimacs import emit_dimacs


@pytest.fixture()
def seed_bundle(tmp_path):
    path = tmp_path / "g9.bundle"
    assert main(["build-g9", "--out", str(path)]) == 0
    return path


class TestCli:
    def test_build_certify(self, seed_bundle, capsys):
        assert main(["certify", "--in", str(seed_bundle)]) == 0
        out = capsys.readouterr().out
        assert "edges checked: 17" in out
        assert "failures: 0" in out

    def test_certify_catches_tampering(self, seed_bundle, capsys):
        text = seed_bundle.read_text()
        lines = text.splitlines()
        lines = [l.replace("edges 17", "edges 18") for l in lines]
        lines.append("e 2 7")
        seed_bundle.write_text("\n".join(lines) + "\n")
        assert main(["certify", "--in", str(seed_bundle)]) == 1

    def test_certify_reports_vertex_outside_disk(self, seed_bundle, capsys):
        lines = seed_bundle.read_text().replace("vertices 9\n", "vertices 10\n").splitlines()
        lines.append("v 10 0/1 0/1 0/1 5/1 0/1 0/1 0/1 0/1 seed")
        seed_bundle.write_text("\n".join(lines) + "\n")
        assert main(["certify", "--in", str(seed_bundle)]) == 1
        out = capsys.readouterr().out
        assert "failures: 1\n  disk failure at vertex (10)\n" in out
        assert main(["certify", "--in", str(seed_bundle), "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["failures"] == [["disk", 10]]
        # a verified load refuses the bundle
        assert main(["color", "--in", str(seed_bundle), "--k", "4"]) == 1
        assert "vertex 10 is not inside the unit disk" in capsys.readouterr().err

    def test_color_seed_graph(self, seed_bundle, capsys):
        assert main(["color", "--in", str(seed_bundle), "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "verdict: SAT" in out
        assert main(["color", "--in", str(seed_bundle), "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "verdict: UNSAT" in out

    def test_color_witness_file(self, seed_bundle, tmp_path, capsys):
        witness = tmp_path / "w.txt"
        assert main([
            "color", "--in", str(seed_bundle), "--k", "4",
            "--witness-out", str(witness),
        ]) == 0
        assert len(witness.read_text().split()) == 9

    def test_prefix_search_finds_spindle(self, seed_bundle, capsys):
        # the first seven vertices are the double-rhombus, which needs four
        # colors, so the minimal non-3-colorable prefix is 7
        assert main(["prefix-search", "--in", str(seed_bundle), "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "prefix: 7" in out

    @pytest.mark.parametrize("k", ["0", "-1", "33"])
    def test_prefix_search_bad_k_usage_error(self, seed_bundle, k):
        assert main(["prefix-search", "--in", str(seed_bundle), "--k", k]) == 2

    def test_color_stats_line_counts_conflicts(self, seed_bundle, capsys):
        assert main(["color", "--in", str(seed_bundle), "--k", "3"]) == 0
        stats = [l for l in capsys.readouterr().out.splitlines() if l.startswith("stats:")]
        assert len(stats) == 1
        assert " conflicts=" in stats[0]
        assert " backtracks=" in stats[0]
        # every seed vertex has at least three neighbours, so its 3-core is
        # the whole graph
        assert " core=9 " in stats[0]

    def test_color_json(self, seed_bundle, tmp_path, capsys):
        spindle = tmp_path / "spindle.col"
        emit_dimacs(moser_spindle(), str(spindle))
        fields = {f.name for f in dataclasses.fields(SearchStats)}
        for path, k, verdict, core in ((seed_bundle, 4, "SAT", 0), (spindle, 3, "UNSAT", 7)):
            assert main(["color", "--in", str(path), "--k", str(k), "--json"]) == 0
            record = json.loads(capsys.readouterr().out)
            assert set(record) == {"verdict", "k"} | fields
            assert (record["verdict"], record["k"], record["core_order"]) == (verdict, k, core)

    def test_certify_json(self, seed_bundle, capsys):
        assert main(["certify", "--in", str(seed_bundle), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record) == {
            "ok", "edges_checked", "nonedges_checked", "failures",
            "load_elapsed", "certify_elapsed",
        }
        assert (record["ok"], record["edges_checked"], record["nonedges_checked"]) == (
            True, 17, 19,
        )
        assert record["failures"] == []
        assert record["load_elapsed"] >= 0 and record["certify_elapsed"] >= 0
        # a recorded non-edge {2,7} and a dropped edge {1,2}, 1-based
        lines = seed_bundle.read_text().splitlines()
        lines = [l for l in lines if l != "e 1 2"] + ["e 2 7"]
        seed_bundle.write_text("\n".join(lines) + "\n")
        assert main(["certify", "--in", str(seed_bundle), "--json"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["ok"] is False
        assert record["failures"] == [["nonedge", 1, 2], ["edge", 2, 7]]

    def test_prefix_search_json(self, seed_bundle, capsys):
        for k, prefix in ((3, 7), (4, None)):
            assert main(["prefix-search", "--in", str(seed_bundle), "--k", str(k), "--json"]) == 0
            record = json.loads(capsys.readouterr().out)
            assert set(record) == {"k", "prefix", "elapsed"}
            assert (record["k"], record["prefix"]) == (k, prefix)
            assert record["elapsed"] >= 0

    def test_stats_json(self, seed_bundle, tmp_path, capsys):
        grown = tmp_path / "g28.bundle"
        assert main([
            "augment", "--in", str(seed_bundle), "--out", str(grown), "--phases", "1",
        ]) == 0
        capsys.readouterr()
        g = read_bundle(str(grown))
        degrees = AdjacencyGraph.from_graph(g).neighbors
        assert main(["stats", "--in", str(grown), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == {
            "order": 28,
            "size": 61,
            "degree_min": min(map(len, degrees)),
            "degree_max": max(map(len, degrees)),
            "vertices_per_phase": {"0": 9, "1": 19},
        }

    def test_prefix_search_on_colorable_graph(self, seed_bundle, capsys):
        assert main(["prefix-search", "--in", str(seed_bundle), "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "4-colorable" in out

    def test_export_formats(self, seed_bundle, tmp_path, capsys):
        dimacs = tmp_path / "g9.col"
        svg = tmp_path / "g9.svg"
        copy = tmp_path / "copy.bundle"
        assert main([
            "export", "--in", str(seed_bundle),
            "--dimacs", str(dimacs), "--svg", str(svg), "--bundle", str(copy),
        ]) == 0
        assert dimacs.read_text().startswith("p edge 9 17")
        assert "<svg" in svg.read_text()
        assert copy.read_text() == seed_bundle.read_text()

    def test_unverified_svg_export_refuses_vertex_outside_disk(
        self, seed_bundle, tmp_path, capsys
    ):
        lines = seed_bundle.read_text().replace("vertices 9\n", "vertices 10\n").splitlines()
        lines.append("v 10 0/1 0/1 0/1 5/1 0/1 0/1 0/1 0/1 seed")
        seed_bundle.write_text("\n".join(lines) + "\n")
        svg = tmp_path / "g10.svg"
        argv = ["export", "--in", str(seed_bundle), "--no-verify", "--svg", str(svg)]
        # an integrity failure, as the verified export reports it, not a usage error
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "integrity failure: vertex 10 is not inside the unit disk" in err
        assert not svg.exists()

    def test_export_requires_target(self, seed_bundle):
        assert main(["export", "--in", str(seed_bundle)]) == 2

    def test_color_accepts_dimacs_input(self, seed_bundle, tmp_path, capsys):
        dimacs = tmp_path / "g9.col"
        assert main(["export", "--in", str(seed_bundle), "--dimacs", str(dimacs)]) == 0
        capsys.readouterr()
        assert main(["color", "--in", str(dimacs), "--k", "4"]) == 0
        assert "verdict: SAT" in capsys.readouterr().out

    def test_stats(self, seed_bundle, capsys):
        assert main(["stats", "--in", str(seed_bundle)]) == 0
        out = capsys.readouterr().out
        assert "order: 9" in out
        assert "seed: 9 vertices" in out

    def test_augment_one_phase(self, seed_bundle, tmp_path, capsys):
        out_bundle = tmp_path / "g28.bundle"
        assert main([
            "augment", "--in", str(seed_bundle), "--out", str(out_bundle),
            "--phases", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "order 28, size 61" in out
        assert main(["certify", "--in", str(out_bundle)]) == 0

    def test_augment_unfiltered_selection(self, seed_bundle, tmp_path, capsys):
        out_bundle = tmp_path / "g31.bundle"
        assert main([
            "augment", "--in", str(seed_bundle), "--out", str(out_bundle),
            "--phases", "1", "--no-reference-selection",
        ]) == 0
        assert "order 31, size 67" in capsys.readouterr().out

    def test_certify_checks_every_pair(self, pipeline, tmp_path, capsys):
        path = tmp_path / "g226.bundle"
        write_bundle(pipeline[4], str(path))
        assert main(["certify", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert "edges checked: 786, non-edges checked: 24639, failures: 0" in out
        with pytest.raises(SystemExit) as err:
            main(["certify", "--in", str(path), "--exhaustive-limit", "119"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--phases", "-5"],
        ["--phases", "1", "--denom-bound", "0"],
        ["--phases", "0", "--min-neighbors", "2,3"],
    ])
    def test_augment_rejects_bad_phase_or_bound_flags(self, seed_bundle, tmp_path, flags):
        out = tmp_path / "grown.bundle"
        assert main(["augment", "--in", str(seed_bundle), "--out", str(out), *flags]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("schedule, position, entry", [
        ("3,3,3,3,1", 5, "'1'"),
        ("2,x,3", 2, "'x'"),
        ("2,,3", 2, "''"),
        ("2.5", 1, "'2.5'"),
        ("3,0", 2, "'0'"),
    ])
    def test_augment_rejects_bad_min_neighbors_before_any_work(
        self, tmp_path, capsys, schedule, position, entry
    ):
        # the input does not exist: the schedule is refused before it is read
        out = tmp_path / "grown.bundle"
        argv = ["augment", "--in", str(tmp_path / "missing.bundle"), "--out", str(out)]
        assert main([*argv, "--min-neighbors", schedule]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --min-neighbors entry {position} is {entry}; "
            "each entry must be an integer of at least 2\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_augment_rejects_empty_min_neighbors_before_any_work(self, tmp_path, capsys):
        # an empty list is a given list, not the default schedule
        out = tmp_path / "grown.bundle"
        argv = ["augment", "--in", str(tmp_path / "missing.bundle"), "--out", str(out)]
        assert main([*argv, "--min-neighbors", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --min-neighbors entry 1 is ''; "
            "each entry must be an integer of at least 2\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_malformed_dimacs_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.col"
        path.write_text("p edge 3 1\ne 1 x\n")
        assert main(["color", "--in", str(path), "--k", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 2: 'x' is not an integer\n"
        assert captured.out == ""

    def test_missing_file_usage_error(self, tmp_path):
        assert main(["certify", "--in", str(tmp_path / "nope.bundle")]) == 2

    @pytest.mark.parametrize("argv", [["stats"], ["color", "--k", "3"]])
    def test_unreadable_input_usage_error(self, tmp_path, argv):
        # a directory raises IsADirectoryError, an OSError like a missing file
        src = os.path.dirname(os.path.dirname(hypchrom.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "hypchrom.cli", *argv, "--in", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
        assert done.stdout == ""

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["color", "--k", "4"])
        assert err.value.code == 2

    def test_color_prefix_flag(self, seed_bundle, capsys):
        assert main([
            "color", "--in", str(seed_bundle), "--k", "3", "--prefix", "6",
        ]) == 0
        assert "verdict: SAT" in capsys.readouterr().out

    def test_color_degeneracy_order(self, seed_bundle, capsys):
        # the option is gone: the plain search finds the same witnesses
        with pytest.raises(SystemExit) as err:
            main(["color", "--in", str(seed_bundle), "--k", "4", "--degeneracy-order"])
        assert err.value.code == 2
        capsys.readouterr()
        assert main(["color", "--in", str(seed_bundle), "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "verdict: SAT" in out
        stats = next(line for line in out.splitlines() if line.startswith("stats:"))
        for field in ("nodes=", "max-depth=", "forced="):
            assert field in stats
        witness = next(line for line in out.splitlines() if line.startswith("witness:"))
        coloring = [int(tok) - 1 for tok in witness.split()[1:]]
        g = AdjacencyGraph.from_graph(read_bundle(str(seed_bundle)))
        assert verify_coloring(g, coloring)

    def test_degeneracy_order_excludes_no_symmetry_break(self, seed_bundle, capsys):
        # --degeneracy-order is not an option, with or without --no-symmetry-break
        with pytest.raises(SystemExit) as err:
            main([
                "color", "--in", str(seed_bundle), "--k", "3",
                "--degeneracy-order", "--no-symmetry-break",
            ])
        assert err.value.code == 2
        assert main([
            "color", "--in", str(seed_bundle), "--k", "3", "--no-symmetry-break",
        ]) == 0
        assert "verdict: UNSAT" in capsys.readouterr().out


class TestAugmentJson:
    def test_one_record_per_phase(self, seed_bundle, tmp_path):
        src = os.path.dirname(os.path.dirname(hypchrom.__file__))
        out = tmp_path / "g42.bundle"
        done = subprocess.run(
            [sys.executable, "-m", "hypchrom.cli", "augment", "--in", str(seed_bundle),
             "--out", str(out), "--phases", "2", "--json"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        assert "order 42, size 111" in done.stderr
        records = [json.loads(line) for line in done.stdout.splitlines()]
        fields = {f.name for f in dataclasses.fields(PhaseReport)}
        assert [set(r) for r in records] == [fields, fields]
        assert [list(r["timings"]) for r in records] == [list(PHASE_LAYERS)] * 2
        assert [r["phase"] for r in records] == [1, 2]
        assert [r["accepted"] for r in records] == [19, 14]
        assert [r["screened_pairs"] for r in records] == [342, 483]
        assert [r["exact_edge_tests"] for r in records] == [44, 50]
        assert records[1]["accidental_edges"] == [[29, 31], [32, 33], [35, 37], [38, 39]]


class TestDeclaredDependencies:
    # runs the CLI as `python -m hypchrom.cli` with mpmath unimportable, so
    # the package must need nothing beyond its declared dependencies
    RUNNER = (
        "import runpy, sys\n"
        "sys.modules['mpmath'] = None\n"
        "runpy.run_module('hypchrom.cli', run_name='__main__', alter_sys=True)\n"
    )

    def run_cli(self, *argv):
        src = os.path.dirname(os.path.dirname(hypchrom.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", self.RUNNER, *argv],
            env=env, capture_output=True, text=True, timeout=600,
        )

    def test_cli_runs_without_mpmath(self, tmp_path):
        seed = tmp_path / "g9.bundle"
        grown = tmp_path / "g28.bundle"
        done = self.run_cli("build-g9", "--out", str(seed))
        assert done.returncode == 0, done.stderr
        assert "order 9, size 17" in done.stdout
        done = self.run_cli(
            "augment", "--in", str(seed), "--out", str(grown), "--phases", "1"
        )
        assert done.returncode == 0, done.stderr
        assert "order 28, size 61" in done.stdout

    def test_negative_dimacs_order_exits_without_traceback(self, tmp_path):
        path = tmp_path / "neg.col"
        path.write_text("p edge -3 0\n")
        done = self.run_cli("color", "--in", str(path), "--k", "3")
        assert done.returncode == 2
        assert done.stderr == "error: line 1: negative vertex count -3\n"
