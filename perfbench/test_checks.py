"""Tests of the benchmark's output checks; run from the repository root with
`python3 -m pytest perfbench -q`."""

import dataclasses

import pytest

from hypchrom.augment import AugmentConfig, phase_augment
from hypchrom.geometry import Graph, build_g9

import checks
import workloads


@pytest.fixture(scope="module")
def g28():
    return phase_augment(build_g9(), 2, cfg=AugmentConfig.reference(), phase_index=1)


def octuples(g):
    return [v.octuple for v in g.vertices]


def first_nonedge(g):
    edges = g.edge_set()
    return next((i, j) for i in range(g.order) for j in range(i + 1, g.order)
                if (i, j) not in edges)


def test_generator_is_a_root_in_range():
    c = checks.C
    assert 0.5 < c < 1
    assert abs(16 * c**4 + 8 * c**3 - 12 * c**2 - 2 * c + 1) < 1e-14


def test_float_check_accepts_grown_graph(g28):
    assert checks.float_check(octuples(g28), g28.edges) == []


def test_float_check_rejects_dropped_edge(g28):
    problems = checks.float_check(octuples(g28), g28.edges[1:])
    assert len(problems) == 1 and problems[0].startswith("unlisted pair at the edge value")


def test_float_check_rejects_added_nonedge(g28):
    problems = checks.float_check(octuples(g28), g28.edges + [first_nonedge(g28)])
    assert len(problems) == 1 and problems[0].startswith("listed edge off the edge value")


def test_float_check_rejects_repeated_and_outside_vertices(g28):
    octs = octuples(g28)
    assert any(p.startswith("coincident") for p in checks.float_check(octs + octs[-1:], []))
    far = (0, 0, 0, 2, 0, 0, 0, 0)  # x = 2R, outside the unit disk
    assert any("inside the disk" in p for p in checks.float_check(octs[:1] + [far], []))


def test_coloring_check():
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    assert checks.coloring_check(4, edges, [0, 1, 2, 0], 3) == []
    assert checks.coloring_check(4, edges, [0, 1, 2, 2], 3) == ["edge (3, 4) is monochromatic"]
    assert checks.coloring_check(4, edges, [0, 1, 3, 0], 3) == ["vertex 3 has color 3"]
    assert checks.coloring_check(4, edges, [0, 1, 2], 3) != []
    assert checks.coloring_check(4, edges, None, 3) == ["no coloring"]


@pytest.fixture(scope="module")
def published_round(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("round"))
    spec = workloads.WORKLOADS["published"]
    g9, cfg = workloads.setup()
    _, out = workloads.run_round(spec, g9, cfg, 0, workdir)
    return spec, out, workdir


def with_final_graph(out, edges):
    g = out["graphs"][-1]
    return dict(out, graphs=out["graphs"][:-1] + [Graph(g.vertices, edges, g.origins)])


def test_round_check_accepts_published_round(published_round):
    spec, out, workdir = published_round
    assert workloads.check_round(spec, out, workdir) == []


def test_round_check_rejects_dropped_edge(published_round):
    spec, out, workdir = published_round
    g = out["graphs"][-1]
    problems = workloads.check_round(spec, with_final_graph(out, g.edges[:-1]), workdir)
    assert any(p.startswith("unlisted pair at the edge value") for p in problems)


def test_round_check_rejects_added_nonedge(published_round):
    spec, out, workdir = published_round
    g = out["graphs"][-1]
    tampered = with_final_graph(out, g.edges + [first_nonedge(g)])
    problems = workloads.check_round(spec, tampered, workdir)
    assert any(p.startswith("listed edge off the edge value") for p in problems)


def test_round_check_rejects_monochromatic_edge(published_round):
    spec, out, workdir = published_round
    coloring, stats = out["witness5"]
    i, j = out["graphs"][-1].edges[0]
    bad = list(coloring)
    bad[j] = bad[i]
    problems = workloads.check_round(spec, dict(out, witness5=(bad, stats)), workdir)
    assert f"5-coloring: edge ({i + 1}, {j + 1}) is monochromatic" in problems


def test_round_check_rejects_a_4_coloring_of_the_final_graph(published_round):
    spec, out, workdir = published_round
    claims_unsat = dataclasses.replace(spec, four_colorable=False)
    problems = workloads.check_round(claims_unsat, out, workdir)
    assert problems == ["a 4-coloring was returned for a graph the paper proves has none"]
