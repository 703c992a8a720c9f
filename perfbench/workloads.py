"""The workloads: one round runs each step a user of the tool takes, on the
workload's graph, and a check of the round's outputs.

A round grows the graph from the certified seed (`hypchrom augment`),
writes its bundle and reads it back with exact re-verification (the load
that `color`, `export` and `augment` start with), reads it without
verification and certifies it (`hypchrom certify`), exports SVG and DIMACS
(`hypchrom export`), decides 4-colorability (`hypchrom color -k 4`) and
finds a 5-coloring witness.  The workloads differ in how far the graph is
grown, which changes what the round's time is spent on.
"""

from __future__ import annotations

import contextlib
import os
import re
import time
from dataclasses import dataclass
from fractions import Fraction

from hypchrom import augment, bundle, coloring, dimacs, geometry, svg
from hypchrom.augment import AugmentConfig
from hypchrom.geometry import build_g9

import checks
import paper


@dataclass(frozen=True)
class Workload:
    phases: int  # growth phases run from the seed
    passes: int  # passes per round over the steps after the growth
    repeats: int  # runs per pass of each step but the 4-decision
    four_colorable: bool  # the paper's verdict on the grown graph


WORKLOADS = {
    # the paper's minimal non-4-colorable prefix (622) is longer than 226
    "published": Workload(phases=5, passes=1, repeats=1, four_colorable=True),
    # the paper's claim: the final graph has no proper 4-coloring; the
    # passes and repeats spread the samples of the short steps over the run
    "grow": Workload(phases=7, passes=3, repeats=2, four_colorable=False),
}

END_TO_END = ("pipeline_s", "load_s", "certify_s", "export_s", "decide4_s", "witness5_s")


def ops_per_round(spec: Workload) -> int:
    # the growth, then per pass the 4-decision and the five other steps
    return 1 + spec.passes * (1 + 5 * spec.repeats)


def setup():
    """Everything a run needs before its first timed step."""
    return build_g9(), AugmentConfig.reference()


def run_round(spec: Workload, g9, cfg, seed: int, workdir: str, tracer=None):
    """One round; returns (seconds per end-to-end step, outputs)."""
    times: dict[str, list[float]] = {name: [] for name in END_TO_END}

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    @contextlib.contextmanager
    def step(name):
        started = time.perf_counter()
        with span(name):
            yield
        times[name].append(time.perf_counter() - started)

    with step("pipeline_s"):
        graphs = augment.grow_pipeline(g9, paper.SCHEDULE[: spec.phases], cfg)
    g = graphs[-1]
    paths = {ext: os.path.join(workdir, f"graph.{ext}") for ext in ("bundle", "svg", "dimacs")}
    for _ in range(spec.passes):
        with step("decide4_s"):
            with span("coloring.adjacency"):
                adj = coloring.AdjacencyGraph.from_graph(g)
            with span("coloring.decide4"):
                decide4 = coloring.search_k_coloring(adj, 4)
        for _ in range(spec.repeats):
            with span("bundle.write"):
                bundle.write_bundle(g, paths["bundle"])
            with step("load_s"):
                loaded = bundle.read_bundle(paths["bundle"], verify=True)
            with step("certify_s"):
                unverified = bundle.read_bundle(paths["bundle"], verify=False)
                with span("geometry.certify"):
                    report = geometry.certify_graph(unverified, seed=seed)
            with step("export_s"):
                with span("svg.emit"):
                    svg.emit_svg(g, paths["svg"])
                with span("dimacs.emit"):
                    dimacs.emit_dimacs(coloring.AdjacencyGraph.from_graph(g), paths["dimacs"])
            with step("witness5_s"):
                witness5 = coloring.find_coloring_reordered(adj, 5)
    out = dict(graphs=graphs, paths=paths, loaded=loaded, report=report,
               decide4=decide4, witness5=witness5)
    return times, out


def _octuple(nums, den):
    return tuple(Fraction(v, den) for v in nums)


def check_round(spec: Workload, out: dict, workdir: str) -> list[str]:
    """Problems with a round's outputs; empty when all are correct."""
    graphs = out["graphs"]
    g = graphs[-1]
    octuples = [v.octuple for v in g.vertices]
    problems = []

    milestones = tuple((h.order, h.size) for h in graphs[:5])
    if milestones != paper.PUBLISHED_MILESTONES[: len(milestones)]:
        problems.append(f"milestones {milestones} differ from the published ones")
    for phase, table, first in ((1, paper.PHASE1_TABLE, 9), (2, paper.PHASE2_TABLE, 28)):
        got = [v.octuple for v in graphs[phase - 1].vertices[first:]]
        if got != [_octuple(nums, den) for nums, den in table]:
            problems.append(f"phase-{phase} vertices differ from the paper's table")

    problems += checks.float_check(octuples, g.edges)
    if len(set(octuples)) != g.order:
        problems.append("repeated vertex")

    # each phase-p vertex has the schedule's minimum of earlier neighbours,
    # its two source vertices among them
    adjacency = [set() for _ in range(g.order)]
    for i, j in g.edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    start = 9
    for phase, h in enumerate(graphs, start=1):
        for v in range(start, h.order):
            earlier = {u for u in adjacency[v] if u < start}
            origin = g.origins[v]
            if origin is None or origin.phase != phase:
                problems.append(f"vertex {v + 1} has origin {origin}")
            elif not set(origin.source_pair) <= earlier:
                problems.append(f"vertex {v + 1} not adjacent to its sources")
            if len(earlier) < paper.SCHEDULE[phase - 1]:
                problems.append(f"vertex {v + 1} has {len(earlier)} earlier neighbours")
        start = h.order

    with open(out["paths"]["bundle"], "rb") as fh:
        written = fh.read()
    again = os.path.join(workdir, "again.bundle")
    bundle.write_bundle(out["loaded"], again)
    with open(again, "rb") as fh:
        if fh.read() != written:
            problems.append("bundle differs after a read and a second write")
    if not out["report"].ok or out["report"].edges_checked != g.size:
        problems.append(f"certify_graph: {out['report'].failures[:3]}")

    with open(out["paths"]["dimacs"]) as fh:
        lines = fh.read().split("\n")
    exported = {tuple(int(t) - 1 for t in line.split()[1:]) for line in lines[1:] if line}
    if lines[0] != f"p edge {g.order} {g.size}" or exported != set(g.edges):
        problems.append("DIMACS export differs from the edge list")
    with open(out["paths"]["svg"]) as fh:
        text = fh.read()
    if text.count("<circle") != g.order + 1 or len(re.findall("<path|<line", text)) != g.size:
        problems.append("SVG export does not draw every vertex and edge")

    four, _ = out["decide4"]
    if spec.four_colorable:
        problems += [f"4-coloring: {p}" for p in checks.coloring_check(g.order, g.edges, four, 4)]
    elif four is not None:
        problems.append("a 4-coloring was returned for a graph the paper proves has none")
    five, _ = out["witness5"]
    problems += [f"5-coloring: {p}" for p in checks.coloring_check(g.order, g.edges, five, 5)]
    return problems


def layer_metrics(tracer, out: dict) -> dict[str, float]:
    """Per-layer figures of one traced round: those of the steps after the
    growth per run of the step, the coloring sums over the round."""
    get = tracer.get

    def per_step(name, step=None):
        # seconds of the spans `name` per run of the step (default: itself)
        return get(name).total / get(step or name).calls

    def calls_per(name, step):
        return get(name).calls // get(step).calls

    reports = [h.phase_report for h in out["graphs"]]
    distinct = sum(r.distinct for r in reports)
    accepted = sum(r.accepted for r in reports)
    edge = get("geometry.is_unit_edge")
    kernel_s = tracer.counters.get("coloring.kernel_s", 0.0)
    nodes = tracer.counters.get("coloring.nodes", 0)
    _, decide4 = out["decide4"]
    _, witness5 = out["witness5"]
    return {
        "augment.phase_s": get("augment.phase").total,
        "augment.last_phase_s": get("augment.phase").last,
        "augment.self_s": get("augment.phase").self_time,
        "augment.circle_of.calls": get("augment.circle_of").calls,
        "augment.circle_of_s": get("augment.circle_of").self_time,
        "augment.intersect_circles.calls": get("augment.intersect_circles").calls,
        "augment.intersect_circles_s": get("augment.intersect_circles").self_time,
        "augment.candidates_raw": sum(r.raw_candidates for r in reports),
        "augment.candidates_prefiltered": sum(r.prefiltered for r in reports),
        "augment.candidates_distinct": distinct,
        "augment.vertices_accepted": accepted,
        "augment.accept_ratio": accepted / distinct,
        "field.inverse.calls": get("field.inverse").calls,
        "field.inverse_s": get("field.inverse").self_time,
        "field.fe_sqrt.calls": get("field.fe_sqrt").calls,
        "field.fe_sqrt_s": get("field.fe_sqrt").self_time,
        "field.fe_sign.calls": get("field.fe_sign").calls,
        "field.fe_sign_s": get("field.fe_sign").self_time,
        "geometry.is_unit_edge.calls": edge.calls,
        "geometry.is_unit_edge_s": edge.self_time,
        "geometry.is_unit_edge.hits": edge.hits,
        "geometry.edge_hit_ratio": edge.hits / edge.calls,
        "geometry.certify.pairs": calls_per("geometry.certify.pair", "geometry.certify"),
        "geometry.certify_s": per_step("geometry.certify"),
        "bundle.bytes": os.path.getsize(out["paths"]["bundle"]),
        "bundle.write_s": per_step("bundle.write"),
        "bundle.read_s": per_step("load_s"),
        "bundle.verify.calls": calls_per("bundle.verify", "load_s"),
        "svg.emit_s": per_step("svg.emit"),
        "svg.point_coords_numeric_s": per_step("svg.point_coords_numeric", "svg.emit"),
        "dimacs.emit_s": per_step("dimacs.emit"),
        "coloring.adjacency_s": per_step("coloring.adjacency"),
        "coloring.searches": get("coloring.search").calls,
        "coloring.nodes": nodes,
        "coloring.forced": tracer.counters.get("coloring.forced", 0),
        "coloring.kernel_s": kernel_s,
        "coloring.nodes_per_s": nodes / kernel_s,
        "coloring.overhead_s": (
            get("coloring.decide4").total + get("witness5_s").total - kernel_s
        ),
        "coloring.decide4.nodes": decide4.nodes_visited,
        "coloring.decide4.max_depth": decide4.max_depth,
        "coloring.witness5.nodes": witness5.nodes_visited,
    }
