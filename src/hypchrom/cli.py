"""Command-line surface for the construction, certification and coloring
pipeline.

Exit codes: 0 = verdict obtained, 1 = integrity failure, 2 = usage error.
Numeric bounds are set by flag, each with a default.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from collections import Counter

from .augment import AugmentConfig, grow_pipeline, DEFAULT_SCHEDULE
from .bundle import BundleFormatError, read_bundle, write_bundle
from .coloring import (
    AdjacencyGraph,
    ColorableGraphError,
    minimal_non_k_prefix,
    search_k_coloring,
)
from .dimacs import emit_dimacs, parse_dimacs
from .geometry import GraphIntegrityError, build_g9, certify_graph
from .svg import emit_svg

EXIT_OK = 0
EXIT_INTEGRITY = 1
EXIT_USAGE = 2


def _load_adjacency(path: str) -> AdjacencyGraph:
    if path.endswith(".col") or path.endswith(".dimacs"):
        return parse_dimacs(path)
    return AdjacencyGraph.from_graph(read_bundle(path))


def _cmd_build_g9(args) -> int:
    g = build_g9()
    write_bundle(g, args.out)
    print(f"seed graph: order {g.order}, size {g.size} -> {args.out}")
    return EXIT_OK


def _min_neighbors_schedule(text: str) -> list[int]:
    """The --min-neighbors list, every entry an integer of at least 2; a
    ValueError names the first entry that is not, and its position."""
    schedule = []
    for pos, tok in enumerate(text.split(","), start=1):
        if not tok.strip().isdecimal() or int(tok) < 2:
            raise ValueError(
                f"--min-neighbors entry {pos} is {tok.strip()!r}; "
                "each entry must be an integer of at least 2"
            )
        schedule.append(int(tok))
    return schedule


def _cmd_augment(args) -> int:
    if (args.phases or 0) < 0 or args.denom_bound < 1:
        print("--phases must be at least 0, --denom-bound at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.min_neighbors is not None:
        schedule = _min_neighbors_schedule(args.min_neighbors)
        if args.phases is not None and args.phases != len(schedule):
            print("--phases disagrees with --min-neighbors list", file=sys.stderr)
            return EXIT_USAGE
    else:
        phases = args.phases if args.phases is not None else len(DEFAULT_SCHEDULE)
        schedule = (list(DEFAULT_SCHEDULE) + [3] * phases)[:phases]
    g = read_bundle(args.input, verify=not args.no_verify)
    if args.no_reference_selection:
        cfg = AugmentConfig(denom_bound=args.denom_bound)
    else:
        cfg = AugmentConfig.reference(denom_bound=args.denom_bound)
    graphs = grow_pipeline(g, schedule, cfg=cfg)
    for stage in graphs:
        report = stage.phase_report
        if report is None:
            continue
        if args.json:
            print(json.dumps(dataclasses.asdict(report)))
        else:
            print(report.summary(), file=sys.stderr)
    final = graphs[-1]
    write_bundle(final, args.out)
    if args.emit_intermediate:
        os.makedirs(args.emit_intermediate, exist_ok=True)
        for stage in graphs:
            write_bundle(
                stage,
                os.path.join(args.emit_intermediate, f"g{stage.order}.bundle"),
            )
    print(
        f"final graph: order {final.order}, size {final.size} -> {args.out}",
        file=sys.stderr if args.json else sys.stdout,
    )
    return EXIT_OK


def _cmd_certify(args) -> int:
    started = time.perf_counter()
    g = read_bundle(args.input, verify=False)
    loaded = time.perf_counter()
    report = certify_graph(g)
    done = time.perf_counter()
    if args.json:
        record = dataclasses.asdict(report)
        record["failures"] = [[kind, *(i + 1 for i in at)] for kind, *at in report.failures]
        record["load_elapsed"] = loaded - started
        record["certify_elapsed"] = done - loaded
        print(json.dumps(record))
        return EXIT_OK if report.ok else EXIT_INTEGRITY
    print(
        f"edges checked: {report.edges_checked}, "
        f"non-edges checked: {report.nonedges_checked}, "
        f"failures: {len(report.failures)}"
    )
    for kind, *at in report.failures:
        where = ",".join(str(i + 1) for i in at)
        print(f"  {kind} failure at {'vertex' if kind == 'disk' else 'pair'} ({where})")
    return EXIT_OK if report.ok else EXIT_INTEGRITY


def _cmd_color(args) -> int:
    g = _load_adjacency(args.input)
    if args.prefix is not None:
        g = g.induced_prefix(args.prefix)
    coloring, stats = search_k_coloring(
        g, args.k, symmetry_break=not args.no_symmetry_break
    )
    verdict = "SAT" if coloring is not None else "UNSAT"
    if args.json:
        print(json.dumps({"verdict": verdict, "k": args.k, **dataclasses.asdict(stats)}))
    else:
        print(f"verdict: {verdict}")
        print(
            f"stats: nodes={stats.nodes_visited} "
            f"max-depth={stats.max_depth} forced={stats.forced_assignments} "
            f"conflicts={stats.conflicts} backtracks={stats.backtracks} "
            f"core={stats.core_order} workers={stats.workers} "
            f"elapsed={stats.elapsed:.3f}s"
        )
    if coloring is not None:
        if args.witness_out:
            with open(args.witness_out, "w") as fh:
                fh.write(" ".join(str(c + 1) for c in coloring) + "\n")
            print(
                f"witness -> {args.witness_out}",
                file=sys.stderr if args.json else sys.stdout,
            )
        elif not args.json:
            print("witness:", " ".join(str(c + 1) for c in coloring))
    return EXIT_OK


def _cmd_prefix_search(args) -> int:
    g = _load_adjacency(args.input)
    started = time.perf_counter()
    try:
        m = minimal_non_k_prefix(g, args.k)
    except ColorableGraphError as exc:
        m, colorable = None, str(exc)
    elapsed = time.perf_counter() - started
    if args.json:
        print(json.dumps({"k": args.k, "prefix": m, "elapsed": elapsed}))
    elif m is None:
        print(colorable)
    else:
        print(f"minimal non-{args.k}-colorable prefix: {m}")
    return EXIT_OK


def _cmd_export(args) -> int:
    g = read_bundle(args.input, verify=not args.no_verify)
    wrote = False
    if args.dimacs:
        emit_dimacs(AdjacencyGraph.from_graph(g), args.dimacs)
        print(f"dimacs -> {args.dimacs}")
        wrote = True
    if args.svg:
        emit_svg(g, args.svg, vertices_only=args.vertices_only, geodesic=not args.chords)
        print(f"svg -> {args.svg}")
        wrote = True
    if args.bundle:
        write_bundle(g, args.bundle)
        print(f"bundle -> {args.bundle}")
        wrote = True
    if not wrote:
        print("export: pass at least one of --dimacs/--svg/--bundle", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_stats(args) -> int:
    g = read_bundle(args.input, verify=False)
    phases = Counter(0 if origin is None else origin.phase for origin in g.origins)
    degs = [0] * g.order
    for i, j in g.edges:
        degs[i] += 1
        degs[j] += 1
    degree_min, degree_max = (min(degs), max(degs)) if degs else (0, 0)
    if args.json:
        record = {
            "order": g.order,
            "size": g.size,
            "degree_min": degree_min,
            "degree_max": degree_max,
            "vertices_per_phase": dict(sorted(phases.items())),
        }
        print(json.dumps(record))
        return EXIT_OK
    print(f"order: {g.order}")
    print(f"size: {g.size}")
    print(f"degree: min {degree_min} max {degree_max}")
    for phase in sorted(phases):
        label = "seed" if phase == 0 else f"phase {phase}"
        print(f"{label}: {phases[phase]} vertices")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypchrom",
        description="exact distance-graph construction and coloring in the hyperbolic disk",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-g9", help="emit the certified order-9 seed graph")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_g9)

    p = sub.add_parser("augment", help="run growth phases on a bundle")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--phases", type=int, default=None)
    p.add_argument(
        "--min-neighbors",
        default=None,
        help="comma-separated per-phase minimum neighbor counts, each at least 2",
    )
    p.add_argument("--denom-bound", type=int, default=10_000)
    p.add_argument(
        "--no-reference-selection",
        action="store_true",
        help="disable the published-selection exclusions of the first phase",
    )
    p.add_argument("--emit-intermediate", default=None, metavar="DIR")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument(
        "--json",
        action="store_true",
        help="print one JSON record per phase report on stdout (the final "
        "graph line goes to stderr)",
    )
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("certify", help="re-certify every vertex and pair of a bundle exactly")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object on stdout: the certification report "
        "(failures as 1-based [\"disk\", i] or [kind, i, j]) and the load "
        "and certification seconds",
    )
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("color", help="decide k-colorability")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prefix", type=int, default=None)
    p.add_argument("--no-symmetry-break", action="store_true")
    p.add_argument("--witness-out", default=None)
    p.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object on stdout: the verdict, k and every "
        "search counter (a --witness-out line goes to stderr)",
    )
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("prefix-search", help="minimal non-k-colorable vertex prefix")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object on stdout: k, the minimal prefix (null "
        "when the graph is k-colorable) and the search seconds",
    )
    p.set_defaults(func=_cmd_prefix_search)

    p = sub.add_parser("export", help="export a bundle to other formats")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--dimacs", default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--vertices-only", action="store_true")
    p.add_argument("--chords", action="store_true", help="draw edges as chords")
    p.add_argument("--bundle", default=None)
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("stats", help="summarize a bundle")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object on stdout: order, size, the least and "
        "greatest degree, and the vertices per phase (phase 0 is the seed)",
    )
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphIntegrityError, BundleFormatError) as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
