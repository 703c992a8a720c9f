import hashlib
import math
import os
import stat

import pytest

from hypchrom.bundle import DISTANCE_TAG, BundleFormatError, read_bundle, write_bundle
from hypchrom.coloring import AdjacencyGraph, chromatic_number
from hypchrom.dimacs import emit_dimacs, parse_dimacs
from hypchrom.geometry import D_NUMERIC, Graph, GraphIntegrityError
from hypchrom.svg import emit_svg


# SHA-256 of the bundle and of the default SVG of the order-226 graph
# (phases 1-5) and the order-1378 graph (all seven phases); any change to a
# vertex, an edge, the order or a drawn coordinate changes them
PINNED_DIGESTS = {
    226: (
        "b24f573d2c7720352b261e7087a3a95019ddab49eb8d527afbc329545077f462",
        "82105df9b17becd958ee64548a4bccb35e8c7808bdc10692e180f889ee663659",
    ),
    1378: (
        "0d639e0669fa98973fb04b70013a097c18cfa70fb977e7442e97d5c0432be1d8",
        "1560f68d5a338b733c7606e4020ac5e5e4489fb3669df46c6f4e0e1b24c3aaa1",
    ),
}


def test_pinned_bundle_and_svg_digests(pipeline, tmp_path):
    for g in (pipeline[4], pipeline[6]):
        bundle, svg = tmp_path / f"{g.order}.bundle", tmp_path / f"{g.order}.svg"
        write_bundle(g, str(bundle))
        emit_svg(g, str(svg))
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (bundle, svg))
        assert digests == PINNED_DIGESTS[g.order]


def with_outside_vertex(text: str) -> str:
    """A seed bundle's text with a tenth vertex at x = 5R, y = 0, outside the
    unit disk (K < 0), before the first edge."""
    lines = text.replace("vertices 9\n", "vertices 10\n").splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("e "))
    lines.insert(at, "v 10 0/1 0/1 0/1 5/1 0/1 0/1 0/1 0/1 seed")
    return "\n".join(lines) + "\n"


class TestBundle:
    def test_roundtrip_seed(self, g9, tmp_path):
        path = tmp_path / "g9.bundle"
        write_bundle(g9, str(path))
        back = read_bundle(str(path))
        assert back.order == 9 and back.size == 17
        assert [v.octuple for v in back.vertices] == [v.octuple for v in g9.vertices]
        assert back.edges == g9.edges
        assert back.origins == g9.origins

    def test_roundtrip_is_byte_identical(self, g28, tmp_path):
        p1 = tmp_path / "a.bundle"
        p2 = tmp_path / "b.bundle"
        write_bundle(g28, str(p1))
        write_bundle(read_bundle(str(p1)), str(p2))
        assert p1.read_text() == p2.read_text()

    def test_phase_one_bundle_counts(self, g28, tmp_path):
        path = tmp_path / "g28.bundle"
        write_bundle(g28, str(path))
        back = read_bundle(str(path))
        assert back.order == 28
        assert back.size == 61

    def test_provenance_preserved(self, g28, tmp_path):
        path = tmp_path / "g28.bundle"
        write_bundle(g28, str(path))
        back = read_bundle(str(path))
        origin = back.origins[9]
        assert origin is not None
        assert origin.source_pair == (0, 1)
        assert origin.phase == 1
        assert all(o is None for o in back.origins[:9])

    def test_injected_edge_fails_certification(self, g9, tmp_path):
        path = tmp_path / "bad.bundle"
        # {2,7} is not at the target distance
        tampered = Graph(g9.vertices, list(g9.edges) + [(1, 6)], g9.origins)
        write_bundle(tampered, str(path))
        with pytest.raises(GraphIntegrityError) as err:
            read_bundle(str(path))
        assert "(2,7)" in str(err.value)
        # without verification the tampered bundle parses
        assert read_bundle(str(path), verify=False).size == 18

    def test_first_of_two_bad_edges_is_named(self, g9, tmp_path):
        path = tmp_path / "bad.bundle"
        # {1,8} and {2,7} are not edges; the file lists {2,7} first, and the
        # first in the graph's edge order is named
        tampered = Graph(g9.vertices, list(g9.edges) + [(1, 6), (0, 7)], g9.origins)
        write_bundle(tampered, str(path))
        lines = path.read_text().splitlines()
        lines.remove("e 1 8")
        path.write_text("\n".join(lines + ["e 1 8"]) + "\n")
        with pytest.raises(GraphIntegrityError, match=r"^edge \(1,8\) failed exact re-certification$"):
            read_bundle(str(path))

    def test_bundle_without_edges_verifies(self, g9, tmp_path):
        path = tmp_path / "no-edges.bundle"
        write_bundle(Graph(g9.vertices, [], g9.origins), str(path))
        back = read_bundle(str(path))
        assert (back.order, back.size) == (9, 0)

    def test_vertex_outside_disk_fails_verification(self, g9, tmp_path):
        path = tmp_path / "outside.bundle"
        write_bundle(g9, str(path))
        path.write_text(with_outside_vertex(path.read_text()))
        with pytest.raises(GraphIntegrityError) as err:
            read_bundle(str(path))
        assert str(err.value) == "vertex 10 is not inside the unit disk"
        # without verification it parses
        assert read_bundle(str(path), verify=False).order == 10

    def test_file_mode_follows_umask(self, g9, tmp_path):
        # the mode open(path, "w") gives a new file: 0666 less the umask
        process_umask = os.umask(0)
        os.umask(process_umask)
        for umask in (process_umask, 0o077, 0o002):
            path = tmp_path / f"umask-{umask:03o}.bundle"
            previous = os.umask(umask)
            try:
                write_bundle(g9, str(path))
            finally:
                os.umask(previous)
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        # no temporary file is left behind
        assert all(p.name.startswith("umask-") for p in tmp_path.iterdir())

    def test_rewrite_keeps_existing_mode(self, g9, tmp_path):
        # as open(path, "w") would: a bundle made 0640 stays 0640
        path = tmp_path / "g9.bundle"
        write_bundle(g9, str(path))
        path.chmod(0o640)
        write_bundle(g9, str(path))
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert [p.name for p in tmp_path.iterdir()] == ["g9.bundle"]

    def test_malformed_rational_reports_line(self, g9, tmp_path):
        path = tmp_path / "g9.bundle"
        write_bundle(g9, str(path))
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("v 3 "))
        parts = lines[idx].split()
        parts[2] = "1/0"
        lines[idx] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BundleFormatError) as err:
            read_bundle(str(path))
        assert f"line {idx + 1}" in str(err.value)

    @pytest.mark.parametrize("token", ["x/2", "2/", "1/2/3"])
    def test_bad_coefficient_reports_line(self, g9, tmp_path, token):
        path = tmp_path / "g9.bundle"
        write_bundle(g9, str(path))
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("v 5 "))
        parts = lines[idx].split()
        parts[6] = token
        lines[idx] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BundleFormatError, match=f"^line {idx + 1}: malformed rational"):
            read_bundle(str(path), verify=False)

    def test_unreduced_and_bare_coefficients_parse(self, g9, tmp_path):
        # 6/4 for 3/2, 8/-1 for -8/1 and a bare 1 for 1/1 give the same
        # point, and a second write gives the canonical text back
        path = tmp_path / "g9.bundle"
        write_bundle(g9, str(path))
        canonical = path.read_text()
        lines = canonical.splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("v 4 "))
        parts = lines[idx].split()
        assert (parts[5], parts[6], parts[9]) == ("3/2", "-8/1", "1/1")
        parts[5], parts[6], parts[9] = "6/4", "8/-1", "1"
        lines[idx] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        back = read_bundle(str(path))
        assert back.vertices == g9.vertices
        write_bundle(back, str(path))
        assert path.read_text() == canonical

    def test_duplicate_vertex_reported(self, g9, tmp_path):
        path = tmp_path / "g9.bundle"
        write_bundle(g9, str(path))
        lines = path.read_text().splitlines()
        dup = next(l for l in lines if l.startswith("v 4 "))
        lines.append(dup)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BundleFormatError, match="duplicate vertex"):
            read_bundle(str(path))

    def test_duplicate_edge_reported(self, g9, tmp_path):
        path = tmp_path / "g9.bundle"
        write_bundle(g9, str(path))
        lines = path.read_text().splitlines()
        lines.append("e 2 1")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BundleFormatError, match="duplicate edge"):
            read_bundle(str(path))

    def test_dangling_edge_reported(self, g9, tmp_path):
        path = tmp_path / "g9.bundle"
        write_bundle(g9, str(path))
        lines = path.read_text().splitlines()
        lines = [l.replace("edges 17", "edges 18") for l in lines]
        lines.append("e 3 99")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BundleFormatError, match="missing vertex"):
            read_bundle(str(path))

    def write_provenance(self, g9, tmp_path, tail):
        """The seed bundle with v 9's "seed" replaced by tail; returns its path."""
        path = tmp_path / "g9.bundle"
        write_bundle(g9, str(path))
        lines = path.read_text().splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("v 9 "))
        lines[at] = lines[at].removesuffix("seed") + tail
        path.write_text("\n".join(lines) + "\n")
        return path, at + 1

    def test_provenance_source_outside_range_reports_line(self, g9, tmp_path):
        for tail, source in (("from 0 40 + phase -2", 0), ("from 3 40 + phase 1", 40)):
            path, line_no = self.write_provenance(g9, tmp_path, tail)
            with pytest.raises(BundleFormatError) as err:
                read_bundle(str(path))
            assert str(err.value) == f"line {line_no}: source index {source} outside 1..9"

    def test_provenance_repeated_source_reports_line(self, g9, tmp_path):
        path, line_no = self.write_provenance(g9, tmp_path, "from 3 3 + phase 1")
        with pytest.raises(BundleFormatError) as err:
            read_bundle(str(path))
        assert str(err.value) == f"line {line_no}: source pair names vertex 3 twice"

    def test_provenance_source_not_earlier_reports_line(self, g9, tmp_path):
        path, line_no = self.write_provenance(g9, tmp_path, "from 3 9 + phase 1")
        with pytest.raises(BundleFormatError) as err:
            read_bundle(str(path))
        assert str(err.value) == f"line {line_no}: source 9 is not earlier than vertex 9"

    def test_provenance_phase_below_one_reports_line(self, g9, tmp_path):
        path, line_no = self.write_provenance(g9, tmp_path, "from 3 4 - phase 0")
        with pytest.raises(BundleFormatError) as err:
            read_bundle(str(path))
        assert str(err.value) == f"line {line_no}: phase 0 below 1"

    @pytest.mark.parametrize("record, bad", [("vertices", "vertices"), ("edges", "edges x")])
    def test_malformed_count_reports_line(self, g9, tmp_path, record, bad):
        path = tmp_path / "g9.bundle"
        write_bundle(g9, str(path))
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.split()[0] == record)
        lines[idx] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BundleFormatError, match=f"^line {idx + 1}: {record} count"):
            read_bundle(str(path), verify=False)

    @pytest.mark.parametrize("record, extra", [
        ("vertices", "vertices 4"),
        ("edges", "edges 17"),
        ("minpoly", "minpoly 16 8 -12 -2 1"),
        ("distance", f"distance {DISTANCE_TAG} {D_NUMERIC!r}"),
    ])
    def test_repeated_header_record_reports_line(self, g9, tmp_path, record, extra):
        # the extra record comes first, so the bundle's own one is the repeat
        path = tmp_path / "g9.bundle"
        write_bundle(g9, str(path))
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.split()[0] == record)
        lines.insert(idx, extra)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BundleFormatError, match=f"^line {idx + 2}: repeated {record} record$"):
            read_bundle(str(path), verify=False)

    def test_missing_minpoly_reported(self, g9, tmp_path):
        path = tmp_path / "g9.bundle"
        write_bundle(g9, str(path))
        lines = [l for l in path.read_text().splitlines() if not l.startswith("minpoly ")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BundleFormatError, match="^missing minimal polynomial$"):
            read_bundle(str(path), verify=False)

    @pytest.mark.parametrize("bad", [
        "distance nonsense 7.5",
        f"distance {DISTANCE_TAG} 7.5",
        f"distance {DISTANCE_TAG} nan",
        f"distance {DISTANCE_TAG} x",
        f"distance {DISTANCE_TAG}",
        f"distance {DISTANCE_TAG} {D_NUMERIC!r} extra",
    ])
    def test_distance_mismatch_reports_line(self, g9, tmp_path, bad):
        path = tmp_path / "g9.bundle"
        write_bundle(g9, str(path))
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("distance "))
        lines[idx] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            BundleFormatError, match=f"^line {idx + 1}: distance does not match this build$"
        ):
            read_bundle(str(path), verify=False)

    def test_distance_compared_as_a_number(self, g9, tmp_path):
        # another libm may round acosh differently in the last digit
        path = tmp_path / "g9.bundle"
        write_bundle(g9, str(path))
        text = path.read_text().replace(
            f"{D_NUMERIC!r}\n", f"{math.nextafter(D_NUMERIC, 2)!r}\n", 1
        )
        assert text != path.read_text()
        path.write_text(text)
        assert read_bundle(str(path)).order == 9

    def test_missing_distance_reported(self, g9, tmp_path):
        path = tmp_path / "g9.bundle"
        write_bundle(g9, str(path))
        lines = [l for l in path.read_text().splitlines() if not l.startswith("distance ")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BundleFormatError, match="^missing distance record$"):
            read_bundle(str(path), verify=False)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bundle"
        path.write_text("")
        with pytest.raises(BundleFormatError):
            read_bundle(str(path))


class TestDimacs:
    def test_seed_header(self, g9, tmp_path):
        path = tmp_path / "g9.col"
        emit_dimacs(AdjacencyGraph.from_graph(g9), str(path))
        first = path.read_text().splitlines()[0]
        assert first == "p edge 9 17"

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "empty.col"
        emit_dimacs(AdjacencyGraph(0, []), str(path))
        assert path.read_text() == "p edge 0 0\n"

    def test_roundtrip_preserves_verdicts(self, g9, tmp_path):
        path = tmp_path / "g9.col"
        adj = AdjacencyGraph.from_graph(g9)
        emit_dimacs(adj, str(path))
        back = parse_dimacs(str(path))
        assert back.n == adj.n
        assert back.edges() == adj.edges()
        assert chromatic_number(back) == chromatic_number(adj) == 4

    def test_parse_rejects_junk(self, tmp_path):
        path = tmp_path / "bad.col"
        path.write_text("p edge 3 1\nq 1 2\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_dimacs(str(path))

    @pytest.mark.parametrize("text, message", [
        ("p edge 3 1\ne 1 x\n", "line 2: 'x' is not an integer"),
        ("c note\np edge three 0\n", "line 2: 'three' is not an integer"),
    ])
    def test_parse_reports_non_integer_field_with_line(self, tmp_path, text, message):
        path = tmp_path / "bad.col"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_dimacs(str(path))

    @pytest.mark.parametrize("text, message", [
        ("p edge 3 5\ne 1 2\n", "edge count mismatch: problem line says 5, found 1"),
        ("p edge 3 0\ne 1 2\n", "edge count mismatch: problem line says 0, found 1"),
        ("p edge 3 x\ne 1 2\n", "line 1: 'x' is not an integer"),
        ("p edge 3 -1\n", "line 1: negative edge count -1"),
        ("p edge 3 1\ne 1 2\np edge 5 1\n", "line 3: repeated p record"),
    ])
    def test_parse_checks_the_edge_count(self, tmp_path, text, message):
        path = tmp_path / "bad.col"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_dimacs(str(path))

    @pytest.mark.parametrize("text, message", [
        ("p edge 3 1\ne 0 4\n", "line 2: vertex 0 out of range 1..3"),
        ("p edge 3 1\ne 1 4\n", "line 2: vertex 4 out of range 1..3"),
        ("p edge 3 1\ne 2 2\n", "line 2: self-loop at vertex 2"),
    ])
    def test_parse_checks_edge_endpoints_with_line(self, tmp_path, text, message):
        path = tmp_path / "bad.col"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_dimacs(str(path))

    def test_parse_counts_edge_lines_not_distinct_edges(self, tmp_path):
        # an edge listed in both orientations is two lines of the count
        path = tmp_path / "both.col"
        path.write_text("p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n")
        back = parse_dimacs(str(path))
        assert (back.n, back.size, back.edges()) == (3, 2, [(0, 1), (1, 2)])

    def test_parse_rejects_negative_vertex_count(self, tmp_path):
        # rejected on the problem line, before any edge is range-checked
        path = tmp_path / "neg.col"
        for text in ("p edge -3 0\n", "p edge -3 1\ne 1 2\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="^line 1: negative vertex count -3$"):
                parse_dimacs(str(path))


class TestSvg:
    def test_reads_each_vertex_through_traced_name(self, g28, tmp_path, monkeypatch):
        # perfbench's tracer wraps svg.point_coords_numeric; emit_svg must
        # reach it through the module global, once per vertex
        from hypchrom import svg

        calls = []
        original = svg.point_coords_numeric

        def counting(v):
            calls.append(v)
            return original(v)

        monkeypatch.setattr(svg, "point_coords_numeric", counting)
        emit_svg(g28, str(tmp_path / "g28.svg"))
        assert calls == list(g28.vertices)

    def test_phase_one_graph_renders_all_vertices(self, g28, tmp_path):
        path = tmp_path / "g28.svg"
        emit_svg(g28, str(path))
        text = path.read_text()
        # one boundary circle plus one glyph per vertex
        assert text.count("<circle") == 1 + 28
        assert "stroke-dasharray" in text
        assert text.count('fill="#f5d327"') == 9  # seed highlight

    def test_vertices_only_mode(self, g28, tmp_path):
        path = tmp_path / "dots.svg"
        emit_svg(g28, str(path), vertices_only=True)
        text = path.read_text()
        assert "<path" not in text and "<line" not in text
        assert text.count("<circle") == 1 + 28

    def test_empty_graph_boundary_only(self, tmp_path):
        path = tmp_path / "empty.svg"
        emit_svg(Graph([], []), str(path))
        assert path.read_text().count("<circle") == 1

    def test_chord_mode(self, g9, tmp_path):
        path = tmp_path / "chords.svg"
        emit_svg(g9, str(path), geodesic=False)
        assert "<line" in path.read_text()

    def test_all_glyphs_inside_boundary(self, g28, tmp_path):
        import re

        path = tmp_path / "g28.svg"
        emit_svg(g28, str(path))
        text = path.read_text()
        # skip the boundary circle (fill="none")
        glyphs = re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)" r="[\d.]+" fill="#', text)
        assert len(glyphs) == 28
        for cx, cy in glyphs:
            dx = float(cx) - 400.0
            dy = float(cy) - 400.0
            assert (dx * dx + dy * dy) ** 0.5 < 368.0
