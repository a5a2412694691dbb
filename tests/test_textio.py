"""Differential tests: the block readers against the per-line reference readers.

`reference_import_msh` and `reference_read_field_csv` read one line at a
time, as the library did before its readers parsed whole sections in array
passes.  They define the two formats.  Small valid files are mutated (lines
dropped, repeated, blanked or padded, tokens replaced, line ends changed), and
on every case the library must give the reference's arrays, or raise the
reference's exception with the same message and line.
"""
import csv
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowcontrast import cli, mesh
from lowcontrast.cli import InputError, read_field_csv, write_field_csv
from lowcontrast.mesh import MshParseError, from_arrays, generate_unit_square, import_msh


def reference_import_msh(path):
    """import_msh read one line at a time."""
    try:
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise MshParseError(f"{exc} (reading {path})") from None
    numbered = ((ln, text) for ln, text in enumerate(map(str.strip, lines), start=1) if text)

    def next_line():
        line = next(numbered, None)
        if line is None:
            raise MshParseError("unexpected end of file", len(lines))
        return line

    def read_count(what):
        ln, text = next_line()
        try:
            return int(text)
        except ValueError:
            raise MshParseError(f"{what} count is not an integer", ln) from None

    def expect_end(marker):
        ln, text = next_line()
        if text != marker:
            raise MshParseError(f"expected {marker}", ln)

    nodes = {}
    tris = []
    saw_format = False
    for _, section in numbered:
        if section == "$MeshFormat":
            ln, header = next_line()
            version = header.split()[0]
            if not version.startswith("2.2"):
                raise MshParseError(f"unsupported MSH version '{version}' (need 2.2)", ln)
            expect_end("$EndMeshFormat")
            saw_format = True
        elif section == "$Nodes":
            for _ in range(read_count("node")):
                ln, text = next_line()
                parts = text.split()
                if len(parts) < 4:
                    raise MshParseError("node line needs 'id x y z'", ln)
                try:
                    node_id, x, y = int(parts[0]), float(parts[1]), float(parts[2])
                except ValueError:
                    raise MshParseError("malformed node line", ln) from None
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"line {ln}: node {node_id} has non-finite coordinates ({x}, {y})")
                nodes[node_id] = (x, y)
            expect_end("$EndNodes")
        elif section == "$Elements":
            for _ in range(read_count("element")):
                ln, text = next_line()
                parts = text.split()
                if len(parts) < 3:
                    raise MshParseError("element line too short", ln)
                try:
                    etype = int(parts[1])
                    ntags = int(parts[2])
                    if etype == 2:
                        ids = [int(x) for x in parts[3 + ntags : 6 + ntags]]
                        if len(ids) != 3:
                            raise MshParseError("triangle needs 3 node ids", ln)
                        outside = [i for i in ids if not -(2**63) <= i < 2**63]
                        if outside:
                            raise MshParseError(f"triangle node id {outside[0]} does not fit in int64", ln)
                        tris.append(tuple(ids))
                except ValueError:
                    raise MshParseError("malformed element line", ln) from None
            expect_end("$EndElements")

    if not saw_format:
        raise MshParseError("missing $MeshFormat section")
    if not nodes:
        raise MshParseError("missing or empty $Nodes section")
    if not tris:
        raise MshParseError("no triangles (element type 2) found")
    used, conn = np.unique(np.array(tris, dtype=np.int64).ravel(), return_inverse=True)
    try:
        coords = np.array([nodes[i] for i in used.tolist()])
    except KeyError as exc:
        raise MshParseError(f"element references unknown node id {exc.args[0]}") from None
    return from_arrays(coords, conn.reshape(-1, 3))


def reference_read_field_csv(path, n_nodes):
    """read_field_csv read one csv row at a time."""
    values = np.zeros(n_nodes)
    seen = np.zeros(n_nodes, dtype=bool)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = (row for row in reader if any(cell.strip() for cell in row))
            for k, row in enumerate(rows):
                where = f"{path}: line {reader.line_num}"
                try:
                    idx = int(row[0])
                except ValueError:
                    if k == 0:
                        continue
                    raise InputError(
                        f"{where}: {','.join(row)!r} does not start with an integer node id"
                    ) from None
                if len(row) < 2:
                    raise InputError(f"{where}: row for node {idx} has no value")
                if not 0 <= idx < n_nodes:
                    raise InputError(f"{where}: node id {idx} out of range (mesh has {n_nodes})")
                if seen[idx]:
                    raise InputError(f"{where}: node id {idx} appears more than once")
                try:
                    values[idx] = float(row[1])
                except ValueError:
                    raise InputError(
                        f"{where}: value {row[1].strip()!r} for node {idx} is not a number"
                    ) from None
                seen[idx] = True
    except OSError as exc:
        raise InputError(f"cannot read field file: {exc}") from exc
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{exc} (reading {path})") from None
    if not seen.all():
        raise InputError(f"{path}: {n_nodes - int(seen.sum())} node(s) missing a value")
    return values


def outcome(read, *args):
    """The arrays a reader returns, bit for bit, or its exception's type, text and line."""
    try:
        result = read(*args)
    except Exception as exc:  # every exception type is part of the contract
        return type(exc), str(exc), getattr(exc, "line", None)
    arrays = vars(result).values() if isinstance(result, mesh.Mesh) else [result]
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


# tokens that a float block parse can read where the line reader would not, or
# read differently: a non-integer id, an id past 2**53, digit separators,
# non-finite and out-of-range values, signs, other bases
TOKENS = [
    "1.0", "9007199254740993", "1_0", "nan", "1e500", "-0", "+1", "007", "1e0", "1e",
    "x", "0x1", "1-2", "", "5e-324", "-1", "99", "2", "0.5", "inf", "123456789012345678",
    '"3"', "4 ", "\x1c", "0\x0c", "1E0", "99999999999999999999",
]
# (what, where, line index, token index, token): what is applied to the index-th line of where
MUTATION = st.tuples(
    st.sampled_from(["drop", "repeat", "blank", "pad", "extra", "cut", "token"]),
    st.sampled_from(["body", "any"]),
    st.integers(0, 40),
    st.integers(0, 8),
    st.sampled_from(TOKENS),
)
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
DIFFERENTIAL = settings(max_examples=250, derandomize=True, deadline=None, database=None)


def mutate(lines, body, mutations, sep):
    """Apply each mutation to a copy of ``lines``; ``body`` is the range of data lines."""
    lines = list(lines)
    for what, where, index, token, text in mutations:
        span = range(min(body.stop, len(lines))) if where == "body" else range(len(lines))
        span = span[body.start :] if where == "body" else span
        if not span:
            continue
        i = span[index % len(span)]
        line = lines[i]
        if what == "drop":
            del lines[i]
        elif what == "repeat":
            lines.insert(i, line)
        elif what == "blank":
            lines[i] = " " * (token % 3)
        elif what == "pad":
            lines[i] = [" " + line, line + " ", line.replace(sep, sep + " ", 1),
                        line.replace(sep, "\t", 1), line.replace(sep, " " + sep, 1)][token % 5]
        elif what == "extra":
            lines[i] = line + [sep + "7", sep + "x", " 7"][token % 3]
        elif what == "cut":
            lines[i] = line.rpartition(sep)[0]
        else:
            parts = line.split(sep)
            parts[token % len(parts)] = text
            lines[i] = sep.join(parts)
    return lines


def write(path, lines, newline, final):
    path.write_bytes((newline.join(lines) + (newline if final else "")).encode())
    return path


def msh_lines(order, ntags):
    """A 2x2 square as MSH 2.2 lines, with a point and a line element, and its node line range."""
    square = generate_unit_square(2, 2)
    rng = random.Random(order)
    nodes = [f"{i + 1} {x!r} {y!r} 0" for i, (x, y) in enumerate(square.node_coords.tolist())]
    rng.shuffle(nodes)
    tags = "".join(f" {t}" for t in range(1, ntags + 1))
    elements = [f"2 15 {ntags}{tags} 1", f"3 1 {ntags}{tags} 1 2"]
    elements += [f"{k + 4} 2 {ntags}{tags} {a + 1} {b + 1} {c + 1}" for k, (a, b, c) in enumerate(square.triangles.tolist())]
    rng.shuffle(elements)
    head = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$PhysicalNames", "1", '2 1 "domain"', "$EndPhysicalNames"]
    lines = head + ["$Nodes", str(len(nodes)), *nodes, "$EndNodes"]
    lines += ["$Elements", str(len(elements)), *elements, "$EndElements"]
    start = len(head) + 2
    return lines, range(start, start + len(nodes)), range(start + len(nodes) + 4, len(lines) - 1)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("textio")


class TestImportMshMatchesLineReader:
    # explicit examples: in msh_lines(order=0) node id 1 is on node line 6
    @given(
        order=st.integers(0, 3),
        ntags=st.integers(0, 3),
        node_mutations=st.lists(MUTATION, max_size=1),
        element_mutations=st.lists(MUTATION, max_size=1),
        newline=NEWLINES,
        final=st.booleans(),
    )
    @example(order=0, ntags=2, node_mutations=[("token", "body", 6, 0, "1.0")],
             element_mutations=[], newline="\n", final=True)
    @example(order=0, ntags=2, node_mutations=[("token", "body", 3, 0, "9007199254740993")],
             element_mutations=[], newline="\n", final=True)
    @example(order=0, ntags=2, node_mutations=[("token", "body", 3, 0, "1_0")],
             element_mutations=[], newline="\n", final=True)
    @example(order=0, ntags=2, node_mutations=[("token", "body", 3, 2, "nan")],
             element_mutations=[], newline="\n", final=True)
    @example(order=0, ntags=2, node_mutations=[("token", "body", 3, 1, "1e500")],
             element_mutations=[], newline="\n", final=True)
    @example(order=1, ntags=0, node_mutations=[], element_mutations=[("token", "body", 5, 5, "1e0")],
             newline="\r\n", final=False)
    @example(order=0, ntags=2, node_mutations=[("extra", "body", 2, 0, "")],
             element_mutations=[], newline="\n", final=True)
    @example(order=0, ntags=2, node_mutations=[("token", "body", 2, 0, "99")],
             element_mutations=[], newline="\n", final=True)
    @example(order=0, ntags=2, node_mutations=[("token", "body", 6, 0, "1E0")],
             element_mutations=[], newline="\n", final=True)
    @example(order=0, ntags=2, node_mutations=[("token", "any", 1, 1, "\x1c")],
             element_mutations=[], newline="\n", final=True)
    @DIFFERENTIAL
    def test_mutated_file(self, workdir, order, ntags, node_mutations, element_mutations, newline, final):
        lines, nodes, elements = msh_lines(order, ntags)
        # element lines first: node mutations may shift their indices
        lines = mutate(lines, elements, element_mutations, " ")
        lines = mutate(lines, nodes, node_mutations, " ")
        path = write(workdir / "mutated.msh", lines, newline, final)
        assert outcome(import_msh, path) == outcome(reference_import_msh, path)

    @pytest.mark.parametrize("nodes,triangle", [
        # ids 2**53 and 2**53 + 1 are one float: only an exact read keeps them apart
        (["9007199254740992 0 1 0", "9007199254740993 5 5 0"], "1 2 9007199254740992"),
        (["9007199254740993 0 1 0", "9007199254740992 5 5 0"], "1 2 9007199254740992"),
        # a repeated id keeps its last line
        (["3 0 1 0", "3 0 2 0"], "1 2 3"),
        (["3 0 1 0", "4 0 3 0", "3 0 2 0"], "1 2 3"),
        # as many tokens as regular lines, but one too many on a line and one short on the next
        (["3 0 1 0 7", "4 1 1"], "1 2 3"),
        # ids past int64: accepted on a node no triangle names, an error on a triangle
        (["3 0 1 0", "99999999999999999999 5 5 0"], "1 2 3"),
        (["3 0 1 0"], "1 2 99999999999999999999"),
        (["3 0 1 0"], "1 2 -99999999999999999999"),
        # the smallest unknown id is the one reported
        (["3 0 1 0"], "1 9 8"),
    ], ids=["past-2**53", "past-2**53-swapped", "repeated-id", "repeated-id-apart", "shifted-token",
            "unreferenced-past-int64", "triangle-past-int64", "triangle-below-int64", "unknown-ids"])
    def test_node_lines(self, tmp_path, nodes, triangle):
        nodes = ["1 0 0 0", "2 1 0 0", *nodes]
        lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(len(nodes)), *nodes,
                 "$EndNodes", "$Elements", "1", f"1 2 2 0 1 {triangle}", "$EndElements"]
        path = write(tmp_path / "ids.msh", lines, "\n", True)
        assert outcome(import_msh, path) == outcome(reference_import_msh, path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_regular_file_takes_block_pass(self, tmp_path, monkeypatch, newline):
        lines, _, _ = msh_lines(order=1, ntags=2)
        path = write(tmp_path / "square.msh", lines, newline, True)
        expected = outcome(reference_import_msh, path)

        def line_loop(line, count):
            raise AssertionError("a regular body was read line by line")

        monkeypatch.setattr(mesh, "_node_lines", line_loop)
        monkeypatch.setattr(mesh, "_triangle_lines", line_loop)
        assert outcome(import_msh, path) == expected


CSV_HEADERS = [None, "node_id,value", "id,theta", '"node_id","value"', '"node_id,value', "node_id,value,extra", " ,", "#"]
CSV_VALUES = [0.5, -0.0, 5e-324, 1e300, 1 / 3, 1.0, 0.0, 0.25]


def csv_lines(order, header):
    """Nine ``id,value`` rows in a shuffled order, after an optional header."""
    rng = random.Random(order)
    ids = list(range(9))
    rng.shuffle(ids)
    rows = [f"{i},{CSV_VALUES[i % len(CSV_VALUES)]!r}" for i in ids]
    head = [] if header is None else [header]
    return head + rows, range(len(head), len(head) + len(rows))


class TestReadFieldCsvMatchesRowReader:
    # explicit examples: in csv_lines(order=0) node id 1 is on row 2
    @given(
        order=st.integers(0, 3),
        header=st.sampled_from(CSV_HEADERS),
        mutations=st.lists(MUTATION, min_size=1, max_size=2),
        newline=NEWLINES,
        final=st.booleans(),
    )
    @example(order=0, header="node_id,value", mutations=[("token", "body", 2, 0, "1.0")],
             newline="\n", final=True)
    @example(order=0, header=None, mutations=[("token", "body", 2, 0, "9007199254740993")],
             newline="\n", final=True)
    @example(order=0, header="id,theta", mutations=[("token", "body", 2, 1, "1_0")],
             newline="\r\n", final=True)
    @example(order=0, header="node_id,value", mutations=[("token", "body", 2, 1, "nan")],
             newline="\n", final=False)
    @example(order=0, header="node_id,value", mutations=[("token", "body", 2, 1, "1e500")],
             newline="\n", final=True)
    @example(order=2, header='"node_id","value"', mutations=[("token", "body", 4, 0, '"3"')],
             newline="\n", final=True)
    @example(order=0, header='"node_id,value', mutations=[("pad", "body", 0, 1, "")], newline="\n", final=True)
    @example(order=0, header=None, mutations=[("token", "body", 0, 0, "99")], newline="\n", final=True)
    @example(order=0, header=None, mutations=[("token", "body", 0, 0, "-1")], newline="\n", final=True)
    @example(order=0, header=None, mutations=[("token", "body", 0, 0, "2")], newline="\n", final=True)
    @example(order=0, header=None, mutations=[("token", "body", 2, 0, "1E0")], newline="\n", final=True)
    @DIFFERENTIAL
    def test_mutated_file(self, workdir, order, header, mutations, newline, final):
        lines, body = csv_lines(order, header)
        lines = mutate(lines, body, mutations, ",")
        path = write(workdir / "mutated.csv", lines, newline, final)
        assert outcome(read_field_csv, path, 9) == outcome(reference_read_field_csv, path, 9)

    @pytest.mark.parametrize("header", [None, "node_id,value"])
    def test_regular_file_takes_block_pass(self, tmp_path, header):
        lines, _ = csv_lines(order=3, header=header)
        path = write(tmp_path / "theta.csv", lines, "\n", True)
        assert cli._field_block(path.read_bytes(), 9) is not None
        written = tmp_path / "written.csv"
        write_field_csv(written, np.resize(CSV_VALUES, 9))
        assert cli._field_block(written.read_bytes(), 9) is not None
        for p in (path, written):
            assert outcome(read_field_csv, p, 9) == outcome(reference_read_field_csv, p, 9)

    def test_cell_past_field_size_limit(self, tmp_path):
        # quoted, so the row reader reads it; csv.reader refuses a cell this long
        lines, _ = csv_lines(order=0, header="node_id,value")
        lines[1] = lines[1].split(",")[0] + ',"' + "1" * 140000 + '"'
        path = write(tmp_path / "long.csv", lines, "\n", True)
        assert outcome(read_field_csv, path, 9) == outcome(reference_read_field_csv, path, 9)
