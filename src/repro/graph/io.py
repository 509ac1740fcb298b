"""Graph serialisation and interoperability helpers.

Formats
-------
* **edge list** — one ``u v`` pair per line, ``#``-prefixed comments, plus an
  optional header block carrying vertex attributes.  This is the format used
  to snapshot corpus graphs on disk.
* **JSON** — a dictionary with explicit vertex/edge/attribute lists; round
  trips every attribute.
* **DOT** — write-only, for eyeballing graphs in Graphviz.
* **networkx** — conversion in both directions (``width``/``label`` become
  node attributes) so the wider ecosystem of generators and analysis tools is
  one call away.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.graph.digraph import DEFAULT_VERTEX_WIDTH, DiGraph
from repro.utils.exceptions import GraphError

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "to_networkx",
    "from_networkx",
    "write_edgelist",
    "read_edgelist",
    "to_json_dict",
    "from_json_dict",
    "write_json",
    "read_json",
    "write_dot",
]


# --------------------------------------------------------------------------- #
# networkx interop
# --------------------------------------------------------------------------- #


def to_networkx(graph: DiGraph) -> nx.DiGraph:
    """Convert to :class:`networkx.DiGraph`, carrying ``width`` and ``label`` node attrs."""
    # Imported on first use: networkx takes a sizeable share of the
    # package's import time, and only the converters use it.
    import networkx as nx

    g = nx.DiGraph()
    for v in graph.vertices():
        g.add_node(v, width=graph.vertex_width(v), label=graph.vertex_label(v))
    g.add_edges_from(graph.edges())
    return g


def from_networkx(g: nx.DiGraph) -> DiGraph:
    """Convert from :class:`networkx.DiGraph` (or ``MultiDiGraph``; parallel edges collapse).

    Node attributes ``width`` and ``label`` are honoured when present.
    """
    if not g.is_directed():
        raise GraphError("from_networkx expects a directed networkx graph")
    out = DiGraph()
    for v, data in g.nodes(data=True):
        out.add_vertex(
            v,
            width=float(data.get("width", DEFAULT_VERTEX_WIDTH)),
            label=data.get("label"),
        )
    for u, v in g.edges():
        if u == v:
            continue
        if not out.has_edge(u, v):
            out.add_edge(u, v)
    return out


# --------------------------------------------------------------------------- #
# edge-list format
# --------------------------------------------------------------------------- #

# Whitespace is what separates the fields of a record, so any whitespace
# *inside* an id or label must be escaped — the previous writer emitted it
# raw, which silently corrupted the read-back (``read_edgelist`` took only
# the first whitespace-delimited token of a label).  The escapes must cover
# *every* character ``str.isspace()`` accepts (``str.split`` and
# ``str.splitlines`` honour Unicode whitespace such as NBSP or U+2028, not
# just ASCII), so anything spacey without a one-letter escape becomes a
# ``\\uXXXX`` / ``\\UXXXXXXXX`` code-point escape.  Backslash is escaped to
# keep the scheme reversible, and a label consisting of the single character
# ``-`` is written ``\\-`` to distinguish it from the ``-`` placeholder
# meaning "no label", and an empty string is written ``\\e`` so the field
# does not vanish from the record.
_FIELD_ESCAPES = {"\\": "\\\\", " ": "\\s", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_FIELD_UNESCAPES = {"\\": "\\", "s": " ", "t": "\t", "n": "\n", "r": "\r", "-": "-", "e": ""}


def _escape_field(text: str) -> str:
    if text == "-":
        return "\\-"
    if text == "":
        return "\\e"
    out: list[str] = []
    for ch in text:
        if ch in _FIELD_ESCAPES:
            out.append(_FIELD_ESCAPES[ch])
        elif ch.isspace():
            code = ord(ch)
            out.append(f"\\u{code:04x}" if code <= 0xFFFF else f"\\U{code:08x}")
        else:
            out.append(ch)
    return "".join(out)


def _unescape_field(token: str, context: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(token):
        ch = token[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(token):
            raise GraphError(f"{context}: invalid escape in field {token!r}")
        kind = token[i + 1]
        if kind in _FIELD_UNESCAPES:
            out.append(_FIELD_UNESCAPES[kind])
            i += 2
        elif kind in ("u", "U"):
            width = 4 if kind == "u" else 8
            digits = token[i + 2 : i + 2 + width]
            if len(digits) != width:
                raise GraphError(f"{context}: invalid escape in field {token!r}")
            try:
                out.append(chr(int(digits, 16)))
            except ValueError:
                raise GraphError(f"{context}: invalid escape in field {token!r}") from None
            i += 2 + width
        else:
            raise GraphError(f"{context}: invalid escape in field {token!r}")
    return "".join(out)


def write_edgelist(graph: DiGraph, path: str | Path) -> None:
    """Write *graph* as a plain-text edge list with a vertex-attribute header.

    Format::

        # repro edgelist v1
        V <vertex> <width> <label-or-`-`>
        ...
        E <u> <v>
        ...

    Vertex names are written with ``str()``; reading back therefore yields
    string vertex ids (documented behaviour, matching common edge-list tools).
    Whitespace and backslashes inside ids and labels are escaped (``\\s``,
    ``\\t``, ``\\n``, ``\\r``, ``\\\\``; a literal ``-`` label is written
    ``\\-``), so ``write -> read`` preserves them instead of corrupting the
    fields; files written before the escaping existed read back unchanged as
    long as their fields contained no backslash.
    """
    path = Path(path)
    lines = ["# repro edgelist v1"]
    for v in graph.vertices():
        label = graph.vertex_label(v)
        encoded_label = "-" if label is None else _escape_field(label)
        lines.append(
            f"V {_escape_field(str(v))} {graph.vertex_width(v)} {encoded_label}"
        )
    for u, v in graph.edges():
        lines.append(f"E {_escape_field(str(u))} {_escape_field(str(v))}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_edgelist(path: str | Path) -> DiGraph:
    """Read a graph written by :func:`write_edgelist` (vertex ids become strings)."""
    path = Path(path)
    g = DiGraph()
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        context = f"{path}:{lineno}"
        if parts[0] == "V":
            if len(parts) < 3 or len(parts) > 4:
                raise GraphError(f"{context}: malformed vertex line {raw!r}")
            label = (
                None
                if len(parts) < 4 or parts[3] == "-"
                else _unescape_field(parts[3], context)
            )
            g.add_vertex(
                _unescape_field(parts[1], context), width=float(parts[2]), label=label
            )
        elif parts[0] == "E":
            if len(parts) != 3:
                raise GraphError(f"{context}: malformed edge line {raw!r}")
            g.add_edge(
                _unescape_field(parts[1], context), _unescape_field(parts[2], context)
            )
        else:
            raise GraphError(f"{context}: unknown record type {parts[0]!r}")
    return g


# --------------------------------------------------------------------------- #
# JSON format
# --------------------------------------------------------------------------- #


def to_json_dict(graph: DiGraph) -> dict[str, Any]:
    """Return a JSON-serialisable dictionary representation of *graph*."""
    return {
        "format": "repro-digraph",
        "version": 1,
        "vertices": [
            {"id": v, "width": graph.vertex_width(v), "label": graph.vertex_label(v)}
            for v in graph.vertices()
        ],
        "edges": [[u, v] for u, v in graph.edges()],
    }


def from_json_dict(data: dict[str, Any]) -> DiGraph:
    """Rebuild a graph from :func:`to_json_dict` output."""
    if data.get("format") != "repro-digraph":
        raise GraphError(f"not a repro-digraph JSON document: format={data.get('format')!r}")
    g = DiGraph()
    for rec in data["vertices"]:
        vid = rec["id"]
        # JSON keys round-trip lists to lists; vertex ids must stay hashable.
        if isinstance(vid, list):
            vid = tuple(vid)
        g.add_vertex(vid, width=float(rec.get("width", DEFAULT_VERTEX_WIDTH)), label=rec.get("label"))
    for u, v in data["edges"]:
        if isinstance(u, list):
            u = tuple(u)
        if isinstance(v, list):
            v = tuple(v)
        g.add_edge(u, v)
    return g


def write_json(graph: DiGraph, path: str | Path) -> None:
    """Serialise *graph* to a JSON file."""
    Path(path).write_text(json.dumps(to_json_dict(graph), indent=2), encoding="utf-8")


def read_json(path: str | Path) -> DiGraph:
    """Load a graph from a JSON file produced by :func:`write_json`."""
    return from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# --------------------------------------------------------------------------- #
# DOT (write-only)
# --------------------------------------------------------------------------- #


def _dot_quote(value: Any) -> str:
    """Quote a string per the DOT grammar.

    Inside a double-quoted DOT ID only ``"`` needs escaping, but a trailing
    backslash (or any backslash sequence Graphviz treats as an escape) would
    change meaning or break the closing quote, so backslashes are escaped
    too; newlines become the ``\\n`` escape Graphviz renders as a line break.
    """
    escaped = (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\r\n", "\\n")
        .replace("\n", "\\n")
        .replace("\r", "\\n")
    )
    return f'"{escaped}"'


#: Words the DOT grammar reserves (case-insensitively); they must be quoted
#: even though they look like legal bare identifiers.
_DOT_KEYWORDS = frozenset({"graph", "digraph", "subgraph", "node", "edge", "strict"})


def _dot_id(value: str) -> str:
    """A DOT ID: bare when it is a legal bare identifier, quoted otherwise."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", value) and value.lower() not in _DOT_KEYWORDS:
        return value
    return _dot_quote(value)


def write_dot(graph: DiGraph, path: str | Path, *, name: str = "G") -> None:
    """Write a Graphviz DOT representation (labels and widths become attributes).

    Vertex ids, labels and the graph *name* are quoted and escaped per the
    DOT grammar, so ids or labels containing ``"``, backslashes or newlines
    produce well-formed output.
    """
    lines = [f"digraph {_dot_id(name)} {{"]
    for v in graph.vertices():
        label = graph.vertex_label(v)
        attrs = [f'width="{graph.vertex_width(v)}"']
        if label is not None:
            attrs.append(f"label={_dot_quote(label)}")
        lines.append(f'  {_dot_quote(v)} [{", ".join(attrs)}];')
    for u, v in graph.edges():
        lines.append(f"  {_dot_quote(u)} -> {_dot_quote(v)};")
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
