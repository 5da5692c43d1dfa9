"""Mesh file I/O: Wavefront OBJ (text) and PLY (binary little-endian).

Lets users round-trip meshes with external tools — the role Sketchfab
downloads played in the paper's Sec. 4.3 experiment.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Union

import numpy as np

from repro.mesh.model import TriangleMesh

PathLike = Union[str, Path]


def save_obj(mesh: TriangleMesh, path: PathLike) -> None:
    """Write a mesh as Wavefront OBJ (1-indexed faces)."""
    lines = [f"# {mesh.name}: {mesh.vertex_count} vertices, "
             f"{mesh.triangle_count} triangles"]
    for v in mesh.vertices:
        lines.append(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}")
    for f in mesh.faces:
        lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_obj(path: PathLike) -> TriangleMesh:
    """Read a (triangulated) Wavefront OBJ.

    Supports ``v x y z`` and ``f a b c`` records, with the usual
    ``a/b/c``-style index suffixes ignored.

    Raises:
        ValueError: On non-triangular faces or malformed records.
    """
    vertices = []
    faces = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise ValueError(f"line {line_no}: malformed vertex")
            vertices.append([float(x) for x in parts[1:4]])
        elif parts[0] == "f":
            if len(parts) != 4:
                raise ValueError(
                    f"line {line_no}: only triangles supported"
                )
            faces.append([
                int(token.split("/")[0]) - 1 for token in parts[1:4]
            ])
    name = Path(path).stem
    return TriangleMesh(np.asarray(vertices), np.asarray(faces, dtype=np.int32),
                        name=name)


_PLY_HEADER = """ply
format binary_little_endian 1.0
comment {name}
element vertex {nv}
property float x
property float y
property float z
element face {nf}
property list uchar int vertex_indices
end_header
"""


def save_ply(mesh: TriangleMesh, path: PathLike) -> None:
    """Write a mesh as binary little-endian PLY."""
    header = _PLY_HEADER.format(
        name=mesh.name, nv=mesh.vertex_count, nf=mesh.triangle_count
    ).encode("ascii")
    body = mesh.vertices.astype("<f4").tobytes()
    face_records = bytearray()
    for f in mesh.faces:
        face_records += struct.pack("<Biii", 3, int(f[0]), int(f[1]), int(f[2]))
    Path(path).write_bytes(header + body + bytes(face_records))


def load_ply(path: PathLike) -> TriangleMesh:
    """Read a binary little-endian PLY written by :func:`save_ply`.

    Raises:
        ValueError: On headers this minimal reader does not understand.
    """
    data = Path(path).read_bytes()
    end = data.find(b"end_header\n")
    if end == -1:
        raise ValueError("missing PLY end_header")
    header = data[:end].decode("ascii", errors="replace")
    if "binary_little_endian" not in header:
        raise ValueError("only binary little-endian PLY supported")
    nv = nf = None
    for line in header.splitlines():
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            nv = int(parts[2])
        elif parts[:2] == ["element", "face"]:
            nf = int(parts[2])
    if nv is None or nf is None:
        raise ValueError("PLY header missing element counts")
    offset = end + len(b"end_header\n")
    vertices = np.frombuffer(
        data, dtype="<f4", count=nv * 3, offset=offset
    ).reshape(nv, 3).astype(np.float64)
    offset += nv * 12
    faces = np.zeros((nf, 3), dtype=np.int32)
    for i in range(nf):
        count = data[offset]
        if count != 3:
            raise ValueError("only triangle faces supported")
        faces[i] = struct.unpack_from("<iii", data, offset + 1)
        offset += 13
    return TriangleMesh(vertices, faces, name=Path(path).stem)
