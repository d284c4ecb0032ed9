"""Conforming triangulations of the unit square with oriented edge topology.

The solver only ever runs on structured N x N meshes of the unit square,
split along the lower-left to upper-right diagonal, but the mesh container
accepts any conforming triangle list (used by tests to build single-element
meshes and shuffled-element copies).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Mesh2D:
    """Immutable triangle mesh with globally oriented edges.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex indices, counterclockwise.
    edges : (ne, 2) int array
        Unique edges, oriented low vertex index -> high vertex index,
        sorted lexicographically.
    tri_edges : (nt, 3) int array
        Global edge index of the local edge opposite each local vertex.
        Local edge k runs from vertex (k+1)%3 to vertex (k+2)%3.
    tri_edge_signs : (nt, 3) int array
        +1 where the local traversal agrees with the global low->high
        orientation, -1 otherwise.
    boundary_vertex, boundary_edge : bool arrays
        Topological boundary flags (edge incident to exactly one triangle).
    jac, jac_inv, det : per-triangle affine map data
        ``x = jac @ x_ref + vertices[t0]``; ``det`` is twice the area.
    patterns : dict
        Sparsity patterns of the matrices assembled on this mesh, filled by
        :mod:`fespace` on first use, so they live and die with the mesh.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    tri_edges: np.ndarray
    tri_edge_signs: np.ndarray
    boundary_vertex: np.ndarray
    boundary_edge: np.ndarray
    jac: np.ndarray
    jac_inv: np.ndarray
    det: np.ndarray
    patterns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def areas(self) -> np.ndarray:
        return 0.5 * self.det

    def edge_midpoints(self) -> np.ndarray:
        return 0.5 * (self.vertices[self.edges[:, 0]] + self.vertices[self.edges[:, 1]])

    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)


def from_arrays(vertices, triangles) -> Mesh2D:
    """Build the full mesh topology from raw vertex/triangle arrays.

    Triangles must be counterclockwise; degenerate or inverted triangles are
    rejected.
    """
    vertices = np.ascontiguousarray(vertices, dtype=float)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValueError("vertices must be an (nv, 2) array")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise ValueError("triangles must be an (nt, 3) array")

    p0 = vertices[triangles[:, 0]]
    jac = np.stack(
        [vertices[triangles[:, 1]] - p0, vertices[triangles[:, 2]] - p0], axis=2
    )
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    if np.any(det <= 0.0):
        raise ValueError("all triangles must have positive signed area (CCW)")
    jac_inv = np.empty_like(jac)
    jac_inv[:, 0, 0] = jac[:, 1, 1] / det
    jac_inv[:, 0, 1] = -jac[:, 0, 1] / det
    jac_inv[:, 1, 0] = -jac[:, 1, 0] / det
    jac_inv[:, 1, 1] = jac[:, 0, 0] / det

    # local edge k = (v_{k+1}, v_{k+2}); orient globally low -> high index
    nv = vertices.shape[0]
    a = np.stack([triangles[:, 1], triangles[:, 2], triangles[:, 0]], axis=1)
    b = np.stack([triangles[:, 2], triangles[:, 0], triangles[:, 1]], axis=1)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    keys = lo.ravel() * nv + hi.ravel()
    uniq, inverse = np.unique(keys, return_inverse=True)
    edges = np.stack([uniq // nv, uniq % nv], axis=1)
    tri_edges = inverse.reshape(-1, 3)
    tri_edge_signs = np.where(a < b, 1, -1).astype(np.int64)

    counts = np.bincount(tri_edges.ravel(), minlength=edges.shape[0])
    if counts.max() > 2:
        raise ValueError("non-manifold edge: shared by more than two triangles")
    boundary_edge = counts == 1
    boundary_vertex = np.zeros(nv, dtype=bool)
    boundary_vertex[edges[boundary_edge].ravel()] = True

    return Mesh2D(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        tri_edges=tri_edges,
        tri_edge_signs=tri_edge_signs,
        boundary_vertex=boundary_vertex,
        boundary_edge=boundary_edge,
        jac=jac,
        jac_inv=jac_inv,
        det=det,
    )


def build_uniform_square(n: int) -> Mesh2D:
    """N x N uniform triangulation of the unit square.

    Every cell is split along the lower-left to upper-right diagonal, giving
    (n+1)^2 vertices, 2 n^2 triangles and 3 n^2 + 2 n edges with mesh size
    sqrt(2)/n.
    """
    if n < 1:
        raise ValueError(f"mesh level must be a positive integer, got {n}")
    coords = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.stack([xg.ravel(), yg.ravel()], axis=1)

    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ll = (iy * (n + 1) + ix).ravel()
    lr = ll + 1
    ul = ll + (n + 1)
    ur = ul + 1
    lower = np.stack([ll, lr, ur], axis=1)
    upper = np.stack([ll, ur, ul], axis=1)
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper
    return from_arrays(vertices, triangles)


def mesh_size(mesh: Mesh2D) -> float:
    """Largest triangle diameter (longest edge over all triangles)."""
    d = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    return float(np.sqrt((d * d).sum(axis=1)).max())
