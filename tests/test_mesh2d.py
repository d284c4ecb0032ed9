import numpy as np
import pytest

from conftest import shuffled
from ferrofem import mesh2d


def test_smallest_mesh_counts():
    m = mesh2d.build_uniform_square(1)
    assert m.n_vertices == 4
    assert m.n_triangles == 2
    assert m.n_edges == 5


def test_n4_counts_and_euler():
    m = mesh2d.build_uniform_square(4)
    assert m.n_vertices == 25
    assert m.n_triangles == 32
    assert m.n_edges == 56
    assert m.n_vertices - m.n_edges + m.n_triangles == 1


def test_n4_uniform_areas():
    m = mesh2d.build_uniform_square(4)
    assert np.allclose(m.areas, 1.0 / 32.0, rtol=0, atol=1e-15)
    assert abs(m.areas.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_closed_form_counts_euler_orientation(n):
    m = mesh2d.build_uniform_square(n)
    assert m.n_vertices == (n + 1) ** 2
    assert m.n_triangles == 2 * n * n
    assert m.n_edges == 3 * n * n + 2 * n
    assert m.n_vertices - m.n_edges + m.n_triangles == 1
    # orientation signs: +1 exactly when the local traversal runs low -> high
    a = np.stack([m.triangles[:, 1], m.triangles[:, 2], m.triangles[:, 0]], axis=1)
    b = np.stack([m.triangles[:, 2], m.triangles[:, 0], m.triangles[:, 1]], axis=1)
    lo = m.edges[m.tri_edges][:, :, 0]
    hi = m.edges[m.tri_edges][:, :, 1]
    pos = m.tri_edge_signs == 1
    assert np.array_equal(np.where(pos, a, b), lo)
    assert np.array_equal(np.where(pos, b, a), hi)


def test_edge_orientation_low_to_high():
    m = mesh2d.build_uniform_square(8)
    assert np.all(m.edges[:, 0] < m.edges[:, 1])


def test_interior_edges_shared_by_two_triangles():
    m = mesh2d.build_uniform_square(5)
    counts = np.bincount(m.tri_edges.ravel(), minlength=m.n_edges)
    assert np.array_equal(counts == 1, m.boundary_edge)
    assert set(np.unique(counts)) == {1, 2}
    assert m.boundary_edge.sum() == 4 * 5


def test_boundary_vertices_match_coordinates():
    m = mesh2d.build_uniform_square(7)
    coord = (
        (np.abs(m.vertices) < 1e-12) | (np.abs(m.vertices - 1.0) < 1e-12)
    ).any(axis=1)
    assert np.array_equal(coord, m.boundary_vertex)


def test_mesh_size_values():
    assert mesh2d.mesh_size(mesh2d.build_uniform_square(4)) == pytest.approx(
        np.sqrt(2.0) / 4.0, abs=1e-15
    )
    assert mesh2d.mesh_size(mesh2d.build_uniform_square(1)) == pytest.approx(
        np.sqrt(2.0), abs=1e-15
    )


def test_mesh_size_halves_on_refinement():
    h4 = mesh2d.mesh_size(mesh2d.build_uniform_square(4))
    h8 = mesh2d.mesh_size(mesh2d.build_uniform_square(8))
    assert h8 == pytest.approx(h4 / 2.0, abs=1e-15)


def test_rejects_level_zero():
    with pytest.raises(ValueError):
        mesh2d.build_uniform_square(0)


def test_rejects_inverted_triangle():
    with pytest.raises(ValueError, match="positive signed area"):
        mesh2d.from_arrays([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])


def test_diagonal_direction_lower_left_to_upper_right():
    m = mesh2d.build_uniform_square(1)
    # the diagonal edge connects (0,0) and (1,1)
    diag = [e for e in m.edges if not np.isclose(
        np.linalg.norm(m.vertices[e[1]] - m.vertices[e[0]]), 1.0)]
    assert len(diag) == 1
    endpoints = m.vertices[diag[0]]
    assert np.allclose(sorted(endpoints[:, 0]), [0, 1])
    assert np.allclose(endpoints[0], endpoints[0][::-1])  # on the main diagonal


def test_shuffled_preserves_edges_and_topology():
    m = mesh2d.build_uniform_square(4)
    rng = np.random.default_rng(3)
    perm = rng.permutation(m.n_triangles)
    ms = shuffled(m, perm)
    assert np.array_equal(ms.edges, m.edges)
    assert np.array_equal(ms.boundary_edge, m.boundary_edge)
    assert np.array_equal(ms.triangles, m.triangles[perm])
