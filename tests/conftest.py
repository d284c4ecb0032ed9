import numpy as np
import pytest

from ferrofem import mesh2d, verify

_ACCEPTANCE_LINES = []


def record_acceptance(line: str):
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


_build_uniform_square = mesh2d.build_uniform_square  # kept for monkeypatched runs


def _jittered_square(n: int, seed: int = 0):
    """Uniform N x N mesh with every interior vertex moved by a seeded uniform
    +-0.25 h in each coordinate (h = 1/N), so no two elements share a Jacobian."""
    mesh = _build_uniform_square(n)
    vertices = mesh.vertices.copy()
    inner = ~mesh.boundary_vertex
    rng = np.random.default_rng([seed, n])
    vertices[inner] += rng.uniform(-0.25 / n, 0.25 / n, size=(int(inner.sum()), 2))
    return mesh2d.from_arrays(vertices, mesh.triangles)


def shuffled(mesh, perm):
    """Copy of the mesh with its triangles listed in a different order.

    The global edge numbering is unchanged; only the element traversal order
    differs. Used to check assembly-order independence.
    """
    return mesh2d.from_arrays(mesh.vertices, mesh.triangles[np.asarray(perm, dtype=np.int64)])


@pytest.fixture
def jittered_square():
    """Builder ``(n, seed=0) -> Mesh2D`` of a seeded jittered unit-square mesh."""
    return _jittered_square


@pytest.fixture(scope="session")
def l0_full_study():
    """The six-level lowest-order study shared by the table-based criteria."""
    import time

    t0 = time.time()
    report = verify.run_convergence_study("l0", [4, 8, 16, 32, 64, 128])
    report.elapsed = time.time() - t0
    return report


@pytest.fixture(scope="session")
def l1_study():
    import time

    t0 = time.time()
    report = verify.run_convergence_study("l1", [4, 8, 16, 32])
    report.elapsed = time.time() - t0
    return report
