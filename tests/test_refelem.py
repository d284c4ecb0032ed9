import math

import numpy as np
import pytest

from ferrofem import refelem


def exact_monomial_integral(a, b):
    # int over the reference triangle of x^a y^b
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", range(1, 9))
def test_quadrature_integrates_monomials_exactly(degree):
    rule = refelem.quadrature(degree)
    assert rule.degree >= degree
    x, y, w = rule.points[:, 1], rule.points[:, 2], rule.weights
    for a in range(rule.degree + 1):
        for b in range(rule.degree + 1 - a):
            got = float((w * x**a * y**b).sum())
            assert got == pytest.approx(exact_monomial_integral(a, b), abs=1e-14)


@pytest.mark.parametrize("degree", range(1, 9))
def test_quadrature_weights_positive_sum_half(degree):
    rule = refelem.quadrature(degree)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-15)


def test_degree_one_is_centroid_rule():
    rule = refelem.quadrature(1)
    assert rule.n_points == 1
    assert np.allclose(rule.points, 1.0 / 3.0)
    assert rule.weights[0] == pytest.approx(0.5, abs=1e-16)


def test_degree_two_is_midpoint_rule():
    rule = refelem.quadrature(2)
    assert rule.n_points == 3
    assert np.allclose(sorted(rule.points.ravel()), [0] * 3 + [0.5] * 6)
    assert np.allclose(rule.weights, 1.0 / 6.0)
    # int x^2 over the reference triangle
    x = rule.points[:, 1]
    assert float((rule.weights * x * x).sum()) == pytest.approx(1.0 / 12.0, abs=1e-16)


def test_quadrature_rejects_out_of_range():
    with pytest.raises(ValueError):
        refelem.quadrature(9)
    with pytest.raises(ValueError):
        refelem.quadrature(0)


def test_p1_nodal_kronecker():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    bv = refelem.eval_basis("P1", verts)
    assert np.allclose(bv.values, np.eye(3), atol=1e-15)


def test_p2_nodal_kronecker():
    verts = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    mids = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])  # edge k opposite vertex k
    bv = refelem.eval_basis("P2", np.vstack([verts, mids]))
    assert np.allclose(bv.values, np.eye(6), atol=1e-14)


def test_cr_midpoint_kronecker():
    mids = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])
    bv = refelem.eval_basis("CR", mids)
    assert np.allclose(bv.values, np.eye(3), atol=1e-15)


@pytest.mark.parametrize("family", ["P1", "P2", "CR"])
def test_partition_of_unity(family):
    rule = refelem.quadrature(6)
    bv = refelem.eval_basis(family, rule.points)
    assert np.allclose(bv.values.sum(axis=0), 1.0, atol=1e-14)


def test_p1_gradients_sum_to_zero():
    rule = refelem.quadrature(4)
    bv = refelem.eval_basis("P1", rule.points)
    assert np.allclose(bv.gradients.sum(axis=0), 0.0, atol=1e-15)


def _edge_gauss_points(k):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    a, b = refelem.EDGE_VERTS[k]
    mid = 0.5 * (verts[a] + verts[b])
    tau = 0.5 * (verts[b] - verts[a])
    s = np.array([-1.0, 1.0]) / np.sqrt(3.0)
    return mid[None, :] + s[:, None] * tau[None, :], tau


@pytest.mark.parametrize("family", ["NE0", "NE1"])
def test_edge_dual_basis_property(family):
    # 2-point Gauss tangential moments reproduce the Kronecker pattern
    fam = refelem.FAMILIES[family]
    n_moments = fam.n_dofs // 3  # tangential moments per edge
    mat = np.zeros((fam.n_dofs, fam.n_dofs))
    for k in range(3):
        pts, tau = _edge_gauss_points(k)
        bv = refelem.eval_basis(family, pts)
        vt = np.einsum("iqc,c->iq", bv.values, tau)
        for s_idx in range(n_moments):
            weight = np.ones(2) if s_idx == 0 else np.array([-1.0, 1.0]) / np.sqrt(3.0)
            mat[:, n_moments * k + s_idx] = vt @ weight
    assert np.allclose(mat, np.eye(fam.n_dofs), atol=1e-13)


@pytest.mark.parametrize("family", ["NE0", "NE1"])
def test_edge_basis_curls_constant(family):
    rule = refelem.quadrature(6)
    bv = refelem.eval_basis(family, rule.points)
    spread = np.abs(bv.curls - bv.curls[:, :1]).max()
    assert spread <= 1e-14


def test_whitney_curl_value():
    bv = refelem.eval_basis("NE0", [[0.3, 0.2]])
    assert np.allclose(bv.curls, 2.0, atol=1e-15)


def test_grad_p1_inside_ne0_span():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.05, 0.4, size=(20, 2))
    ne0 = refelem.eval_basis("NE0", pts).values  # (3, 20, 2)
    p1g = refelem.eval_basis("P1", pts).gradients
    basis = ne0.reshape(3, -1).T
    for i in range(3):
        target = p1g[i].reshape(-1)
        _, res, _, _ = np.linalg.lstsq(basis, target, rcond=None)
        resid = np.linalg.norm(basis @ np.linalg.lstsq(basis, target, rcond=None)[0] - target)
        assert resid < 1e-12


def test_grad_p2_inside_ne1_span():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.05, 0.4, size=(20, 2))
    ne1 = refelem.eval_basis("NE1", pts).values
    p2g = refelem.eval_basis("P2", pts).gradients
    basis = ne1.reshape(6, -1).T
    for i in range(6):
        target = p2g[i].reshape(-1)
        fit = np.linalg.lstsq(basis, target, rcond=None)[0]
        assert np.linalg.norm(basis @ fit - target) < 1e-12


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        refelem.eval_basis("P7", [[0.1, 0.1]])
