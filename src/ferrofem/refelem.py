"""Reference-triangle basis tabulation and symmetric quadrature rules.

Reference triangle: vertices v0=(0,0), v1=(1,0), v2=(0,1), barycentric
coordinates (l0, l1, l2) = (1-x-y, x, y). Local edge k runs from vertex
(k+1)%3 to vertex (k+2)%3 (edge k lies opposite vertex k).

Families
--------
P0, P1, P2  scalar Lagrange (P0 cell dof, P1 vertex dofs, P2 vertex+edge)
CR          nonconforming linear, edge-midpoint dofs
NE0         lowest-order edge element (Whitney 1-forms), one tangential
            circulation dof per edge
NE1         (P1)^2 edge element with two tangential moments per edge
            (constant and linear Legendre weight)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# local edge k = (EDGE_VERTS[k][0] -> EDGE_VERTS[k][1])
EDGE_VERTS = ((1, 2), (2, 0), (0, 1))

_GRAD_L = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # barycentric gradients


@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric quadrature rule on the reference triangle.

    ``points`` are barycentric, ``weights`` carry the reference-area measure
    (they sum to 1/2), ``degree`` is the highest total polynomial degree
    integrated exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def xy(self) -> np.ndarray:
        """Cartesian coordinates of the quadrature points, shape (nq, 2)."""
        return self.points[:, 1:]


def _orbit1():
    return [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)]


def _orbit3(a):
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def _rule(degree, chunks):
    pts, wts = [], []
    for w, orbit in chunks:
        for p in orbit:
            pts.append(p)
            wts.append(w)
    pts = np.array(pts)
    # published weights are normalized to 1; scale to the reference area 1/2
    wts = 0.5 * np.array(wts)
    return QuadratureRule(points=pts, weights=wts, degree=degree)


# Symmetric Gauss rules with positive weights (midpoint rule for degree 2,
# Dunavant rules above). Odd gaps fall through to the next stocked rule.
_RULES = {
    1: _rule(1, [(1.0, _orbit1())]),
    2: _rule(2, [(1.0 / 3.0, _orbit3(0.5))]),
    4: _rule(
        4,
        [
            (0.223381589678011, _orbit3(0.445948490915965)),
            (0.109951743655322, _orbit3(0.091576213509771)),
        ],
    ),
    5: _rule(
        5,
        [
            (0.225, _orbit1()),
            (0.132394152788506, _orbit3(0.470142064105115)),
            (0.125939180544827, _orbit3(0.101286507323456)),
        ],
    ),
    6: _rule(
        6,
        [
            (0.116786275726379, _orbit3(0.249286745170910)),
            (0.050844906370207, _orbit3(0.063089014491502)),
            (0.082851075618374, _orbit6(0.310352451033785, 0.636502499121399)),
        ],
    ),
    8: _rule(
        8,
        [
            (0.14431560767778716825, _orbit1()),
            (0.09509163426728462479, _orbit3(0.45929258829272315603)),
            (0.10321737053471825028, _orbit3(0.17056930775176020662)),
            (0.03245849762319808031, _orbit3(0.05054722831703097546)),
            (0.02723031417443499426, _orbit6(0.26311282963463811342, 0.72849239295540428124)),
        ],
    ),
}

_STOCKED = sorted(_RULES)
MAX_DEGREE = _STOCKED[-1]


def quadrature(degree: int) -> QuadratureRule:
    """Smallest stocked rule integrating total degree ``degree`` exactly."""
    if degree < 1 or degree > MAX_DEGREE:
        raise ValueError(f"quadrature degree must be in [1, {MAX_DEGREE}], got {degree}")
    for d in _STOCKED:
        if d >= degree:
            return _RULES[d]
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# element families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElementFamily:
    """Local dof count of one reference family, and whether it is a vector (edge) family."""

    n_dofs: int
    vector: bool


FAMILIES = {
    "P0": ElementFamily(1, False),
    "P1": ElementFamily(3, False),
    "P2": ElementFamily(6, False),
    "CR": ElementFamily(3, False),
    "NE0": ElementFamily(3, True),
    "NE1": ElementFamily(6, True),
}


def _bary(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] == 2:
        lam = np.column_stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])
    elif pts.shape[1] == 3:
        lam = pts
    else:
        raise ValueError("points must be cartesian (n,2) or barycentric (n,3)")
    return lam


# NE1 reference basis: coefficients of (c0 + c1 x + c2 y, c3 + c4 x + c5 y)
# per dof, computed once by inverting the moment matrix of the monomials.
def _ne1_coefficients():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    gauss_s = np.array([-1.0, 1.0]) / np.sqrt(3.0)

    def monomials(x, y):
        return np.array(
            [[1, 0], [x, 0], [y, 0], [0, 1], [0, x], [0, y]], dtype=float
        )

    d = np.zeros((6, 6))
    for k, (a, b) in enumerate(EDGE_VERTS):
        mid = 0.5 * (verts[a] + verts[b])
        tau = 0.5 * (verts[b] - verts[a])
        for s in gauss_s:
            x, y = mid + s * tau
            vals = monomials(x, y) @ tau
            d[2 * k, :] += vals
            d[2 * k + 1, :] += vals * s
    return np.linalg.inv(d)


_NE1_COEF = _ne1_coefficients()  # column i: monomial coefficients of basis i


@dataclass(frozen=True)
class BasisValues:
    """Basis tabulation at a point set: values plus gradients or curls."""

    values: np.ndarray  # scalar (ndof, nq); vector (ndof, nq, 2)
    gradients: np.ndarray | None = None  # (ndof, nq, 2)
    curls: np.ndarray | None = None  # (ndof, nq)


def eval_basis(family: str, points) -> BasisValues:
    """Tabulate all local basis functions of ``family`` at reference points.

    Scalar families return values and gradients; edge families return vector
    values and scalar curls. Points may be cartesian (n, 2) or barycentric
    (n, 3).
    """
    lam = _bary(points)
    nq = lam.shape[0]
    if family == "P0":
        return BasisValues(np.ones((1, nq)), np.zeros((1, nq, 2)))
    if family == "P1":
        vals = lam.T.copy()
        grads = np.broadcast_to(_GRAD_L[:, None, :], (3, nq, 2)).copy()
        return BasisValues(vals, grads)
    if family == "P2":
        vals = np.empty((6, nq))
        grads = np.empty((6, nq, 2))
        for i in range(3):
            vals[i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
            grads[i] = (4.0 * lam[:, i, None] - 1.0) * _GRAD_L[i]
        for k, (a, b) in enumerate(EDGE_VERTS):
            vals[3 + k] = 4.0 * lam[:, a] * lam[:, b]
            grads[3 + k] = 4.0 * (
                lam[:, a, None] * _GRAD_L[b] + lam[:, b, None] * _GRAD_L[a]
            )
        return BasisValues(vals, grads)
    if family == "CR":
        vals = np.empty((3, nq))
        grads = np.empty((3, nq, 2))
        for k in range(3):
            vals[k] = 1.0 - 2.0 * lam[:, k]
            grads[k] = np.broadcast_to(-2.0 * _GRAD_L[k], (nq, 2))
        return BasisValues(vals, grads)
    if family == "NE0":
        vals = np.empty((3, nq, 2))
        curls = np.empty((3, nq))
        for k, (a, b) in enumerate(EDGE_VERTS):
            vals[k] = lam[:, a, None] * _GRAD_L[b] - lam[:, b, None] * _GRAD_L[a]
            cross = _GRAD_L[a, 0] * _GRAD_L[b, 1] - _GRAD_L[a, 1] * _GRAD_L[b, 0]
            curls[k] = 2.0 * cross
        return BasisValues(vals, curls=curls)
    if family == "NE1":
        x = lam[:, 1]
        y = lam[:, 2]
        mono = np.stack(
            [
                np.stack([np.ones(nq), np.zeros(nq)], axis=1),
                np.stack([x, np.zeros(nq)], axis=1),
                np.stack([y, np.zeros(nq)], axis=1),
                np.stack([np.zeros(nq), np.ones(nq)], axis=1),
                np.stack([np.zeros(nq), x], axis=1),
                np.stack([np.zeros(nq), y], axis=1),
            ]
        )  # (6, nq, 2)
        vals = np.einsum("mi,mqc->iqc", _NE1_COEF, mono)
        # curl(c0+c1x+c2y, c3+c4x+c5y) = c4 - c2
        curl_per_dof = _NE1_COEF[4, :] - _NE1_COEF[2, :]
        curls = np.broadcast_to(curl_per_dof[:, None], (6, nq)).copy()
        return BasisValues(vals, curls=curls)
    raise ValueError(f"unknown element family {family!r}")
