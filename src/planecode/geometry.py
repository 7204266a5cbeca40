"""Oriented planes and the spherical encoding of their normals.

A plane is a unit normal plus a signed offset: the point set
``{p : omega . p = h}``.  The normal makes it oriented; the closed
half-space behind the normal (``omega . p <= h``) is written e- and the
open half-space ahead of it e+.  Normals serialize as two angles
``(nu, phi)``: the polar angle from +z in ``[0, pi]`` and the azimuth
from +x in ``[0, 2*pi)``.

``check_triplets`` holds the one range check: nu in ``[0, pi]``, phi in
``[0, 2*pi)``, h finite.  The ``SphericalDirection`` and
``OrientedPlane`` constructors run it on every value they are given;
``PlaneSet`` runs it once per stored array, and the plane views it
hands out trust that check instead of repeating it.

Rounding contract.  Every batch routine here gives the same bits as the
one-row code it replaced, so plane codes stay byte-stable.  Row dot
products go through a stacked ``np.matmul`` of shape (n,1,3)@(n,3,1)
(``row_dots``), which rounds like the 1-D ``a @ b``; ``np.einsum`` and
elementwise sums do not.  The trigonometry of ``angle_rows`` stays on
``math.acos`` and ``math.atan2`` per row, because numpy's SIMD
``arccos`` and ``arctan2`` differ from libm by an ulp on some inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTriangle, NotUnitVector

EPS_AREA = 1e-12
EPS_UNIT = 1e-9
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SphericalDirection:
    """Unit direction as (polar, azimuth) angles in radians.

    ``nu`` is measured from +z and stays in ``[0, pi]``; ``phi`` is the
    azimuth in ``[0, 2*pi)``.  At the poles ``phi`` carries no
    information and is fixed to 0 by the conversion functions, so equal
    directions always compare equal.
    """

    nu: float
    phi: float

    def __post_init__(self):
        check_triplets([(self.nu, self.phi, 0.0)])


@dataclass(frozen=True)
class OrientedPlane:
    """The pair (direction, h): unit normal and signed origin distance."""

    direction: SphericalDirection
    h: float

    def __post_init__(self):
        check_triplets([(0.0, 0.0, self.h)])

    @property
    def normal(self):
        return unit_vector_from_spherical(self.direction)

    def signed_distance(self, points):
        """omega . p - h, vectorized over leading axes of ``points``."""
        p = np.asarray(points, dtype=float)
        return p @ self.normal - self.h

    def negated(self):
        """The same plane with the opposite orientation (omega, h -> -omega, -h)."""
        return OrientedPlane(spherical_from_unit_vector(-self.normal), -self.h)


def check_triplets(triplets):
    """Raise ValueError unless every (nu, phi, h) row is in range.

    nu must lie in [0, pi], phi in [0, 2*pi) and h must be finite.  The
    error names the first offending value of the first offending row
    and carries that row's index as ``row``.
    """
    t = np.asarray(triplets, dtype=float).reshape(-1, 3)
    nu, phi, h = t[:, 0], t[:, 1], t[:, 2]
    checks = (
        ((nu >= 0.0) & (nu <= math.pi), nu, "nu %r outside [0, pi]"),
        ((phi >= 0.0) & (phi < TWO_PI), phi, "phi %r outside [0, 2*pi)"),
        (np.isfinite(h), h, "h must be finite, got %r"),
    )
    bad = ~(checks[0][0] & checks[1][0] & checks[2][0])
    if bad.any():
        row = int(np.argmax(bad))
        _, values, msg = next(c for c in checks if not c[0][row])
        exc = ValueError(msg % (float(values[row]),))
        exc.row = row
        raise exc


def row_dots(a, b):
    """Dot products of matching rows of two (n, 3) arrays.

    Each one rounds as the 1-D ``a[i] @ b[i]`` does (see the module
    docstring).
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def angle_rows(w):
    """(nu, phi) of each row of an (n, 3) array of unit vectors, as an (n, 2) array.

    nu = arccos(w_z).  phi comes from the two-argument arctangent of
    (w_y, w_x) folded into [0, 2*pi); a single-argument arccos recovery
    would be sign-ambiguous in w_y.  The norms are checked in one batch:
    NotUnitVector names the first row whose norm is off by more than
    EPS_UNIT.
    """
    norms = np.sqrt(row_dots(w, w))
    bad = np.flatnonzero(np.abs(norms - 1.0) > EPS_UNIT)
    if len(bad):
        raise NotUnitVector("vector norm %.17g, expected 1" % norms[bad[0]])
    out = []
    for x, y, z in w.tolist():
        nu = math.acos(min(1.0, max(-1.0, z)))
        if x == 0.0 and y == 0.0:
            out.append((nu, 0.0))
            continue
        phi = math.atan2(y, x) % TWO_PI
        if phi >= TWO_PI:
            # a tiny negative atan2 result rounds up to exactly 2*pi
            phi = 0.0
        out.append((nu, phi))
    return np.array(out, dtype=float).reshape(-1, 2)


def spherical_angles(w):
    """(nu, phi) of one unit vector (see angle_rows)."""
    return tuple(angle_rows(np.asarray(w, dtype=float).reshape(1, 3))[0].tolist())


def spherical_from_unit_vector(w):
    """SphericalDirection of a unit vector (see spherical_angles)."""
    return SphericalDirection(*spherical_angles(w))


def unit_vector_from_spherical(d):
    s = math.sin(d.nu)
    return np.array([s * math.cos(d.phi), s * math.sin(d.phi), math.cos(d.nu)])


def triangle_planes(p1, p2, p3, eps_area=EPS_AREA):
    """Unit normals and offsets of the planes through triangle corners.

    ``p1``, ``p2`` and ``p3`` are (T, 3) corner arrays.  The normal is
    the normalized cross product (p2 - p1) x (p3 - p2), so a
    counterclockwise vertex order seen from outside yields an outward
    normal; the offset is omega . p1.  The degeneracy test is on the
    squared cross-product norm, so ``eps_area`` lives at the length**4
    scale; the first degenerate triangle raises DegenerateTriangle.
    """
    p1, p2, p3 = (np.asarray(p, dtype=float).reshape(-1, 3) for p in (p1, p2, p3))
    c = np.cross(p2 - p1, p3 - p2)
    nsq = np.einsum("ij,ij->i", c, c)
    bad = np.flatnonzero(nsq <= eps_area)
    if len(bad):
        raise DegenerateTriangle(
            "squared cross norm %.3g <= %.3g" % (nsq[bad[0]], eps_area)
        )
    normals = c / np.sqrt(nsq)[:, None]
    return normals, np.einsum("ij,ij->i", normals, p1)


def plane_from_triangle(p1, p2, p3, eps_area=EPS_AREA):
    """Oriented plane through three points (see triangle_planes)."""
    normals, offsets = triangle_planes(p1, p2, p3, eps_area)
    return OrientedPlane(spherical_from_unit_vector(normals[0]), float(offsets[0]))


def plane_from_normal_offset(normal, h):
    """Plane from a direction vector (any nonzero length) and an offset.

    ``h`` is rescaled together with the normal, so (2n, 2h) and (n, h)
    name the same plane.
    """
    n = np.asarray(normal, dtype=float)
    ln = math.sqrt(float(n @ n))
    if not ln > 0.0 or not math.isfinite(ln):
        raise ValueError("normal must be a finite nonzero vector")
    n = n / ln
    return OrientedPlane(spherical_from_unit_vector(n), float(h) / ln)


def angle_between(u, v):
    """Angle between two 3-vectors in radians, stable near 0 and pi.

    The cross product is taken on Python floats with np.cross's formula,
    which costs a tenth of np.cross on one pair and rounds the same; the
    two dot products stay numpy's, whose BLAS sum rounds differently
    from a Python sum.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u0, u1, u2 = u.tolist()
    v0, v1, v2 = v.tolist()
    c = np.array((u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0))
    return math.atan2(math.sqrt(float(c @ c)), float(u @ v))


SNAP_AXIS = 1e-12  # zero-snap for direction components and offsets


def snapped_triplets(directions, offsets, scale=1.0):
    """(n, 3) array of (nu, phi, h) rows of approximate normals and offsets.

    Accumulated rounding leaves axis-aligned normals with stray 1e-17
    components and zero offsets at 1e-24; both survive a float-32
    round-trip because its precision is relative, which breaks
    re-encode byte stability.  Components below SNAP_AXIS (offsets
    below SNAP_AXIS * scale) are therefore forced to exactly zero, and
    each direction is renormalized, before the angles are taken
    (``angle_rows``).  The rows are not range-checked here:
    ``PlaneSet`` checks them when it stores them.
    """
    d = np.array(directions, dtype=float).reshape(-1, 3)
    d[np.abs(d) < SNAP_AXIS] = 0.0
    d /= np.sqrt(row_dots(d, d))[:, None]
    h = np.array(offsets, dtype=float).reshape(-1)
    h[np.abs(h) < SNAP_AXIS * scale] = 0.0
    return np.column_stack([angle_rows(d), h])


def snapped_triplet(direction, h, scale=1.0):
    """The one (nu, phi, h) row of ``snapped_triplets``, as Python floats."""
    return tuple(snapped_triplets([direction], [h], scale)[0].tolist())
