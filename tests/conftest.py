import struct

import numpy as np
import pytest

from planecode import TriangleMesh, shapes

# a float32 signalling NaN: numpy's cast to float64 flags it as invalid
SNAN = struct.pack("<I", 0x7F800001)


@pytest.fixture
def cube_mesh():
    return shapes.cube()


@pytest.fixture
def staircase_mesh():
    return shapes.notched_box()


@pytest.fixture
def corpus_meshes():
    """Name -> mesh for every deterministic fixture solid."""
    return {
        "cube": shapes.cube(),
        "tetrahedron": shapes.tetrahedron(),
        "open_box": shapes.open_box(),
        "l_prism": shapes.l_prism(),
        "notched_box": shapes.notched_box(),
        "two_notch_box": shapes.two_notch_box(),
    }


def thin_notched_box():
    """``notched_box`` with z scaled to a total height of 1e-3."""
    mesh = shapes.notched_box()
    z = mesh.vertices[:, 2]
    return TriangleMesh(mesh.vertices * [1.0, 1.0, 1e-3 / (z.max() - z.min())], mesh.triangles)


def seeded_hulls(seed, count, lo=8, hi=65):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        out.append(shapes.random_hull_mesh(rng, int(rng.integers(lo, hi))))
    return out


def quaternion_rotation(rng):
    """Uniform random rotation matrix from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
