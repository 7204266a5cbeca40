"""Pinned bytes of segmented and convex encodes.

Each entry of ``PINNED`` is the sha256 of
``write_code(encode_segmented(mesh))`` or, where encoding fails, the
error class name.  The meshes are ``notched_box``, ``two_notch_box`` and
``l_prism`` with every quad cut into a g x g grid, as built and as read
back through float32 STL.  ``PINNED_CONVEX`` holds the same for
``encode_convex`` on the cube and tetrahedron, the cube cut into a
g x g grid and seeded ``random_hull_mesh`` hulls of n points (seed n).
A change that only makes encoding faster must leave every entry as it
is.
"""

import hashlib

import numpy as np
import pytest

from planecode import encode_convex, encode_segmented, shapes, write_code
from planecode.errors import GeometryError

from test_segment_oracle import GRID_FIXTURES, grid_cut, via_float32_stl

PINNED = {
    ("notched_box", 1, False): "1d87b79d08b87e14139d8bab04742de5bece757e1c01a9ae7b89425bdda69797",
    ("notched_box", 1, True): "e785f1527ea18ce74cce80860e7263cf51cb76259d460eb60e4a8b5bc7fa0013",
    ("notched_box", 2, False): "1d87b79d08b87e14139d8bab04742de5bece757e1c01a9ae7b89425bdda69797",
    ("notched_box", 2, True): "8dba14fe68d6140213462b4a755b6977c9449c09fcd3c72b9049f2b3b1391d66",
    ("notched_box", 3, False): "77f1e1e5b20f05b0dbdd169c1facd78be978dd116bb7fd61250ed04acd2a125a",
    ("notched_box", 3, True): "BoundaryNotCuttable",
    ("notched_box", 4, False): "1d87b79d08b87e14139d8bab04742de5bece757e1c01a9ae7b89425bdda69797",
    ("notched_box", 4, True): "BoundaryNotCuttable",
    ("two_notch_box", 1, False): "91a168a69f10e837fa7e207f4b0cf81c75485132908c3d741f34973119099f0b",
    ("two_notch_box", 1, True): "91a168a69f10e837fa7e207f4b0cf81c75485132908c3d741f34973119099f0b",
    ("two_notch_box", 2, False): "91a168a69f10e837fa7e207f4b0cf81c75485132908c3d741f34973119099f0b",
    ("two_notch_box", 2, True): "91a168a69f10e837fa7e207f4b0cf81c75485132908c3d741f34973119099f0b",
    ("two_notch_box", 3, False): "94dfd60a3747f62e5ae6773290379671766205b929ed09787f7cdfb101ceb79d",
    ("two_notch_box", 3, True): "83861edda17474eabd8531ed5ae81a76a3166b71935888490058b01a97a942f1",
    ("two_notch_box", 4, False): "91a168a69f10e837fa7e207f4b0cf81c75485132908c3d741f34973119099f0b",
    ("two_notch_box", 4, True): "91a168a69f10e837fa7e207f4b0cf81c75485132908c3d741f34973119099f0b",
    ("l_prism", 1, False): "12540eac4733ea041f463a88da209fbcf4a3f0771aea24237612d22a9631c294",
    ("l_prism", 1, True): "12540eac4733ea041f463a88da209fbcf4a3f0771aea24237612d22a9631c294",
    ("l_prism", 2, False): "BoundaryNotCuttable",
    ("l_prism", 2, True): "BoundaryNotCuttable",
    ("l_prism", 3, False): "e79c31c40e61a4ec77ecab90e10245b3e56670cc05c25580bdf2f47773fa248e",
    ("l_prism", 3, True): "140914441290047533bb9f09aa752571df4511dcc20ede1873e7ff18537165c9",
    ("l_prism", 4, False): "BoundaryNotCuttable",
    ("l_prism", 4, True): "BoundaryNotCuttable",
}


def encode_digest(mesh):
    try:
        return hashlib.sha256(write_code(encode_segmented(mesh))).hexdigest()
    except GeometryError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("name, g, f32", sorted(PINNED))
def test_segmented_encode_bytes_are_pinned(name, g, f32):
    mesh = grid_cut(GRID_FIXTURES[name](), g)
    if f32:
        mesh = via_float32_stl(mesh)
    assert encode_digest(mesh) == PINNED[name, g, f32]


PINNED_CONVEX = {
    ("cube", 0, False): "d8ac3b068669c521229bc962eb13b8e0f3a4611893469e2b3ec8586bc877e871",
    ("tetrahedron", 0, False): "8bdb8e892ebfa9a59130fbd61049aefa19a7bad6f16ffc8da820a83d26699339",
    ("cube_cut", 1, False): "d8ac3b068669c521229bc962eb13b8e0f3a4611893469e2b3ec8586bc877e871",
    ("cube_cut", 1, True): "d8ac3b068669c521229bc962eb13b8e0f3a4611893469e2b3ec8586bc877e871",
    ("cube_cut", 3, False): "d8ac3b068669c521229bc962eb13b8e0f3a4611893469e2b3ec8586bc877e871",
    ("cube_cut", 3, True): "d8ac3b068669c521229bc962eb13b8e0f3a4611893469e2b3ec8586bc877e871",
    ("cube_cut", 10, False): "d8ac3b068669c521229bc962eb13b8e0f3a4611893469e2b3ec8586bc877e871",
    ("cube_cut", 10, True): "d8ac3b068669c521229bc962eb13b8e0f3a4611893469e2b3ec8586bc877e871",
    ("cube_cut", 17, False): "d8ac3b068669c521229bc962eb13b8e0f3a4611893469e2b3ec8586bc877e871",
    ("cube_cut", 17, True): "d8ac3b068669c521229bc962eb13b8e0f3a4611893469e2b3ec8586bc877e871",
    ("hull", 16, False): "9776986977f01a71f8ebc60a1e40be91fb303a52c37d5bd85e360ec1c21526f4",
    ("hull", 16, True): "97dcebf8a5ee31adec0e58a3fc2a382165579b9e8d209793f0e4e68f5f0b71ee",
    ("hull", 32, False): "647065ffcb5319872b5eba3c1686470fdc29fc0df72e4e8bf2fe3e77dc8f214c",
    ("hull", 32, True): "9e6e876d0c30d32bd752bc1e21a3de13ce269acc80870bae44a62e0c570acc8f",
    ("hull", 64, False): "4e9d84ec384d971ce8f73280c6a37db9099a376b09f1da67caab563d6c758618",
    ("hull", 64, True): "dd83df444c8effefa3ec8a6f47b77e9ba17e6dcb2c0ac5fffd1aac4290d2a2ae",
    ("hull", 300, False): "e9a88cb7058a893f956fec4011dcb6f6bdb85026db6b3238c0c9b3ace2934be4",
    ("hull", 300, True): "6f51510708a0e1330115a515067bb24e6531966c5b468487cb9579e666c9c9a1",
}


def convex_fixture(name, size):
    if name == "cube_cut":
        return grid_cut(shapes.cube(), size)
    if name == "hull":
        return shapes.random_hull_mesh(np.random.default_rng(size), size)
    return getattr(shapes, name)()


@pytest.mark.parametrize("name, size, f32", sorted(PINNED_CONVEX))
def test_convex_encode_bytes_are_pinned(name, size, f32):
    mesh = convex_fixture(name, size)
    if f32:
        mesh = via_float32_stl(mesh)
    digest = hashlib.sha256(write_code(encode_convex(mesh))).hexdigest()
    assert digest == PINNED_CONVEX[name, size, f32]
