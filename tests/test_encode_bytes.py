"""Pinned bytes of segmented encodes of the grid-cut fixtures.

Each entry is the sha256 of ``write_code(encode_segmented(mesh))`` or,
where encoding fails, the error class name.  The meshes are
``notched_box``, ``two_notch_box`` and ``l_prism`` with every quad cut
into a g x g grid, as built and as read back through float32 STL.  A
change that only makes encoding faster must leave every entry as it is.
"""

import hashlib

import pytest

from planecode import encode_segmented, write_code
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
