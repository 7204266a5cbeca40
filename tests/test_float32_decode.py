"""Regression: hulls decoded from their stored float32 code are watertight.

Rounding the (nu, phi, h) triplets to float32 splits each vertex where
four or more planes meet into several vertices a tiny edge apart.  A
decoder that finds vertices by distance merges some of those and adds
the rest to the wrong rings, leaving open and over-shared edges even
though the volume is right.  Incidence taken from Qhull's dual facets
keeps every such vertex with exactly its own planes, so the surface
stays closed and edge-manifold.
"""

import numpy as np

from planecode import decode_convex, encode_convex, read_code, write_code
from planecode.shapes import random_hull_mesh


def test_hulls_decode_watertight_after_the_float32_round_trip():
    for seed in range(6):
        for n_points in (16, 32, 64):
            hull = random_hull_mesh(np.random.default_rng(seed), n_points)
            back = decode_convex(read_code(write_code(encode_convex(hull)))).to_mesh()
            assert back.is_closed and back.is_edge_manifold, (seed, n_points)
