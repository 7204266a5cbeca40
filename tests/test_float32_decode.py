"""Known defect: hulls decoded from their stored float32 code are not watertight.

Rounding the (nu, phi, h) triplets to float32 leaves vertices where four
or more planes meet split into near-duplicates, so the decoded surface
has open and over-shared edges even though its volume is right.  The
float64 decode of the same code is closed.  The test is a strict
expected failure: it must turn green once the decoder merges those
vertices, and then the mark comes off.
"""

import numpy as np
import pytest

from planecode import decode_convex, encode_convex, read_code, write_code
from planecode.shapes import random_hull_mesh


@pytest.mark.xfail(strict=True, reason="float32 codes decode to open, non-manifold hulls")
def test_hulls_decode_watertight_after_the_float32_round_trip():
    for seed in range(6):
        for n_points in (16, 32, 64):
            hull = random_hull_mesh(np.random.default_rng(seed), n_points)
            back = decode_convex(read_code(write_code(encode_convex(hull)))).to_mesh()
            assert back.is_closed and back.is_edge_manifold, (seed, n_points)
