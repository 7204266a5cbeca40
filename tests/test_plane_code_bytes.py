"""Pinned float64 rows of the plane codes ``shapes`` builds.

``ngon_prism_code`` and ``chamfered_cube_code`` feed the stored codes of
the benchmark's ``code_ops`` corpus and many tests, so a change to how
they are built must leave every bit of their ``(nu, phi, h)`` rows as
it is.  Each pin is the sha256 of the ``.triplets()`` bytes of every
code of its family in turn.
"""

import hashlib

import numpy as np

from planecode import shapes

PRISMS_3_TO_64 = "1059e5e09bc806d0dae3b3013aacbdf194c04dbf9cba6082ced2a5283adde755"
CHAMFERS_50_STEPS = "56b9b5fb47c266bede41ec432fd7fc2a352925b5905b00e0a7c6cfeef828e102"


def digest(codes):
    h = hashlib.sha256()
    for code in codes:
        h.update(code.triplets().tobytes())
    return h.hexdigest()


def test_prism_code_bytes_are_pinned():
    assert digest(shapes.ngon_prism_code(n) for n in range(3, 65)) == PRISMS_3_TO_64


def test_chamfered_cube_code_bytes_are_pinned():
    grid = np.linspace(0.01, 0.5, 50).tolist()
    assert digest(shapes.chamfered_cube_code(t) for t in grid) == CHAMFERS_50_STEPS
