"""Encode the unit cube as six planes, look at them, decode them back.

Run with:  python3 demos/cube_walkthrough.py
"""

import numpy as np

from planecode import decode_convex, encode_convex, storage_report
from planecode.shapes import cube

mesh = cube()
print("input: %d vertices, %d triangles, volume %.3f" % (
    len(mesh.vertices), len(mesh.triangles), mesh.volume()))

code = encode_convex(mesh).sorted_canonical()
print("\nthe six planes, (nu, phi) in degrees and offset h:")
for nu, phi, h in code:
    print("  nu=%8.3f  phi=%8.3f  h=%8.3f" % (np.degrees(nu), np.degrees(phi), h))

report = storage_report(mesh, code)
print("\nstorage ledger:")
print("  plane payload   %4d bytes  (%d planes x 12)" % (report.plane_bytes, len(code)))
print("  indexed mesh    %4d bytes  (%d verts x 12 + %d tris x 12)" % (
    report.indexed_bytes, len(mesh.vertices), len(mesh.triangles)))
print("  ratio           %.4f" % report.ratio)

poly = decode_convex(code)
print("\ndecoded corners (one per line):")
for v in poly.vertices:
    print("  (%5.2f, %5.2f, %5.2f)" % tuple(v))
back = poly.to_mesh()
print("round trip volume %.12f, closed: %s" % (back.volume(), back.is_closed))
