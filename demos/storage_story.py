"""Byte-for-byte accounting: plane codes vs indexed triangle meshes.

An indexed mesh pays 12 bytes per vertex and 12 per triangle (or 48 per
quad patch when the surface is counted as polygons).  A plane code pays
12 bytes per plane, full stop.  Flat-faced solids come out well ahead.

Run with:  python3 demos/storage_story.py
"""

from planecode import encode_convex, encode_segmented, storage_report
from planecode.shapes import cube, notched_box, tetrahedron, two_notch_box

ROWS = []


def account(name, mesh, code, quad_accounting):
    r = storage_report(mesh, code, quad_accounting=quad_accounting)
    ROWS.append((name, r.plane_bytes, r.indexed_bytes, r.ratio))


account("tetrahedron", tetrahedron(), encode_convex(tetrahedron()), False)
account("cube", cube(), encode_convex(cube()), False)
account("notched box", notched_box(), encode_segmented(notched_box()), True)
account("two-notch", two_notch_box(), encode_segmented(two_notch_box()), True)

print("%-12s %12s %14s %8s" % ("solid", "plane bytes", "indexed bytes", "ratio"))
for name, planes, indexed, ratio in ROWS:
    print("%-12s %12d %14d %8.4f" % (name, planes, indexed, ratio))

print("\nthe notched box and two-notch rows charge the indexed form 48 bytes")
print("per quad patch; their plane counts include the cutting planes that")
print("close each part, so the ratio is an honest end-to-end comparison")
