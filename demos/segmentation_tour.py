"""Split two non-convex solids into pseudo-convex and pseudo-concave parts.

The notched box has a tilted dent in its top; the two-notch block
has one dent in the top and one in the bottom.  Each dent becomes a
pseudo-concave part, the remaining shell a pseudo-convex one, and every
part gets a few extra cutting planes that close its open rim.

Run with:  python3 demos/segmentation_tour.py
"""

from planecode import (
    boundary_planes_for_part,
    decode_segmented,
    encode_segmented,
    mutual_orientation,
    polygonize_part,
    segment_mesh,
)
from planecode.shapes import notched_box, two_notch_box

for name, mesh in (("notched box", notched_box()), ("two-notch block", two_notch_box())):
    print("== %s: %d vertices, %d triangles" % (
        name, len(mesh.vertices), len(mesh.triangles)))
    parts = segment_mesh(mesh)
    for i, part in enumerate(parts):
        faces = polygonize_part(mesh, part)
        cuts = boundary_planes_for_part(mesh, part)
        print("  part %d: %-14s %2d triangles -> %d polygon faces + %d cuts" % (
            i, part.kind.value, len(part.triangles), len(faces), len(cuts)))

    back = decode_segmented(encode_segmented(mesh))
    print("  rebuilt: volume %.6f vs %.6f, area %.6f vs %.6f\n" % (
        back.volume(), mesh.volume(), back.surface_area(), mesh.surface_area()))

mesh = notched_box()
print("how a pair of triangles decides where it belongs:")
print("  across a shell corner:   %s" % mutual_orientation(mesh, 0, 2, eps=1e-9).value)
print("  across a dent corner:    %s" % mutual_orientation(mesh, 18, 20, eps=1e-9).value)
print("  shell against dent wall: %s" % mutual_orientation(mesh, 2, 20, eps=1e-9).value)
