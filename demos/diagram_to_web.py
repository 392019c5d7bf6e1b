"""From a growth diagram to its dual web, one reduction move at a time.

Reducing a diagram keeps removing U-turns and sharp corners, inserting
elbow moves when neither is available, until only a 2-gon is left.
Replaying the log backwards assembles the diskoid (a triangulated
polygon), and its planar dual is the basis web.
"""

from sl3webs import dualize, enumerate_diagrams
from sl3webs.synthesis import (
    diskoid_from_diagram,
    find_double_elbow,
    find_sharp,
    find_uturn,
    reduce_to_base,
)
from sl3webs.webs import web_to_dot

word = (1, 2, 1, 2, 1, 2, 1, 2)
d = enumerate_diagrams(word)[8]
print("type", "".join(map(str, word)), "component 8")
print("U-turn site:", find_uturn(d))
print("sharp corner site:", find_sharp(d))
print("double elbow (site, span):", find_double_elbow(d))

base, log = reduce_to_base(d)
names = {"uturn": "u-turn", "sharp": "sharp", "elbow": "elbow"}
print()
print(f"reduced to the 2-gon of type {''.join(map(str, base.word))} in {len(log.moves)} moves:")
for move in log.moves:
    print(f"  {names[move.kind]:>6} at {move.index}")

disk = diskoid_from_diagram(d)
print()
print(f"diskoid: {disk.n_vertices} vertices, {len(disk.arrows)} arrows, "
      f"{len(disk.triangles)} triangles")
degrees = [disk.degree(v) for v in disk.interior_vertices()]
print("interior degrees:", degrees, "(all >= 6, so the diskoid is CAT(0))")

web = dualize(disk)
print()
print("its dual web:")
print(web_to_dot(web))
