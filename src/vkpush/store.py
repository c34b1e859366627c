"""Vertex stars replaced in place, on a mutable copy of a diagram's arrays.

A push run keeps one DartStore and replaces one star per step, so a step
costs O(star) and not O(diagram).  A replacement comes as the
DiagramBuilder that assembled it and is glued in from there, unbuilt; a
surgery checks only what it creates, and ``DartStore.diagram`` hands the
arrays back to ``Diagram.build``, the full validator.  The pusher imports this module where it uses it, so a start
that never pushes does not load it.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from vkpush.abelianization import Vector, vec_add
from vkpush.diagram import Corner, Diagram, DiagramBuilder, StarView, norm_key
from vkpush.presentation import ValidationError, Word, word_to_text


@dataclass(frozen=True)
class Surgery:
    """One star replacement, as DartStore.glue computes it and apply commits it."""

    dropped_darts: frozenset[int]
    # new dart -> (letter, twin)
    darts: dict[int, tuple[int, int]]
    # the rotation of every re-threaded vertex, new ones included
    rotations: dict[int, tuple[int, ...]]
    # host vertex ids that leave the diagram, the center first
    dropped_vertices: tuple[int, ...]
    # new vertex id -> the host vertex ids folded into it (none for a vertex
    # of the replacement's interior)
    fresh: dict[int, tuple[int, ...]]
    # labels of the new vertex ids
    labels: dict[int, Vector]
    boundary_walk: tuple[int, ...]
    boundary_face_dart: int
    base: int
    area: int


class DartStore:
    """The arrays of a diagram in mutable form, for replacing stars in place.

    It holds what ``Diagram.build`` derived (origin, letter, twin, rotations,
    labels, boundary walk) and the position of each dart in its rotation;
    faces are read off the rotations on demand.  ``glue`` computes the
    surgery that replaces a star, and ``apply`` commits it.  Both cost
    O(star): the replacement, the corner faces and the rotations of the link
    vertices.  ``diagram`` hands the arrays back to the full validator.

    Ids come out as a rebuild of the whole diagram through a
    ``DiagramBuilder`` gives them (``tests/test_splice.py`` keeps that
    rebuild as the reference): host darts and vertices keep theirs; the
    replacement's edge classes are numbered from the largest dart id plus
    one in root order; a glued edge class keeps the id ``DiagramBuilder.alias``
    picks as its root; new and folded vertices are numbered from the
    largest vertex id plus one, in the order of each new rotation's smallest
    dart; and after the first surgery every rotation starts at its smallest
    dart.
    """

    def __init__(self, d: Diagram):
        self.presentation = d.presentation
        self.amap = d.amap
        self.origin = dict(d.origin)
        self.letter = dict(d.letter)
        self.twin = dict(d.twin)
        self.rotations = dict(d.rotations)
        self.pos = {x: i for rot in d.rotations.values() for i, x in enumerate(rot)}
        self.labels = dict(d.labels)
        self.base = d.base
        self.base_label = d.base_label
        self.boundary_face_dart = d.boundary_face_dart
        self.boundary_walk = d.boundary_walk
        self.boundary_vertices = d.boundary_vertices
        self.area = d.area
        self._normalized = False
        # a max-heap of vertices by norm_key, and ascending lists holding
        # every live dart and vertex id; dead entries leave lazily
        self._heap = [norm_key(v, lbl) for v, lbl in self.labels.items()]
        heapq.heapify(self._heap)
        self._dart_ids = sorted(self.origin)
        self._vertex_ids = sorted(self.rotations)

    # -- queries ---------------------------------------------------------------

    def head(self, d: int) -> int:
        return self.origin[self.twin[d]]

    @property
    def boundary_word(self) -> Word:
        return tuple(self.letter[d] for d in self.boundary_walk)

    def max_norm_vertex(self) -> int:
        """Diagram.max_norm_vertex, from a heap with lazy deletion."""
        heap = self._heap
        if len(heap) > 2 * len(self.labels) + 64:
            heap = self._heap = [norm_key(v, lbl) for v, lbl in self.labels.items()]
            heapq.heapify(heap)
        while self.labels.get(heap[0][2]) != heap[0][1]:
            heapq.heappop(heap)
        return heap[0][2]

    def diagram(self) -> Diagram:
        return Diagram.build(
            self.presentation,
            self.amap,
            origin=self.origin,
            letter=self.letter,
            twin=self.twin,
            rotations=self.rotations,
            base=self.base,
            base_label=self.base_label,
            boundary_face_dart=self.boundary_face_dart,
        )

    def _face(self, d0: int) -> tuple[int, ...]:
        """The face orbit of d0 under phi(d) = sigma^-1(twin(d)), from d0."""
        origin, twin, rotations, pos = self.origin, self.twin, self.rotations, self.pos
        face = [d0]
        t = twin[d0]
        d = rotations[origin[t]][pos[t] - 1]
        while d != d0:
            face.append(d)
            t = twin[d]
            d = rotations[origin[t]][pos[t] - 1]
        return tuple(face)

    def _face_index(self, dart: int) -> int:
        """The index of the face of dart in Diagram.faces, which go by smallest dart."""
        low = min(self._face(dart))
        seen: set[int] = set()
        index = 0
        for x in sorted(self.origin):
            if x >= low:
                break
            if x not in seen:
                seen.update(self._face(x))
                index += 1
        return index

    def star(self, v: int) -> StarView:
        """The closed star of an interior vertex with a regular neighbourhood.

        Errors if v lies on the boundary, carries a loop edge, or if some
        corner face visits v more than once.
        """
        if v not in self.rotations:
            raise ValidationError(f"no vertex {v} in the diagram")
        if v in self.boundary_vertices:
            raise ValidationError(f"vertex {v} lies on the boundary")
        origin, twin, letter = self.origin, self.twin, self.letter
        spokes = self.rotations[v]
        for s in spokes:
            if origin[twin[s]] == v:
                raise ValidationError(f"vertex {v} carries a loop edge; star is not regular")
        k = len(spokes)
        corners = []
        seen_faces: set[int] = set()
        for i in range(k):
            out = spokes[i]
            # the face orbit entering along in_dart continues with out, so both
            # sit in the same face with in_dart as the face-predecessor of out
            face = self._face(out)
            key = min(face)
            if key in seen_faces:
                raise ValidationError(
                    f"face {self._face_index(out)} has a repeated corner at vertex {v}"
                )
            seen_faces.add(key)
            corners.append(
                Corner(
                    out_dart=out,
                    in_dart=twin[spokes[(i + 1) % k]],
                    arc=face[1:-1],
                    word=tuple(letter[x] for x in face),
                )
            )
        link = [x for corner in corners for x in corner.arc]
        if not link:
            raise ValidationError(f"the link of vertex {v} has no edges")
        return StarView(
            center=v,
            darts=tuple(spokes),
            corners=tuple(corners),
            link_darts=tuple(link),
            link_word=tuple(letter[x] for x in link),
            degree=k,
        )

    # -- surgery -----------------------------------------------------------------

    def glue(self, star: StarView, bld: DiagramBuilder, walk: Sequence[int]) -> Surgery:
        """The surgery replacing the star by a builder's cells, glued along the link.

        ``walk``, read as a boundary walk, is the replacement's outer path.
        The builder's edge classes take ids from the largest dart id plus one
        in root order; then the link darts join the builder and ``alias``
        identifies each with its walk dart, so a glued class keeps its
        replacement root's id.  A pinched walk on either side folds edges
        and merges link vertices.  The corner faces leave, the cells come
        in, rotations are re-threaded at the link vertices only, and the
        interior vertices are labelled from the link.  Checked here: the
        walk word, the identifications, each cell's relator word, one use
        per dart, that the link reaches every new vertex, the labels along
        every edge at a re-threaded vertex, and the Euler count.  The store
        is not changed; the builder is.
        """
        p = self.presentation
        walk_word = tuple(bld.letter[x] for x in walk)
        if walk_word != star.link_word:
            raise ValidationError(
                "replacement boundary "
                f"{word_to_text(walk_word, p)!r} does not match the link "
                f"{word_to_text(star.link_word, p)!r}"
            )
        origin, twin, letter = self.origin, self.twin, self.letter
        v = star.center
        gone = set(star.darts)
        for corner in star.corners:
            gone.add(corner.in_dart)
            gone.update(corner.arc)

        # the builder's classes under fresh ids, numbered before the link joins
        rep = bld.rep
        classes = {rep(x) for cell in bld.cells for x in cell}
        classes.update(rep(x) for x in walk)
        classes.update([rep(bld.twin[x]) for x in classes])
        start = _top(self._dart_ids, self.origin) + 1
        number = {r: start + i for i, r in enumerate(sorted(classes))}
        # a host dart x joins the builder as -x, clear of the builder's ids
        hosts = {y for x in star.link_darts for y in (x, twin[x])}
        for x in hosts:
            bld.add_dart(-x, letter[x], -twin[x])
        for a, x in zip(walk, star.link_darts):
            bld.alias(a, -x)
        glued = {x: number[rep(-x)] for x in hosts}

        # each surviving class: the face predecessor of its one use
        variant_set = p.variant_set
        pred: dict[int, int] = {}
        uses = Counter()
        for cell in bld.cells:
            w = tuple(bld.letter[x] for x in cell)
            if w not in variant_set:
                raise ValidationError(
                    f"interior face {word_to_text(w, p)!r} is not a relator variant"
                )
            ids = [number[rep(x)] for x in cell]
            for j, r in enumerate(ids):
                pred[r] = ids[j - 1]
            uses.update(ids)

        def host_pred(x: int) -> int:
            rot = self.rotations[origin[x]]
            y = twin[rot[(self.pos[x] + 1) % len(rot)]]
            return glued.get(y, y)

        for x in hosts - gone:
            pred[glued[x]] = host_pred(x)
            uses[glued[x]] += 1
        for r, count in uses.items():
            if count > 1:
                raise ValidationError(f"dart {r} is used {count} times across faces")
        root_of = {number[r]: r for r in classes}
        tw = {r: number[rep(bld.twin[root_of[r]])] for r in pred}

        def twin_of(x: int) -> int:
            return tw[x] if x in tw else twin[x]

        for r in pred:
            if tw[r] not in pred:
                raise ValidationError(f"dart {r} has a twin outside every face")

        def sigma(e: int) -> int:
            # the next dart around the vertex: the twin of the face predecessor
            return twin_of(pred[e] if e in pred else host_pred(e))

        touched = {origin[x] for x in gone} | {origin[x] for x in hosts}
        touched.discard(v)
        threaded = set(pred)
        for w in touched:
            threaded.update(x for x in self.rotations[w] if x not in gone and x not in hosts)

        cycles: list[list[int]] = []
        placed: set[int] = set()
        for e0 in sorted(threaded):
            if e0 in placed:
                continue
            cyc = [e0]
            placed.add(e0)
            e = sigma(e0)
            while e != e0:
                if e not in threaded or e in placed:
                    raise ValidationError("rotation system does not define a permutation of faces")
                placed.add(e)
                cyc.append(e)
                e = sigma(e)
            cycles.append(cyc)

        # vertex ids as DiagramBuilder.build gives them from host-origin hints
        hints: dict[int, set[int]] = {}
        for x in hosts:
            hints.setdefault(glued[x], set()).add(origin[x])
        fresh_id = max(_top(self._vertex_ids, self.rotations) + 1, 0)
        rotations: dict[int, tuple[int, ...]] = {}
        new_origin: dict[int, int] = {}
        fresh: dict[int, tuple[int, ...]] = {}
        labels: dict[int, Vector] = {}
        for cyc in cycles:
            wanted: set[int] = set()
            for e in cyc:
                wanted.update(hints.get(e, ()) if e in pred else (origin[e],))
            if len(wanted) == 1 and not wanted & rotations.keys():
                (vid,) = wanted
            else:
                vid = fresh_id
                fresh_id += 1
                fresh[vid] = tuple(sorted(wanted))
                if wanted:
                    labels[vid] = self.labels[min(wanted)]
            rotations[vid] = tuple(cyc)
            for e in cyc:
                new_origin[e] = vid

        def label_at(x: int) -> Vector:
            vid = new_origin.get(x)
            if vid is None:
                return self.labels[origin[x]]
            return labels[vid] if vid in labels else self.labels[vid]

        def letter_of(x: int) -> int:
            return bld.letter[root_of[x]] if x in root_of else letter[x]

        # the interior vertices, labelled outward from the link
        column = self.amap.column
        unlabelled = {vid for vid, parts in fresh.items() if not parts}
        queue = [vid for vid in rotations if vid not in unlabelled]
        while queue and unlabelled:
            w = queue.pop()
            for e in rotations[w]:
                u = new_origin.get(twin_of(e))
                if u in unlabelled:
                    unlabelled.discard(u)
                    labels[u] = vec_add(label_at(e), column(letter_of(e)))
                    queue.append(u)
        if unlabelled:
            raise ValidationError(
                f"replacement vertex {min(unlabelled)} cannot be reached from the link"
            )

        for e in threaded:
            if label_at(twin_of(e)) != vec_add(label_at(e), column(letter_of(e))):
                raise ValidationError(f"edge {e} violates label consistency")

        dropped_darts = gone | hosts
        nv = len(self.rotations) - len(touched) - 1 + len(rotations)
        ne = (len(self.origin) - len(dropped_darts) + len(pred)) // 2
        area = self.area + len(bld.cells) - star.degree
        if nv - ne + area + 1 != 2:
            raise ValidationError(f"Euler count V-E+F = {nv}-{ne}+{area + 1} != 2; not a sphere map")

        bfd = glued.get(self.boundary_face_dart, self.boundary_face_dart)
        return Surgery(
            dropped_darts=frozenset(dropped_darts),
            darts={r: (letter_of(r), tw[r]) for r in sorted(pred)},
            rotations=rotations,
            dropped_vertices=(v, *sorted(touched - rotations.keys())),
            fresh=fresh,
            labels=labels,
            boundary_walk=tuple(glued.get(x, x) for x in self.boundary_walk),
            boundary_face_dart=bfd,
            base=new_origin[bfd] if bfd in new_origin else origin[bfd],
            area=area,
        )

    def apply(self, s: Surgery) -> None:
        """Commit a surgery computed by glue on the current state."""
        origin, letter, twin, pos = self.origin, self.letter, self.twin, self.pos
        rotations, labels = self.rotations, self.labels
        if not self._normalized:
            # a rebuild lists every rotation from its smallest dart
            self._normalized = True
            for w, rot in rotations.items():
                i = rot.index(min(rot))
                if i:
                    rot = rotations[w] = rot[i:] + rot[:i]
                    for j, x in enumerate(rot):
                        pos[x] = j
        for x in s.dropped_darts:
            del origin[x], letter[x], twin[x], pos[x]
        for x, (lt, tw) in s.darts.items():
            letter[x] = lt
            twin[x] = tw
        for w in s.dropped_vertices:
            del rotations[w], labels[w]
        for vid, rot in s.rotations.items():
            rotations[vid] = rot
            for j, x in enumerate(rot):
                origin[x] = vid
                pos[x] = j
        labels.update(s.labels)
        for vid, lbl in s.labels.items():
            heapq.heappush(self._heap, norm_key(vid, lbl))
        self._dart_ids.extend(sorted(s.darts))
        self._vertex_ids.extend(sorted(s.fresh))
        self.boundary_walk = s.boundary_walk
        self.boundary_face_dart = s.boundary_face_dart
        self.base = s.base
        self.boundary_vertices = frozenset(origin[x] for x in s.boundary_walk)
        self.area = s.area


def _top(ids: list[int], live: Mapping[int, object]) -> int:
    """The largest live id; ids ascends and holds every live id."""
    if len(ids) > 2 * len(live) + 64:
        ids[:] = sorted(live)
    while ids[-1] not in live:
        ids.pop()
    return ids[-1]
