"""Vertex stars replaced in place, on a mutable copy of a diagram's arrays.

A push run keeps one DartStore and replaces one star per step, so a step
costs O(star) and not O(diagram).  Of the boundary the store keeps only the
boundary face dart, so no step reads the boundary beyond its star.  A
replacement comes as a ``Template``: compiled once from the DiagramBuilder
that assembled it, with what does not depend on the host checked then
(relator words, one use per dart, interior rotations reached from the link,
label offsets along every edge).  ``DartStore.glue`` checks per step only
what joining the link creates: the identifications, the rotations at the
link vertices, the label at each link position and the Euler count.  The
host darts around the link that the step keeps, its rim, are copied into the
new rotations as slices of their host rotations and never re-checked: a rim
edge held before the step, its far end keeps its label, and its near end is
a link vertex, whose label glue checks.  ``DartStore.diagram`` hands the
live darts back to ``Diagram.build``, the full validator.  The pusher imports
this module where it uses it, so a start that never pushes does not load it.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from vkpush.abelianization import Vector, vec_add
from vkpush.diagram import (
    Diagram,
    DiagramBuilder,
    check_relator_faces,
    norm_key,
    walk_labels,
)
from vkpush.presentation import ValidationError, Word, word_to_text


@dataclass(frozen=True)
class StarView:
    """The closed star of a vertex, as DartStore.star reads it.

    Spoke i, ``darts[i]``, opens the corner face whose relator word, read
    from that spoke, is ``words[i]``.  The link is the corner faces less the
    spokes and their twins, corner by corner.
    """

    center: int
    darts: tuple[int, ...]
    words: tuple[Word, ...]
    link_darts: tuple[int, ...]
    link_word: Word


@dataclass(frozen=True)
class Surgery:
    """One star replacement, as DartStore.glue computes it and apply commits it."""

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
    # host dart -> the new id of its class, for each host dart the step
    # keeps under a new id: the outer twins of the link, O(link) of them
    renamed: dict[int, int]
    area: int
    # the darts the rotations list after the step
    live_darts: int


@dataclass(frozen=True)
class Template:
    """A star replacement compiled once, without ids or labels.

    ``compile`` resolves the edge classes of a DiagramBuilder into ranks, in
    the order of their roots, so a glue that numbers new darts from the
    largest dart id plus one adds that number to a rank.  The seam is the
    classes of the outer walk and their twins: the only classes a glue may
    merge, with the link darts and with each other.  Every other class lies
    on a cell, and so does its twin.
    """

    letter: tuple[int, ...]
    twin: tuple[int, ...]
    # the face predecessor of each class on its cell, -1 on none
    pred: tuple[int, ...]
    # the number of cells, which is the area the template brings
    area: int
    # the outer path, read as a boundary walk; it spells the link word
    walk: tuple[int, ...]
    seam: frozenset[int]
    # (rank, letter, twin) of every class off the seam
    inner: tuple[tuple[int, int, int], ...]
    # the rotations of the vertices off the walk, each from its smallest
    # rank and in that order; the one of them each class starts at (-1 on
    # the walk); their labels less the label where the walk starts
    interior: tuple[tuple[int, ...], ...]
    vertex: tuple[int, ...]
    offsets: tuple[Vector, ...]
    # the same offset at each position of the walk
    walk_offsets: tuple[Vector, ...]

    @classmethod
    def compile(cls, bld: DiagramBuilder, walk: Sequence[int]) -> Template:
        """Resolve a builder and its outer walk, checking what no host changes.

        Checked once here, by the code every diagram goes through: each
        cell's relator word (``check_relator_faces``); one use per class,
        each twin on a face and a walk that reaches every cell
        (``DiagramBuilder.resolve``); and the label offsets along every
        edge, from the zero label where the walk starts (``walk_labels``),
        so a glue need only check the labels at the walk.
        """
        check_relator_faces(bld.p, (tuple(bld.letter[x] for x in cell) for cell in bld.cells))
        arrays, cells = bld.resolve(walk)
        origin, rotations = arrays["origin"], arrays["rotations"]
        labels = walk_labels(
            bld.m, origin, arrays["letter"], arrays["twin"], rotations, arrays["base"], bld.m.zero
        )
        order = sorted(origin)
        rank = {r: i for i, r in enumerate(order)}
        letter = tuple([arrays["letter"][r] for r in order])
        twin = tuple([rank[arrays["twin"][r]] for r in order])
        pred = [-1] * len(order)
        for cell in cells:
            ids = [rank[r] for r in cell]
            for j, r in enumerate(ids):
                pred[r] = ids[j - 1]
        ranks = tuple(rank[bld.rep(x)] for x in walk)
        seam = frozenset(ranks) | {twin[r] for r in ranks}
        # the rotations that hold no seam class are the interior vertices
        vertex = [-1] * len(order)
        interior: list[tuple[int, ...]] = []
        offsets: list[Vector] = []
        for v, rot in rotations.items():
            cyc = tuple(map(rank.__getitem__, rot))
            if seam.isdisjoint(cyc):
                for r in cyc:
                    vertex[r] = len(interior)
                interior.append(cyc)
                offsets.append(labels[v])
        return cls(
            letter=letter,
            twin=twin,
            pred=tuple(pred),
            area=len(cells),
            walk=ranks,
            seam=seam,
            inner=tuple((r, letter[r], twin[r]) for r in range(len(order)) if r not in seam),
            interior=tuple(interior),
            vertex=tuple(vertex),
            offsets=tuple(offsets),
            walk_offsets=tuple(labels[origin[order[r]]] for r in ranks),
        )


class DartStore:
    """The arrays of a diagram in mutable form, for replacing stars in place.

    It holds what ``Diagram.build`` derived (origin, letter, twin,
    rotations, labels) and the position of each dart in its rotation; faces
    are read off the rotations on demand.  The four dart fields are flat
    lists indexed by dart id: a dropped dart leaves a dead slot that nothing
    reads, and ``live_darts`` counts the darts the rotations list.  Of the
    boundary it keeps one fact, the boundary face dart, whose origin is the
    base vertex: a step reads no part of the boundary beyond its star.
    ``glue`` computes the surgery that replaces a star, and ``apply``
    commits it.  Both cost O(star): the replacement, the corner faces and
    the rotations of the link vertices.  Glue does per-dart work only for
    the darts a step drops or creates; the kept host darts at the link
    vertices come along as slices.  ``diagram`` hands the live darts back to
    the full validator.

    Ids come out as a rebuild of the whole diagram through a
    ``DiagramBuilder`` gives them (``tests/test_splice.py`` keeps that
    rebuild as the reference): host darts and vertices keep theirs; the
    replacement's edge classes are numbered from the largest dart id plus
    one, the length of the dart lists, in the rank order of their builder
    roots; a glued edge class keeps the id of the root
    ``DiagramBuilder.alias`` would pick; new and folded vertices are
    numbered from the largest vertex id plus one, in the order of each new
    rotation's smallest dart; and every rotation starts at its smallest
    dart, as ``Diagram.build`` lists it.  The largest dart id is always
    live, as ``apply`` extends the lists to its largest new id, and an
    integer that ``apply`` keeps exact holds the largest vertex id; the heap
    of vertices by norm that ``max_norm_vertex`` reads drops its dead
    entries lazily.
    """

    def __init__(self, d: Diagram):
        self.presentation = d.presentation
        self.amap = d.amap
        # the dart fields, as lists indexed by dart id; slot 0 and the slots
        # of darts no rotation lists are dead, and nothing reads them
        size = max(d.origin, default=0) + 1
        self.origin, self.letter, self.twin, self.pos = ([0] * size for _ in range(4))
        for v, rot in d.rotations.items():
            for i, x in enumerate(rot):
                self.origin[x] = v
                self.letter[x] = d.letter[x]
                self.twin[x] = d.twin[x]
                self.pos[x] = i
        self.live_darts = len(d.origin)
        self.rotations = dict(d.rotations)
        self.labels = dict(d.labels)
        self.base_label = d.base_label
        self.boundary_face_dart = d.boundary_face_dart
        self.area = d.area
        # a max-heap of vertices by norm_key, whose dead entries leave lazily,
        # and the largest live vertex id, which apply keeps exact
        self._heap = [norm_key(v, lbl) for v, lbl in self.labels.items()]
        heapq.heapify(self._heap)
        self._top_vertex = max(self.rotations)

    # -- queries ---------------------------------------------------------------

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
        """The live darts as fresh dicts, through the full validator."""
        origin = {x: v for v, rot in self.rotations.items() for x in rot}
        return Diagram.build(
            self.presentation,
            self.amap,
            origin=origin,
            letter={x: self.letter[x] for x in origin},
            twin={x: self.twin[x] for x in origin},
            rotations=dict(self.rotations),
            base=origin.get(self.boundary_face_dart, next(iter(self.rotations))),
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

    def star(self, v: int) -> StarView:
        """The closed star of an interior vertex with a regular neighbourhood.

        Errors if v lies on the boundary, carries a loop edge, or if some
        corner face visits v more than once.  A vertex lies on the boundary
        exactly when one of its corner faces is the boundary face, so the
        check reads only the corner faces; only refusing a boundary vertex
        costs the boundary's length.  So no step drops a boundary dart: each
        dart a step drops lies on a corner face of an interior vertex, or
        is a host dart the step keeps under a new id (``Surgery.renamed``).
        """
        if v not in self.rotations:
            raise ValidationError(f"no vertex {v} in the diagram")
        origin, twin, letter = self.origin, self.twin, self.letter
        spokes = self.rotations[v]
        # the face orbit of each spoke: the corner it opens
        faces = [self._face(out) for out in spokes]
        if any(self.boundary_face_dart in face for face in faces):
            raise ValidationError(f"vertex {v} lies on the boundary")
        for s in spokes:
            if origin[twin[s]] == v:
                raise ValidationError(f"vertex {v} carries a loop edge; star is not regular")
        # each corner face runs from its spoke along the link to the twin of
        # the next spoke
        link: list[int] = []
        seen_faces: set[int] = set()
        for out, face in zip(spokes, faces):
            key = min(face)
            if key in seen_faces:
                raise ValidationError(
                    f"face of dart {out} has a repeated corner at vertex {v}"
                )
            seen_faces.add(key)
            link += face[1:-1]
        if not link:
            raise ValidationError(f"the link of vertex {v} has no edges")
        return StarView(
            center=v,
            darts=tuple(spokes),
            words=tuple(tuple(letter[x] for x in face) for face in faces),
            link_darts=tuple(link),
            link_word=tuple(letter[x] for x in link),
        )

    # -- surgery -----------------------------------------------------------------

    def glue(self, star: StarView, t: Template) -> Surgery:
        """The surgery replacing the star by a template's cells, glued along the link.

        The template's walk, read as a boundary walk, must spell the link
        word.  Its classes take ids from the largest dart id plus one, by
        rank.  The link darts join the seam through a union-find that picks
        roots as ``DiagramBuilder.alias`` does, so a glued class keeps its
        replacement root's id; a pinched walk on either side folds edges
        and merges link vertices.  The corner faces leave, the cells come
        in, and only the link vertices are re-threaded: the interior
        vertices keep the template's rotations, numbered by smallest dart
        among the new vertices, and take its label offsets from the label
        where the walk starts.  The store is not changed.

        The rim, the host darts at the link vertices that the step neither
        drops nor glues, is never walked dart by dart: around a link vertex
        a rim dart turns to the next dart of its host rotation, so each run
        of rim darts between two dropped darts joins a new rotation as one
        slice.  Checked here, on every step: the walk word, the
        identifications, one use per seam dart, that the new rotations take
        every rim dart once, the label of each link position, and the Euler
        count.  The label check is complete in O(link): compile checked
        every template edge and turn against the walk's offsets, host edges
        held after the previous step (the first host went through
        ``Diagram.build``) and no step changes a rim edge, and host vertices
        that fold together sit at one template vertex, so they share its
        offset and the label they keep.
        """
        p = self.presentation
        t_letter, t_twin, t_pred, seam, vertex = t.letter, t.twin, t.pred, t.seam, t.vertex
        walk_word = tuple(t_letter[r] for r in t.walk)
        if walk_word != star.link_word:
            raise ValidationError(
                "replacement boundary "
                f"{word_to_text(walk_word, p)!r} does not match the link "
                f"{word_to_text(star.link_word, p)!r}"
            )
        origin, twin, host_rotations, pos = self.origin, self.twin, self.rotations, self.pos
        v = star.center
        # the corner faces less the spokes, which all start at the center
        gone = {twin[x] for x in star.darts}
        gone.update(star.link_darts)
        hosts = {y for x in star.link_darts for y in (x, twin[x])}
        off_center = gone | hosts
        start = len(origin)

        # the link joins the seam: a union-find over seam ranks and host darts,
        # a host dart x as -x, that picks its roots as DiagramBuilder.alias does
        parent: dict[int, int] = {}

        def find(u: int) -> int:
            while u in parent:
                u = parent[u]
            return u

        for a, x in zip(t.walk, star.link_darts):
            ra, rb = find(a), find(-x)
            if ra == rb:
                continue
            ta = find(t_twin[ra])
            if ta == rb:
                raise ValidationError(f"cannot identify link dart {x} with its own twin")
            tb = find(t_twin[rb] if rb >= 0 else -twin[-rb])
            parent[rb] = ra
            if ta != tb:
                parent[tb] = ta
        # every host dart ends up in a seam class, numbered by its root's rank
        number = {r: start + (find(r) if r in parent else r) for r in seam}
        glued = {x: start + find(-x) for x in hosts}
        seam_twin = {number[r]: number[t_twin[r]] for r in seam}

        # each surviving seam class: the face predecessor of its one use on a
        # cell, or (outer) the host dart whose face it continues
        on_cells = [r for r in seam if t_pred[r] >= 0]
        outer_hosts = hosts - gone
        uses = [number[r] for r in on_cells] + [glued[x] for x in outer_hosts]
        if len(set(uses)) < len(uses):
            r, count = next((r, c) for r, c in Counter(uses).items() if c > 1)
            raise ValidationError(f"dart {r} is used {count} times across faces")
        pred = {number[r]: number[q] if (q := t_pred[r]) in seam else start + q for r in on_cells}
        outer = {glued[x]: x for x in outer_hosts}
        for r in uses:
            if seam_twin[r] not in pred and seam_twin[r] not in outer:
                raise ValidationError(f"dart {r} has a twin outside every face")

        # the dropped darts at each link vertex by rotation position; after[x]
        # is the run of rim darts that follows dropped dart x there, and the
        # dropped dart that ends the run
        dropped_at: dict[int, list[int]] = {}
        for x in off_center:
            dropped_at.setdefault(origin[x], []).append(pos[x])
        after: dict[int, tuple[tuple[int, ...], int]] = {}
        rim = 0
        for w, ps in dropped_at.items():
            rot = host_rotations[w]
            ps.sort()
            rim += len(rot) - len(ps)
            ps.append(ps[0] + len(rot))
            ring = rot + rot
            for i, j in zip(ps, ps[1:]):
                after[rot[i]] = ring[i + 1 : j], ring[j]

        # the rotations of the link vertices, by sigma(e) = twin(pred(e)); each
        # cycle holds a seam dart, the template's interior cycles are closed,
        # and a seam dart glued on the outer side of the link turns into the
        # host rotation: a run of rim darts, then the seam dart glued to the
        # dropped dart ending it.  Each cycle keeps the host vertices it takes.
        hints: dict[int, set[int]] = {}
        for x in hosts:
            hints.setdefault(glued[x], set()).add(origin[x])
        cycles: list[tuple[tuple[int, ...], set[int]]] = []
        placed: set[int] = set()
        for e0 in uses:
            if e0 in placed:
                continue
            cyc = [e0]
            wanted: set[int] = set()
            placed.add(e0)
            e = e0
            while True:
                wanted.update(hints.get(e, ()))
                x = outer.get(e)
                if x is None:
                    if e in pred:
                        q = pred[e]
                    else:
                        q = t_pred[e - start]
                        q = number[q] if q in seam else start + q
                    e = seam_twin[q] if q - start in seam else start + t_twin[q - start]
                else:
                    run, y = after[x]
                    if not placed.isdisjoint(run) or y not in hosts:
                        raise ValidationError("rotation system does not define a permutation of faces")
                    placed.update(run)
                    cyc.extend(run)
                    rim -= len(run)
                    e = seam_twin[glued[twin[y]]]
                if e == e0:
                    break
                threaded = (e in pred or e in outer) if e - start in seam else vertex[e - start] < 0
                if e in placed or not threaded:
                    raise ValidationError("rotation system does not define a permutation of faces")
                placed.add(e)
                cyc.append(e)
            i = cyc.index(min(cyc))
            cycles.append((tuple(cyc[i:] + cyc[:i]), wanted))
        if rim:
            raise ValidationError("rotation system does not define a permutation of faces")

        # vertex ids as DiagramBuilder.build gives them from host-origin hints,
        # by smallest dart across link and interior cycles
        fresh_id = max(self._top_vertex + 1, 0)
        rotations: dict[int, tuple[int, ...]] = {}
        fresh: dict[int, tuple[int, ...]] = {}
        labels: dict[int, Vector] = {}
        interior_ids: list[int] = []
        cycles.extend((tuple(map(start.__add__, cyc)), None) for cyc in t.interior)
        # cycles are disjoint, so tuple order is the order of smallest darts
        cycles.sort()
        for cyc, wanted in cycles:
            if wanted is None:
                vid = fresh_id
                fresh_id += 1
                fresh[vid] = ()
                interior_ids.append(vid)
            elif len(wanted) == 1 and not wanted & rotations.keys():
                (vid,) = wanted
            else:
                vid = fresh_id
                fresh_id += 1
                fresh[vid] = tuple(sorted(wanted))
                if wanted:
                    labels[vid] = self.labels[min(wanted)]
            rotations[vid] = cyc

        # the interior labels, translated from the label where the walk starts
        anchor = self.labels[origin[star.link_darts[0]]]
        labels.update((vid, vec_add(anchor, off)) for vid, off in zip(interior_ids, t.offsets))
        for x, off in zip(star.link_darts, t.walk_offsets):
            if self.labels[origin[x]] != vec_add(anchor, off):
                raise ValidationError(f"link dart {x} violates label consistency")

        nv = len(self.rotations) - len(dropped_at) - 1 + len(rotations)
        live_darts = self.live_darts - len(off_center) - len(star.darts) + len(t.inner) + len(uses)
        ne = live_darts // 2
        area = self.area + t.area - len(star.darts)
        if nv - ne + area + 1 != 2:
            raise ValidationError(f"Euler count V-E+F = {nv}-{ne}+{area + 1} != 2; not a sphere map")

        darts = {start + c: (lt, start + tw) for c, lt, tw in t.inner}
        darts.update((r, (t_letter[r - start], seam_twin[r])) for r in uses)
        renamed = {x: glued[x] for x in outer_hosts}
        return Surgery(
            darts=darts,
            rotations=rotations,
            dropped_vertices=(v, *sorted(dropped_at.keys() - rotations.keys())),
            fresh=fresh,
            labels=labels,
            renamed=renamed,
            area=area,
            live_darts=live_darts,
        )

    def apply(self, s: Surgery) -> None:
        """Commit a surgery computed by glue on the current state."""
        origin, letter, twin, pos = self.origin, self.letter, self.twin, self.pos
        rotations, labels = self.rotations, self.labels
        # the new ids lie above every slot, and a step renumbers at least the
        # link classes it glues, so s.darts is never empty; dropped darts
        # keep their slots, dead
        grow = [0] * (max(s.darts) + 1 - len(origin))
        for field in (origin, letter, twin, pos):
            field += grow
        self.live_darts = s.live_darts
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
        # new vertex ids all lie above every host id and all live on
        if s.fresh:
            self._top_vertex = max(s.fresh)
        elif self._top_vertex not in rotations:
            self._top_vertex = max(rotations)
        bfd = self.boundary_face_dart
        self.boundary_face_dart = s.renamed.get(bfd, bfd)
        self.area = s.area
