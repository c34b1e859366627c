"""Vertex stars replaced in place, on a mutable copy of a diagram's arrays.

A push run keeps one DartStore and replaces one star per step, so a step
costs O(star) and not O(diagram).  Of the boundary the store keeps only the
boundary face dart, so no step reads the boundary beyond its star.  A
replacement comes as a ``Template``: compiled once from the DiagramBuilder
that assembled it, with what does not depend on the host checked then
(relator words, one use per dart, interior rotations reached from the link,
label offsets along every edge).  How its seam is sewn into a host, which
classes the link identifies and how each link rotation is threaded, depends
only on the template and the link shape: the roles of the darts the step
drops, their cyclic order at each link vertex, where runs of kept host
darts lie between them, and the folds (``DartStore._link_shape``).  So it
is compiled once per template and shape into a ``Gluing``, kept on the
template, and its checks (no link dart identified with its own twin, one
use per seam dart, twins on faces, a permutation that takes every rim run)
run then, as the shape fixes their outcome.  The gluing fixes the step's
new darts too, up to a shift by the first new id: one block of letters and
twin ranks, which ``DartStore.apply`` appends to the dart lists whole.
``DartStore.glue`` checks per step only what the host brings, the walk
word; vertex ids, interior rotations and labels are made per step too.  Its
Euler count runs once per gluing, on the glue that compiles it, with the
host's E read as V + F - 2, as every host is a sphere map: the gluing, the
template and the shape fix the V, E and F the step adds.  The labels at
the link need no check: the walk word and the labels the host holds along
its edges fix them (``DartStore.glue``).  The host
darts around the link that the step keeps, its rim, are copied into the
new rotations as slices of their host rotations and never re-checked: a
rim edge held before the step, its far end keeps its label, and its near
end is a link vertex, whose label the step keeps.  ``DartStore.diagram`` hands its own dart
lists and rotations to ``Diagram.build``, the full validator, which ends
the store: a push run's product is its final diagram.  The pusher imports
this module where it uses it, so a start that never pushes does not load
it.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import add
from typing import Sequence

from vkpush.abelianization import Vector
from vkpush.diagram import (
    Diagram,
    DiagramBuilder,
    check_relator_faces,
    live,
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
    """One star replacement, as DartStore.glue computes it and apply commits it.

    The new darts are one block of ranks from the first new id, the length
    of the dart lists: apply appends it to the lists and shifts its twin
    ranks by that id.
    """

    # the new darts' letters, 0 on a rank the step leaves dead, and their
    # twins' ranks: the gluing's own tuples, not copies
    letter: tuple[int, ...]
    twin: tuple[int, ...]
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
    # the host darts that leave: spokes, link darts and their twins
    dropped_darts: frozenset[int]
    area: int


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
    # the rotations of the vertices off the walk, each from its smallest
    # rank and in that order, and their labels less the label where the
    # walk starts
    interior: tuple[tuple[int, ...], ...]
    offsets: tuple[Vector, ...]
    # link shape -> how the seam is sewn into a host of that shape, filled
    # by DartStore.glue; dataclasses.replace starts a template with none
    gluings: dict[LinkShape, Gluing] = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def compile(cls, bld: DiagramBuilder, walk: Sequence[int]) -> Template:
        """Resolve a builder and its outer walk, checking what no host changes.

        Checked once here, by the code every diagram goes through: each
        cell's relator word (``check_relator_faces``); one use per class,
        each twin on a face and a walk that reaches every cell
        (``DiagramBuilder.resolve``); and the label offsets along every
        edge, from the zero label where the walk starts (``walk_labels``),
        so a glue whose walk word matches its link need check no label.
        """
        check_relator_faces(bld.p, map(tuple, map(map, repeat(bld.letter.__getitem__), bld.cells)))
        arrays, cells = bld.resolve(walk)
        origin, letters, twins, rotations = map(arrays.get, ("origin", "letter", "twin", "rotations"))
        labels = walk_labels(bld.m, origin, letters, twins, rotations, arrays["base"], bld.m.zero)
        order = live(letters)
        rank = {r: i for i, r in enumerate(order)}
        letter = tuple([letters[r] for r in order])
        twin = tuple([rank[twins[r]] for r in order])
        pred = [-1] * len(order)
        for cell in cells:
            ids = [rank[r] for r in cell]
            for j, r in enumerate(ids):
                pred[r] = ids[j - 1]
        ranks = tuple(rank[bld.rep(x)] for x in walk)
        seam = frozenset(ranks) | {twin[r] for r in ranks}
        # the rotations that hold no seam class are the interior vertices
        interior: list[tuple[int, ...]] = []
        offsets: list[Vector] = []
        for v, rot in rotations.items():
            cyc = tuple(map(rank.__getitem__, rot))
            if seam.isdisjoint(cyc):
                interior.append(cyc)
                offsets.append(labels[v])
        return cls(
            letter=letter,
            twin=twin,
            pred=tuple(pred),
            area=len(cells),
            walk=ranks,
            seam=seam,
            interior=tuple(interior),
            offsets=tuple(offsets),
        )


# per role of a dropped dart, its successor at its link vertex, or its fold
LinkShape = tuple[int, ...]


@dataclass(frozen=True)
class Gluing:
    """How a template's seam is sewn into a host whose link has one shape.

    Ranks are the template's, so a new id is the first new id plus a rank,
    and the step's new darts are one block of ranks that every host of the
    shape shares.
    A host dart the step drops is named by its role (``DartStore._link_shape``)
    and a link vertex by a slot: the position of the first link dart that
    starts there.
    """

    # the step's new darts as one block of ranks, up to the last rank it
    # keeps: each rank's letter, 0 on a dead rank, and its twin's rank
    letter: tuple[int, ...]
    twin: tuple[int, ...]
    # the link positions whose twin the step keeps under a new id, and the
    # rank of that id
    outer: tuple[int, ...]
    outer_ranks: tuple[int, ...]
    # each new rotation at the link that takes rim runs, as pairs (role,
    # ranks): the rim run after that role, then a block of new darts; and
    # the slots of the link vertices it takes
    wrapped: tuple[tuple[tuple[tuple[int, tuple[int, ...]], ...], tuple[int, ...]], ...]
    # each new rotation at the link of new darts alone, from its smallest
    # rank, and the slots it takes
    closed: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    # the slot of every link vertex
    vertices: tuple[int, ...]

    @classmethod
    def compile(cls, t: Template, key: LinkShape, link: Sequence[int], start: int) -> Gluing:
        """Sew the template's seam into the link shape ``key``, checking the sewing.

        The link joins the seam through a union-find that picks roots as
        ``DiagramBuilder.alias`` does, so a glued class keeps its
        replacement root's id; a pinched walk on either side folds edges
        and merges link vertices.  Then the link rotations are threaded by
        sigma(e) = twin(pred(e)).  Checked here: no link dart is identified
        with its own twin, each seam class is used once across faces and
        its twin lies on a face, the folds pair link darts up, the
        successors permute the roles, the threads form a permutation, and
        they take every rim run once.  Each check reads only the template,
        the roles of the dropped darts, their cyclic order at each link
        vertex, whether a rim run follows each, and the folds, all of which
        the key fixes; so its outcome holds for every host of the shape.
        ``link`` and ``start`` only name darts in the messages.

        A thread is checked only for a successor role beyond the link and
        its twins, and for a class it has placed already; where else it
        goes is fixed by the checks before it:

        - a seam class a thread reaches is the twin of a used class, which
          the twin check has made used too, so it is in ``pred`` or
          ``outer``;
        - a class off the seam lies on a cell at a walk vertex: sigma(e) =
          twin(pred(e)) keeps the template vertex, and the thread entered
          that vertex from a seam class, so no thread reaches an interior
          vertex;
        - each class is placed once, and ``outer`` maps distinct classes to
          distinct roles, as the use check refuses two roles glued to one
          class; so no thread takes a rim run twice, and ``rim`` counts the
          runs that no thread took.
        """
        n = len(t.walk)
        t_twin, t_pred, seam = t.twin, t.pred, t.seam
        partner = {i: -1 - j for i, j in enumerate(key[n : 2 * n]) if j < 0}

        def host_twin(r: int) -> int:
            return r - n if r >= n else partner.get(r, r + n)

        # a union-find over seam ranks and host roles, a role r as -1 - r
        parent: dict[int, int] = {}

        def find(u: int) -> int:
            while u in parent:
                u = parent[u]
            return u

        for i, a in enumerate(t.walk):
            ra, rb = find(a), find(-1 - i)
            if ra == rb:
                continue
            ta = find(t_twin[ra])
            if ta == rb:
                raise ValidationError(f"cannot identify link dart {link[i]} with its own twin")
            tb = find(t_twin[rb] if rb >= 0 else -1 - host_twin(-1 - rb))
            parent[rb] = ra
            if ta != tb:
                parent[tb] = ta
        # every host dart ends up in a seam class, numbered by its root's rank
        number = {r: find(r) for r in seam}
        outer_roles = [n + i for i in range(n) if i not in partner]
        roles = [*range(n), *outer_roles, *range(2 * n, len(key))]
        glued = {r: find(-1 - r) for r in roles if r < 2 * n}
        seam_twin = {number[r]: number[t_twin[r]] for r in seam}

        # each surviving seam class: the face predecessor of its one use on a
        # cell, or (outer) the host dart whose face it continues
        on_cells = [r for r in seam if t_pred[r] >= 0]
        uses = [number[r] for r in on_cells] + [glued[r] for r in outer_roles]
        if len(set(uses)) < len(uses):
            r, count = next((r, c) for r, c in Counter(uses).items() if c > 1)
            raise ValidationError(f"dart {start + r} is used {count} times across faces")
        pred = {number[r]: number[q] if (q := t_pred[r]) in seam else q for r in on_cells}
        outer = {glued[r]: r for r in outer_roles}
        for r in uses:
            if r < 0:
                # a kept host dart that no seam class took: a one-sided fold
                i = outer[r] - n
                raise ValidationError(f"twin map is not a fixed-point-free involution at dart {link[i]}")
            if seam_twin[r] not in pred and seam_twin[r] not in outer:
                raise ValidationError(f"dart {start + r} has a twin outside every face")
        for i, j in partner.items():
            if j == i or partner.get(j) != i:
                raise ValidationError(f"twin map is not a fixed-point-free involution at dart {link[i]}")

        # the roles at a link vertex form a cycle of successors, and its
        # smallest role is its slot
        if sorted(key[r] >> 1 for r in roles) != roles:
            raise ValidationError("rotation system does not define a permutation of faces")
        slot: dict[int, int] = {}
        for r in roles:
            u = r
            while u not in slot:
                slot[u] = r
                u = key[u] >> 1
        rim = sum(key[r] & 1 for r in roles)
        hints: dict[int, set[int]] = {}
        for r, e in glued.items():
            hints.setdefault(e, set()).add(slot[r])

        # each cycle holds a seam class, the template's interior cycles are
        # closed, and a seam class glued on the outer side of the link turns
        # into the host rotation: the rim run after its role (as -1 - role),
        # then the seam class glued to the twin of the dropped dart ending it
        cycles: list[tuple[list[int], set[int]]] = []
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
                r = outer.get(e)
                if r is None:
                    if e in pred:
                        q = pred[e]
                    else:
                        q = t_pred[e]
                        q = number[q] if q in seam else q
                    e = seam_twin[q] if q in seam else t_twin[q]
                else:
                    y, run = key[r] >> 1, key[r] & 1
                    if y >= 2 * n:
                        raise ValidationError("rotation system does not define a permutation of faces")
                    if run:
                        cyc.append(-1 - r)
                        rim -= 1
                    e = seam_twin[glued[host_twin(y)]]
                if e == e0:
                    break
                if e in placed:
                    raise ValidationError("rotation system does not define a permutation of faces")
                placed.add(e)
                cyc.append(e)
            cycles.append((cyc, wanted))
        if rim:
            raise ValidationError("rotation system does not define a permutation of faces")

        wrapped = []
        closed = []
        for cyc, wanted in cycles:
            slots = tuple(sorted(wanted))
            i = next((i for i, e in enumerate(cyc) if e < 0), None)
            if i is None:
                i = cyc.index(min(cyc))
                closed.append((tuple(cyc[i:] + cyc[:i]), slots))
                continue
            # from a rim run, which a rank block follows
            cyc = cyc[i:] + cyc[:i]
            cuts = [c for c, e in enumerate(cyc) if e < 0] + [len(cyc)]
            pairs = tuple((-1 - cyc[a], tuple(cyc[a + 1 : b])) for a, b in zip(cuts, cuts[1:]))
            wrapped.append((pairs, slots))

        # the new darts: a class off the seam as the template has it; a seam
        # class whose root has a use, with the root of its twin; and letter 0
        # on every other seam rank, merged into another class or the root of
        # one with no use (a spur that a fold removes).  The block ends at the
        # last rank the step keeps
        kept = {r: seam_twin[r] for r in uses}
        letter = [x if r in kept or r not in seam else 0 for r, x in enumerate(t.letter)]
        while not letter[-1]:
            letter.pop()
        twin = [kept.get(r, y) if x else 0 for r, (x, y) in enumerate(zip(letter, t_twin))]
        return cls(
            letter=tuple(letter),
            twin=tuple(twin),
            outer=tuple(r - n for r in outer_roles),
            outer_ranks=tuple(glued[r] for r in outer_roles),
            wrapped=tuple(wrapped),
            closed=tuple(closed),
            vertices=tuple(sorted(set(slot.values()))),
        )


class DartStore:
    """The arrays of a diagram in mutable form, for replacing stars in place.

    It holds what ``Diagram.build`` derived (origin, letter, twin,
    rotations, labels), the three dart fields in lists indexed by dart id
    as a Diagram does, and nothing per dart that the final diagram does
    not take over: a dropped dart leaves a dead slot of letter 0.  No code
    reads a dead slot's twin (``Diagram.build`` walks live darts only): a
    dropped dart keeps its twin, and a rank a step leaves dead has twin
    entry 0 in its block, so its slot holds the first new id.  It counts
    no darts: every store is a sphere map, so its edges number
    V + F - 2.  Faces are read off the rotations on demand, and a
    dart's place in its rotation by ``tuple.index``, as rotations are
    short.  Of the boundary it keeps the boundary face dart,
    whose origin is the base vertex: a step reads no part of the boundary
    beyond its star.
    ``glue`` computes the surgery that replaces a star, and ``apply``
    commits it.  Both cost O(star): the replacement, the corner faces and
    the rotations of the link vertices, where each corner-face dart also
    costs a scan of its vertex's rotation.  Glue does per-dart work only for
    the darts a step drops or creates; the kept host darts at the link
    vertices come along as slices.  ``diagram`` hands the dart lists and
    rotations themselves to the full validator, and the store is finished
    once it has: the diagram would change under a further step.

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
    live, as a step's block of new darts ends at the last rank it keeps,
    and an integer that ``apply`` keeps exact holds the largest vertex id.
    The heap of vertices by norm that ``max_norm_vertex`` reads is made on
    the first query and again after ``diagram()``, and drops a dead entry
    only when it reaches the top: it has no compaction rule, as no pushed
    run has held more than 1.33 entries a live vertex.
    """

    def __init__(self, d: Diagram):
        self.presentation = d.presentation
        self.amap = d.amap
        self.origin, self.letter, self.twin = d.origin.copy(), d.letter.copy(), d.twin.copy()
        self.rotations = dict(d.rotations)
        self.labels = dict(d.labels)
        self.base_label = d.base_label
        self.boundary_face_dart = d.boundary_face_dart
        self.area = d.area
        # a max-heap of vertices by norm_key, whose dead entries leave lazily,
        # made on the first query, and the largest live vertex id, which
        # apply keeps exact
        self._heap: list[tuple] = []
        self._top_vertex = max(self.rotations)

    # -- queries ---------------------------------------------------------------

    def max_norm_vertex(self) -> int:
        """The vertex a push step takes, by norm_key, from a heap with lazy deletion."""
        heap = self._heap
        if not heap:
            heap = self._heap = [norm_key(v, lbl) for v, lbl in self.labels.items()]
            heapq.heapify(heap)
        while self.labels.get(heap[0][2]) != heap[0][1]:
            heapq.heappop(heap)
        return heap[0][2]

    def diagram(self) -> Diagram:
        """The store's own dart lists and rotations, through the full validator.

        This ends the store: the diagram holds the very lists and dict that
        a further step would change.  The validator relists each rotation
        from its smallest dart, which changes nothing here, as every store
        rotation already starts there.  The heap of vertices by norm is
        dropped first, so the build, the peak of a long run, does not hold
        it too; ``max_norm_vertex`` makes it again if asked.
        """
        self._heap = []
        bfd = self.boundary_face_dart
        return Diagram.build(
            self.presentation,
            self.amap,
            origin=self.origin,
            letter=self.letter,
            twin=self.twin,
            rotations=self.rotations,
            base=next(iter(self.rotations)) if bfd is None else self.origin[bfd],
            base_label=self.base_label,
            boundary_face_dart=bfd,
        )

    def star(self, v: int) -> StarView:
        """The closed star of an interior vertex with a regular neighbourhood.

        Errors if v lies on the boundary, carries a loop edge, or if some
        corner face visits v more than once.  A vertex lies on the boundary
        exactly when one of its corner faces is the boundary face, so the
        check reads only the corner faces.  Each corner-face dart costs a
        scan of its vertex's rotation, so refusing a boundary vertex costs
        the sum of the degrees of the boundary's vertices.  So no step
        drops a boundary dart: each dart a step drops lies on a corner face
        of an interior vertex, or is a host dart the step keeps under a new
        id (``Surgery.renamed``).
        """
        rotations = self.rotations
        if v not in rotations:
            raise ValidationError(f"no vertex {v} in the diagram")
        origin, twin = self.origin, self.twin
        spokes = rotations[v]
        # the face orbit of each spoke, the corner it opens, under
        # phi(d) = sigma^-1(twin(d)); each corner face runs from its spoke
        # along the link to the twin of the next spoke
        faces: list[list[int]] = []
        link: list[int] = []
        for d0 in spokes:
            face = [d0]
            t = twin[d0]
            rot = rotations[origin[t]]
            d = rot[rot.index(t) - 1]
            while d != d0:
                face.append(d)
                t = twin[d]
                rot = rotations[origin[t]]
                d = rot[rot.index(t) - 1]
            faces.append(face)
            link += face[1:-1]
        bfd = self.boundary_face_dart
        if any(bfd in face for face in faces):
            raise ValidationError(f"vertex {v} lies on the boundary")
        if v in map(origin.__getitem__, map(twin.__getitem__, spokes)):
            raise ValidationError(f"vertex {v} carries a loop edge; star is not regular")
        # a face that two spokes open has the same smallest dart from both
        keys = list(map(min, faces))
        if len(set(keys)) < len(keys):
            out = next(out for i, out in enumerate(spokes) if keys[i] in keys[:i])
            raise ValidationError(f"face of dart {out} has a repeated corner at vertex {v}")
        if not link:
            raise ValidationError(f"the link of vertex {v} has no edges")
        letter = self.letter.__getitem__
        return StarView(
            center=v,
            darts=tuple(spokes),
            words=tuple(map(tuple, map(map, repeat(letter), faces))),
            link_darts=tuple(link),
            link_word=tuple(map(letter, link)),
        )

    # -- surgery -----------------------------------------------------------------

    def glue(self, star: StarView, t: Template) -> Surgery:
        """The surgery replacing the star by a template's cells, glued along the link.

        The template's walk, read as a boundary walk, must spell the link
        word.  Its classes take ids from the largest dart id plus one, by
        rank.  The corner faces leave, the cells come in, and only the link
        vertices are re-threaded: the interior vertices keep the template's
        rotations, numbered by smallest dart among the new vertices, and
        take its label offsets from the label where the walk starts.  The
        store is not changed.

        How the seam is sewn in, which link and seam classes merge and how
        each link rotation is threaded, depends only on the template and on
        the link shape (``_link_shape``), so it is compiled once per pair
        (``Gluing.compile``) and kept on the template; a glue that raises
        keeps nothing.  A step instantiates it: each link rotation is the
        gluing's rank blocks shifted to the first new id, with the host's
        rim runs between them, from its smallest dart.  The rim, the host
        darts at the link vertices that the step neither drops nor glues,
        is never walked dart by dart: around a link vertex a rim dart turns
        to the next dart of its host rotation, so each run of rim darts
        between two dropped darts joins a new rotation as one slice.

        Checked on every step: the walk word.  The Euler count runs on the
        glue that compiles a gluing, before the template keeps it, with the
        host's E read as V + F - 2, as every host is a sphere map (the
        first went through ``Diagram.build``, and no step uses a gluing
        that has not passed the count).
        The gluing, the template and the shape fix what the step adds to
        each term:

        - V: the new rotations (the gluing's wrapped and closed ones and
          the template's interior), less the link vertices the gluing
          takes and the centre;
        - E: half of the block's live ranks less the dropped darts: the
          link, its twins that are no link darts, the spokes and their
          twins, which the shape numbers;
        - F: the template's area less the degree.

        So a gluing that passed the count on one host passes on every host
        of its shape, and a glue that reuses it need not count.  A gluing
        that fails is never kept, so its shape is counted, and refused
        with the same message, at each attempt.

        The labels at the link need no check, as the walk word fixes them.
        Write l_0 ... l_{n-1} for the link darts and w_i for the walk's
        classes:

        - the link is a closed walk of host edges, head(l_i) =
          origin(l_{i+1}), within a corner face and across corners;
        - host labels agree along every host edge: the first host passed
          ``Diagram.build``, and each step keeps this true, as interior
          labels are the anchor plus the template's offsets, a folded
          vertex takes the label its parts share, and no step changes a
          rim edge;
        - the template's walk is its outer face, and ``Template.compile``
          checked every template edge's labels (``walk_labels``), from
          zero where the walk starts;
        - the walk-word check makes letter(w_i) = letter(l_i).

        So by induction from link position 0, the anchor, the host label
        at origin(l_i) is the anchor plus the template's offset at walk
        position i, and the interior labels glue makes agree with the link
        along every template edge.
        """
        p = self.presentation
        walk_word = tuple(map(t.letter.__getitem__, t.walk))
        if walk_word != star.link_word:
            raise ValidationError(
                "replacement boundary "
                f"{word_to_text(walk_word, p)!r} does not match the link "
                f"{word_to_text(star.link_word, p)!r}"
            )
        origin, twin = self.origin, self.twin
        link = star.link_darts
        key, runs, dropped = self._link_shape(star)
        start = len(origin)
        g = t.gluings.get(key)
        plan = Gluing.compile(t, key, link, start) if g is None else g

        # the new rotations at the link, each from its smallest dart: a rim
        # dart is smaller than every new id
        shift = start.__add__
        cycles: list[tuple[tuple[int, ...], tuple[int, ...] | None]] = []
        for pairs, slots in plan.wrapped:
            cyc: list[int] = []
            for r, block in pairs:
                cyc += runs[r]
                cyc += map(shift, block)
            i = cyc.index(min(cyc))
            cycles.append((tuple(cyc[i:] + cyc[:i]), slots))
        cycles.extend((tuple(map(shift, cyc)), slots) for cyc, slots in plan.closed)
        cycles.extend((tuple(map(shift, cyc)), None) for cyc in t.interior)
        # cycles are disjoint, so tuple order is the order of smallest darts
        cycles.sort()

        # vertex ids as DiagramBuilder.build gives them from host-origin hints,
        # by smallest dart across link and interior cycles
        fresh_id = max(self._top_vertex + 1, 0)
        rotations: dict[int, tuple[int, ...]] = {}
        fresh: dict[int, tuple[int, ...]] = {}
        labels: dict[int, Vector] = {}
        interior_ids: list[int] = []
        for cyc, slots in cycles:
            if slots is None:
                vid = fresh_id
                fresh_id += 1
                fresh[vid] = ()
                interior_ids.append(vid)
            elif len(slots) == 1 and (w := origin[link[slots[0]]]) not in rotations:
                vid = w
            else:
                vid = fresh_id
                fresh_id += 1
                # slots is never empty: each link rotation holds a used seam
                # class, and every seam class is glued, a walk class to its
                # link dart and its twin to that dart's twin (at a fold, to
                # the partner link dart)
                wanted = fresh[vid] = tuple(sorted(origin[link[i]] for i in slots))
                labels[vid] = self.labels[wanted[0]]
            rotations[vid] = cyc

        # the interior labels, translated from the label where the walk starts
        anchor = self.labels[origin[link[0]]]
        for vid, off in zip(interior_ids, t.offsets):
            labels[vid] = tuple(map(add, anchor, off))

        area = self.area + t.area - len(star.darts)
        renamed = dict(zip([twin[link[i]] for i in plan.outer], map(shift, plan.outer_ranks)))
        if g is None:
            # the host is a sphere map, so its E is V + F - 2; the new darts
            # are the block's ranks of nonzero letter
            nv = len(self.rotations) - len(plan.vertices) - 1 + len(rotations)
            new = len(plan.letter) - plan.letter.count(0)
            ne = len(self.rotations) + self.area - 1 + (new - len(dropped)) // 2
            if nv - ne + area + 1 != 2:
                raise ValidationError(f"Euler count V-E+F = {nv}-{ne}+{area + 1} != 2; not a sphere map")
            t.gluings[key] = plan
        return Surgery(
            letter=plan.letter,
            twin=plan.twin,
            rotations=rotations,
            dropped_vertices=(
                star.center,
                *sorted(w for i in plan.vertices if (w := origin[link[i]]) not in rotations),
            ),
            fresh=fresh,
            labels=labels,
            renamed=renamed,
            dropped_darts=dropped,
            area=area,
        )

    def _link_shape(self, star: StarView) -> tuple[LinkShape, dict[int, tuple[int, ...]], frozenset[int]]:
        """The link shape that keys a gluing, and the rim runs of this host.

        Every dart the step drops at the link vertices gets a role: link
        dart i is i, the twin of link dart i is n + i (n the link length)
        unless the link holds it, a fold, and the twin of spoke j is
        2n + j.  The shape holds, for each role r, 2s + 1 when a run of rim
        darts follows r around its link vertex and 2s when none does, where
        s is the next role there; for a fold it holds -1 - j, where link
        dart j is the twin of link dart i.  So it fixes which dropped darts
        share a link vertex, their cyclic order there, where rim runs lie and
        the folds, whatever dart each host rotation lists first.  Beside
        the shape: the rim run after each role that has one, and the darts
        the step drops, those with a role and the spokes.
        """
        origin, twin, host_rotations = self.origin, self.twin, self.rotations
        link, spokes = star.link_darts, star.darts
        n = len(link)
        shape = [0] * (2 * n + len(spokes))
        role = dict(zip(link, range(n)))
        for i, x in enumerate(link):
            j = role.setdefault(twin[x], n + i)
            if j < n:
                shape[n + i] = -1 - j
        role.update(zip(map(twin.__getitem__, spokes), range(2 * n, len(shape))))
        runs: dict[int, tuple[int, ...]] = {}
        # the dropped darts by link vertex and rotation position: each one's
        # successor is the next at its vertex, the last one's the first
        darts = sorted((w := origin[x], host_rotations[w].index(x), r) for x, r in role.items())
        here = None
        for (w, p, r), (u, q, s) in zip(darts, darts[1:] + darts[:1]):
            if w != here:
                here, p0, r0, rot = w, p, r, host_rotations[w]
            if u != w:
                q, s = p0, r0
            if (q - p - 1) % len(rot):
                shape[r] = 2 * s + 1
                runs[r] = rot[p + 1 : q] if p < q else rot[p + 1 :] + rot[:q]
            else:
                shape[r] = 2 * s
        return tuple(shape), runs, frozenset(role).union(spokes)

    def apply(self, s: Surgery) -> None:
        """Commit a surgery computed by glue on the current state."""
        origin, letter, twin = self.origin, self.letter, self.twin
        rotations, labels = self.rotations, self.labels
        # the new darts are one block from the first new id, the lists'
        # length; dropped darts keep their slots, dead, with letter 0
        start = len(origin)
        origin += repeat(0, len(s.letter))
        letter += s.letter
        twin += map(start.__add__, s.twin)
        for x in s.dropped_darts:
            letter[x] = 0
        for w in s.dropped_vertices:
            del rotations[w], labels[w]
        for vid, rot in s.rotations.items():
            rotations[vid] = rot
            for x in rot:
                origin[x] = vid
        labels.update(s.labels)
        # no heap until the first query (or after diagram());
        # max_norm_vertex makes it from the labels
        if self._heap:
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
