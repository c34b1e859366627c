"""Van Kampen diagrams as rotation-system sphere maps.

A diagram stores darts (oriented half-edges) in lists indexed by dart id, a
twin involution, and a counterclockwise rotation of out-darts at every
vertex.  Faces are the orbits of phi(d) = sigma^-1(twin(d)) and are read
with their interior on the left; the first face is the boundary face, read
from ``boundary_face_dart``, and every other face must spell a cyclic
variant of a relator.  The boundary walk of the diagram is the reversed twin
sequence of the boundary face orbit, and starts at the base vertex, which by
convention is the origin of ``boundary_face_dart``.

Vertex labels in Z^n are breadth-first propagated from the base label and
must be consistent along every edge.  ``Diagram.build`` is the single full
validator: every Diagram comes out of it, including those of
``vkpush.store``, which replaces vertex stars in place and checks only what
a replacement creates.  It lists every rotation from its smallest dart,
whichever dart the input starts it at.  A replacement is compiled, not
built into a Diagram, through the same checks: ``DiagramBuilder.resolve``,
which ``DiagramBuilder.build`` runs before the validator, and the
validator's ``check_relator_faces`` and ``walk_labels``.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain, compress, repeat
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from vkpush.abelianization import AbelianizationMap, Vector, norm
from vkpush.presentation import (
    Presentation,
    ValidationError,
    Word,
    letter_token,
    parse_key,
    parse_letter,
    word_to_text,
)


class Diagram:
    """Validated, effectively immutable sphere map with labelled vertices."""

    def __init__(self, **kw):
        # Use Diagram.build; this just stores what build validated.
        self.presentation: Presentation = kw["presentation"]
        self.amap: AbelianizationMap = kw["amap"]
        self.origin: list[int] = kw["origin"]
        self.letter: list[int] = kw["letter"]
        self.twin: list[int] = kw["twin"]
        self.rotations: dict[int, tuple[int, ...]] = kw["rotations"]
        self.base: int = kw["base"]
        self.base_label: Vector = kw["base_label"]
        self.boundary_face_dart: int | None = kw["boundary_face_dart"]
        self.faces: tuple[tuple[int, ...], ...] = kw["faces"]
        self.labels: dict[int, Vector] = kw["labels"]

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        presentation: Presentation,
        amap: AbelianizationMap,
        *,
        origin: list[int],
        letter: list[int],
        twin: list[int],
        rotations: dict[int, Sequence[int]],
        base: int,
        base_label: Sequence[int],
        boundary_face_dart: int | None,
    ) -> "Diagram":
        """Validate a diagram's arrays and keep them: no copy is made.

        The dart fields are lists of one length indexed by dart id; a slot
        whose letter is 0 holds no dart, slot 0 never does, and ``darts``
        lists the others.  The caller hands over lists and rotations that it
        changes no more; each rotation is relisted in place, as a tuple from
        its smallest dart.
        """
        if len(amap.columns) != len(presentation.generators):
            raise ValidationError("abelianization map does not match the presentation")
        base_label = tuple(base_label)
        if len(base_label) != amap.rank or not all(type(c) is int for c in base_label):
            raise ValidationError(f"base label {base_label!r} is not an integer vector of rank {amap.rank}")

        n = len(origin)
        if len(letter) != n or len(twin) != n:
            raise ValidationError("origin, letter and twin must cover the same darts")
        if n and letter[0]:
            raise ValidationError("dart id 0 must be a positive integer")
        darts = n - letter.count(0)
        k = len(presentation.generators)
        for d in compress(range(n), letter):
            t = twin[d]
            if not 0 < t < n or t == d or not letter[t] or twin[t] != d:
                raise ValidationError(f"twin map is not a fixed-point-free involution at dart {d}")
            x = letter[d]
            if not isinstance(x, int) or abs(x) > k:
                raise ValidationError(f"dart {d} carries letter {x!r} outside the alphabet")
            if letter[t] != -x:
                raise ValidationError(f"darts {d} and {t} are twins but not inversely labelled")

        if base not in rotations:
            raise ValidationError(f"base vertex {base} is not a vertex of the diagram")
        # each dart has one origin, so rotations that list only darts of their
        # own vertex, none twice, are disjoint, and they list every dart
        # exactly when prev, the dart before each dart around its vertex (0
        # for none), has as many entries as there are darts
        prev = [0] * n
        for v, rot in rotations.items():
            p = rot[-1] if rot else 0
            for d in rot:
                if not 0 < d < n or not letter[d]:
                    raise ValidationError(f"rotation of vertex {v} lists unknown dart {d}")
                if origin[d] != v:
                    raise ValidationError(f"dart {d} has origin {origin[d]} but sits in the rotation of {v}")
                if prev[d]:
                    raise ValidationError(f"dart {d} appears in two rotations")
                prev[d] = p
                p = d
            rot = tuple(rot)
            if rot and rot[0] != min(rot):
                i = rot.index(min(rot))
                rot = rot[i:] + rot[:i]
            rotations[v] = rot
        if n - prev.count(0) != darts:
            missing = next(d for d in range(n) if letter[d] != 0 and not prev[d])
            raise ValidationError(f"dart {missing} appears in no rotation")

        if not darts:
            if boundary_face_dart is not None:
                raise ValidationError("a diagram without darts cannot name a boundary face dart")
            if set(rotations) != {base}:
                raise ValidationError("a diagram without darts must consist of the base vertex alone")
            faces: list[tuple[int, ...]] = [()]
        elif boundary_face_dart is None or not 0 < boundary_face_dart < n or not letter[boundary_face_dart]:
            raise ValidationError("boundary_face_dart must name an existing dart")
        else:
            # phi(d) = sigma^-1(twin(d)), the face continuation with interior
            # on the left, is prev[twin[d]]; the face walk clears that entry
            # as it leaves d, so a dart whose twin has none left lies on a
            # walked face.  The checks above make twin a fixed-point-free
            # involution of the live darts and prev a permutation of them,
            # so phi is a permutation: a walk around one of its cycles never
            # meets an entry that an earlier cycle cleared.  The boundary
            # face comes first, from its dart; every other face starts at
            # its smallest dart.
            faces = []
            for d0 in chain((boundary_face_dart,), compress(range(n), letter)):
                t = twin[d0]
                d, prev[t] = prev[t], 0
                if not d:
                    continue
                orbit = [d0]
                while d != d0:
                    orbit.append(d)
                    t = twin[d]
                    d, prev[t] = prev[t], 0
                faces.append(tuple(orbit))

        nv, ne, nf = len(rotations), darts // 2, len(faces)
        if nv - ne + nf != 2:
            raise ValidationError(f"Euler count V-E+F = {nv}-{ne}+{nf} != 2; not a sphere map")

        # a diagram without darts names no boundary face dart
        if darts and origin[boundary_face_dart] != base:
            raise ValidationError("the boundary face dart must start at the base vertex")

        check_relator_faces(presentation, map(tuple, map(map, repeat(letter.__getitem__), faces[1:])))
        labels = walk_labels(amap, origin, letter, twin, rotations, base, base_label)
        return cls(
            presentation=presentation,
            amap=amap,
            origin=origin,
            letter=letter,
            twin=twin,
            rotations=rotations,
            base=base,
            base_label=base_label,
            boundary_face_dart=boundary_face_dart,
            faces=tuple(faces),
            labels=labels,
        )

    # -- basic queries -----------------------------------------------------

    def head(self, d: int) -> int:
        return self.origin[self.twin[d]]

    @property
    def darts(self) -> list[int]:
        return live(self.letter)

    @property
    def area(self) -> int:
        return len(self.faces) - 1

    @property
    def boundary_walk(self) -> tuple[int, ...]:
        return tuple(map(self.twin.__getitem__, reversed(self.faces[0])))

    @property
    def boundary_word(self) -> Word:
        return tuple(map(self.letter.__getitem__, self.boundary_walk))

    @property
    def boundary_vertices(self) -> frozenset[int]:
        return frozenset(map(self.origin.__getitem__, self.boundary_walk)) or frozenset({self.base})

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.rotations))

    def degree(self, v: int) -> int:
        return len(self.rotations[v])

    def metrics(self) -> dict:
        boundary = self.boundary_vertices
        dist = {v: 0 for v in boundary}
        queue = deque(boundary)
        while queue:
            v = queue.popleft()
            for d in self.rotations[v]:
                w = self.head(d)
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return {
            "area": self.area,
            "radius": max(dist.values(), default=0),
            "norm": max(norm(lbl) for lbl in self.labels.values()),
        }

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "base_label": list(self.base_label),
            "darts": [
                {
                    "id": d,
                    "origin": self.origin[d],
                    "letter": letter_token(self.letter[d], self.presentation),
                    "twin": self.twin[d],
                }
                for d in self.darts
            ],
            "rotations": {str(v): list(rot) for v, rot in sorted(self.rotations.items())},
            "boundary_face_dart": self.boundary_face_dart,
        }

    @classmethod
    def from_json_dict(cls, obj: object, p: Presentation, m: AbelianizationMap) -> "Diagram":
        if not isinstance(obj, dict):
            raise ValidationError("diagram JSON must be an object")
        for key in ("base", "base_label", "darts", "rotations"):
            if key not in obj:
                raise ValidationError(f"diagram JSON lacks {key!r}")
        if not isinstance(obj["darts"], list):
            raise ValidationError("'darts' must be a list")
        # the lists run to the largest id, so an id above 16 a dart + 1024 is
        # refused first; a twin or rotation entry past them is an unknown dart
        bound = 16 * len(obj["darts"]) + 1024
        origin, letter, twin = [], [], []
        for entry in obj["darts"]:
            if not isinstance(entry, dict) or not {"id", "origin", "letter", "twin"} <= set(entry):
                raise ValidationError(f"malformed dart entry {entry!r}")
            d = entry["id"]
            # a parsed letter is never 0, so a slot with one is taken
            if type(d) is not int or 0 < d < len(letter) and letter[d]:
                raise ValidationError(f"bad or duplicate dart id {d!r}")
            o, t = entry["origin"], entry["twin"]
            if type(o) is not int or type(t) is not int:
                raise ValidationError(f"dart {d} needs an integer origin and twin, not {o!r} and {t!r}")
            if d <= 0:
                raise ValidationError(f"dart id {d!r} must be a positive integer")
            if d > bound:
                raise ValidationError(f"dart id {d} is above {bound}: 16 x {len(obj['darts'])} darts + 1024")
            for field in (origin, letter, twin):
                field += [0] * (d + 1 - len(field))
            origin[d], letter[d], twin[d] = o, parse_letter(entry["letter"], p), t
        rot_obj = obj["rotations"]
        if not isinstance(rot_obj, dict):
            raise ValidationError("'rotations' must be an object")
        rotations: dict[int, tuple[int, ...]] = {}
        for key, rot in rot_obj.items():
            v = parse_key(key, "vertex key", "an integer")
            if not isinstance(rot, list):
                raise ValidationError(f"rotation of vertex {key} must be a list")
            if not all(type(d) is int for d in rot):
                bad = next(d for d in rot if type(d) is not int)
                raise ValidationError(f"rotation of vertex {key} lists {bad!r}, not an integer dart id")
            rotations[v] = tuple(rot)
        if not isinstance(obj["base_label"], list):
            raise ValidationError("'base_label' must be a list")
        base, bfd = obj["base"], obj.get("boundary_face_dart")
        if type(base) is not int:
            raise ValidationError(f"'base' must be an integer vertex id, not {base!r}")
        if not (bfd is None or type(bfd) is int):
            raise ValidationError(f"'boundary_face_dart' must be an integer dart id or null, not {bfd!r}")
        return cls.build(
            p,
            m,
            origin=origin,
            letter=letter,
            twin=twin,
            rotations=rotations,
            base=base,
            base_label=tuple(obj["base_label"]),
            boundary_face_dart=bfd,
        )


def live(letter: Sequence[int]) -> list[int]:
    """The darts of a dart list, ascending: the slots whose letter is not 0."""
    return list(compress(range(len(letter)), letter))


def check_relator_faces(p: Presentation, words: Iterable[Word]) -> None:
    """Raise unless every interior face word is a cyclic variant of a relator."""
    variant_set = p.variant_set
    for w in words:
        if w not in variant_set:
            raise ValidationError(f"interior face {word_to_text(w, p)!r} is not a relator variant")


def walk_labels(
    amap: AbelianizationMap,
    origin: Sequence[int],
    letter: Sequence[int],
    twin: Sequence[int],
    rotations: Mapping[int, Sequence[int]],
    base: int,
    base_label: Vector,
) -> dict[int, Vector]:
    """Vertex labels propagated breadth first from ``base_label`` at ``base``.

    One walk checks the edge equation of every out-dart of every vertex it
    reaches, so labelling every vertex also proves connectivity.  A dart's
    far label is read from a step table, label -> letter -> label, whose
    entry is made the first time the walk leaves a vertex of that label
    along that letter; the entries share their labels, so equal labels in
    the result are one tuple.  The table holds O(labels x letters) and
    lives for one walk.
    """
    columns = amap.signed_columns
    labels: dict[int, Vector] = {base: base_label}
    # every label made so far, keyed by itself, and the step table
    known: dict[Vector, Vector] = {base_label: base_label}
    steps: dict[Vector, dict[int, Vector]] = {}
    queue = deque([base])
    while queue:
        v = queue.popleft()
        lv = labels[v]
        step = steps.get(lv)
        if step is None:
            step = steps[lv] = {}
        for d in rotations[v]:
            w = origin[twin[d]]
            x = letter[d]
            lw = step.get(x)
            if lw is None:
                lw = tuple(map(add, lv, columns[x]))
                lw = step[x] = known.setdefault(lw, lw)
            if w in labels:
                if labels[w] is not lw:
                    raise ValidationError(f"inconsistent labels at vertex {w}")
            else:
                labels[w] = lw
                queue.append(w)
    if len(labels) != len(rotations):
        raise ValidationError("diagram is not connected")
    return labels


def norm_key(v: int, label: Vector) -> tuple:
    """Sort key of the vertex a push step takes: largest norm, then smallest label, then id."""
    return (-sum(map(mul, label, label)), label, v)


class DiagramBuilder:
    """Scratchpad for assembling diagrams from cells plus a boundary walk.

    Darts come in twin pairs.  ``alias`` declares two darts to be the same
    oriented edge (union-find, twin-synchronized).  ``resolve`` resolves all
    classes and derives rotations from the face system; ``build`` funnels
    what it resolved through ``Diagram.build``.
    """

    def __init__(self, p: Presentation, m: AbelianizationMap):
        self.p = p
        self.m = m
        self.letter: dict[int, int] = {}
        self.twin: dict[int, int] = {}
        self.cells: list[list[int]] = []
        self._parent: dict[int, int] = {}
        self._next = 1

    # -- dart bookkeeping ---------------------------------------------------

    def add_dart(self, d: int, letter: int, twin: int) -> None:
        """Register one dart under a caller's id; its twin must be registered too."""
        self.letter[d] = letter
        self.twin[d] = twin
        self._parent[d] = d

    def import_diagram(self, d: Diagram) -> list[int]:
        """Copy a diagram's darts under fresh ids and its interior faces as cells.

        The darts keep their order; returns the boundary walk under the new ids.
        """
        ids = d.darts
        mapping = {old: self._next + i for i, old in enumerate(ids)}
        self._next += len(ids)
        for old, new in mapping.items():
            self.add_dart(new, d.letter[old], mapping[d.twin[old]])
        self.cells.extend([mapping[x] for x in face] for face in d.faces[1:])
        return [mapping[x] for x in d.boundary_walk]

    def new_edge(self, letter: int) -> tuple[int, int]:
        d, t = self._next, self._next + 1
        self._next += 2
        self.add_dart(d, letter, t)
        self.add_dart(t, -letter, d)
        return d, t

    def path(self, word: Word) -> list[int]:
        return [self.new_edge(x)[0] for x in word]

    def add_cell(self, darts: Sequence[int]) -> None:
        if not darts:
            raise ValidationError("cells must have at least one side")
        self.cells.append(list(darts))

    # -- union-find ----------------------------------------------------------

    def rep(self, d: int) -> int:
        root = d
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[d] != root:
            self._parent[d], d = root, self._parent[d]
        return root

    def alias(self, a: int, b: int) -> None:
        ra, rb = self.rep(a), self.rep(b)
        if ra == rb:
            return
        if self.rep(self.twin[ra]) == rb:
            raise ValidationError(f"cannot identify dart {a} with its own twin")
        if self.letter[ra] != self.letter[rb]:
            raise ValidationError(
                f"cannot identify darts with different letters ({self.letter[ra]} vs {self.letter[rb]})"
            )
        ta, tb = self.rep(self.twin[ra]), self.rep(self.twin[rb])
        self._parent[rb] = ra
        if ta != tb:
            self._parent[tb] = ta

    # -- assembly -------------------------------------------------------------

    def resolve(
        self,
        walk: Sequence[int],
        *,
        vertex_hints: Mapping[int, int] | None = None,
        allow_bubbles: bool = False,
    ) -> tuple[dict, list[list[int]]]:
        """Resolve every class and derive the rotations, checking the complex.

        The faces are the cells and a boundary face, the walk read backwards
        through the twins.  Checked here: one use per class across the
        faces, each twin on a face, and that the walk reaches every face;
        with ``allow_bubbles`` the faces it misses are dropped instead.
        Vertices are the cycles of sigma(e) = twin(face predecessor of e),
        numbered by smallest class; a vertex takes the one id its classes
        carry in ``vertex_hints`` (keyed by original dart ids), or a fresh
        one.  Returns the keyword arrays of ``Diagram.build`` but its base
        label, and the cells kept, over class roots.  Relator words and
        labels are left to the caller.
        """
        rep, letter = self.rep, self.letter
        cells = [[rep(d) for d in cell] for cell in self.cells]
        resolved_walk = [rep(d) for d in walk]
        # the twin root of every class, computed once per pair
        twin_of: dict[int, int] = {}
        for face in (resolved_walk, *cells):
            for r in face:
                if r not in twin_of:
                    t = rep(self.twin[r])
                    twin_of[r] = t
                    twin_of[t] = r

        orbit = [twin_of[w] for w in reversed(resolved_walk)]
        faces: list[list[int]] = cells + ([orbit] if orbit else [])

        # the face of each class; then the faces the boundary face reaches
        # across twins
        face_of: dict[int, int] = {}
        for i, face in enumerate(faces):
            face_of.update(dict.fromkeys(face, i))
        if len(face_of) < sum(map(len, faces)):
            d, count = next(
                (d, c) for d, c in Counter(d for face in faces for d in face).items() if c > 1
            )
            raise ValidationError(f"dart {d} is used {count} times across faces")
        # twin_of holds the face classes and their twins
        if len(face_of) < len(twin_of):
            d = next(d for d in face_of if twin_of[d] not in face_of)
            raise ValidationError(f"dart {d} has a twin outside every face")
        reached = {len(cells)} if orbit else set()
        stack = list(reached)
        while stack:
            for d in faces[stack.pop()]:
                f = face_of[twin_of[d]]
                if f not in reached:
                    reached.add(f)
                    stack.append(f)
        if len(reached) < len(faces):
            if not allow_bubbles:
                raise ValidationError("construction left a detached sphere component")
            cells = [face for i, face in enumerate(cells) if i in reached]

        if not orbit:
            return dict(origin=[], letter=[], twin=[], rotations={0: ()}, base=0, boundary_face_dart=None), []

        # sigma(e) = twin(face predecessor of e); cycles are the vertices
        sigma: dict[int, int] = {}
        for face in cells + [orbit]:
            sigma.update(zip(face, [twin_of[d] for d in face[-1:] + face[:-1]]))
        cycle_of: dict[int, int] = {}
        cycles: list[list[int]] = []
        for d0 in sorted(sigma):
            if d0 in cycle_of:
                continue
            cyc = [d0]
            cycle_of[d0] = len(cycles)
            d = sigma[d0]
            while d != d0:
                cycle_of[d] = len(cycles)
                cyc.append(d)
                d = sigma[d]
            cycles.append(cyc)

        # hints speak about original dart ids; fold them onto the vertices,
        # and number fresh vertices above every hint
        hints: dict[int, set[int]] = {}
        fresh = 0
        for dart, vid in (vertex_hints or {}).items():
            if dart in self._parent:
                fresh = max(fresh, vid + 1)
                if (c := cycle_of.get(rep(dart))) is not None:
                    hints.setdefault(c, set()).add(vid)
        vertex_id: list[int] = []
        used: set[int] = set()
        for i in range(len(cycles)):
            wanted = hints.get(i, set())
            # a class carrying several hints is a fold product: a new vertex,
            # not any one of its constituents, so it never usurps their ids;
            # a hint an earlier class took is not reused either
            if len(wanted) == 1 and not wanted & used:
                (vid,) = wanted
            else:
                vid = fresh
                fresh += 1
            used.add(vid)
            vertex_id.append(vid)

        rotations = {vid: tuple(cyc) for vid, cyc in zip(vertex_id, cycles)}
        # dart lists indexed by class root, with dead slots at aliased darts
        origin, letters, twins = ([0] * (max(cycle_of) + 1) for _ in range(3))
        for vid, cyc in rotations.items():
            for d in cyc:
                origin[d], letters[d], twins[d] = vid, letter[d], twin_of[d]
        arrays = dict(origin=origin, letter=letters, twin=twins, rotations=rotations)
        arrays.update(base=origin[orbit[0]], boundary_face_dart=orbit[0])
        return arrays, cells

    def build(self, walk: Sequence[int], base_label: Sequence[int], **options) -> Diagram:
        """The resolved complex, through the full validator; options go to resolve."""
        arrays, _ = self.resolve(walk, **options)
        return Diagram.build(self.p, self.m, base_label=tuple(base_label), **arrays)


# -- isomorphism signatures ---------------------------------------------


def canonical_signature(d: Diagram) -> tuple:
    """A traversal signature equal exactly for isomorphic based maps.

    Darts are renumbered by a breadth-first sweep from the base vertex,
    anchored at the boundary face dart that starts there, so the signature
    is independent of concrete dart and vertex ids.  It reads only arrays a
    ``store.DartStore`` holds too, by live dart: the base is the boundary
    face dart's origin, and only a diagram without darts names none.
    """
    if d.boundary_face_dart is None:
        return ("trivial", d.base_label)
    dart_index: dict[int, int] = {}
    visit: list[tuple[int, ...]] = []
    queue = deque([(d.origin[d.boundary_face_dart], d.boundary_face_dart)])
    seen = {queue[0][0]}
    while queue:
        v, anchor = queue.popleft()
        rot = d.rotations[v]
        shift = rot.index(anchor)
        ordered = rot[shift:] + rot[:shift]
        visit.append(ordered)
        for dart in ordered:
            dart_index[dart] = len(dart_index)
        for dart in ordered:
            h = d.origin[d.twin[dart]]
            if h not in seen:
                seen.add(h)
                queue.append((h, d.twin[dart]))
    body = tuple(
        tuple((dart_index[d.twin[x]], d.letter[x]) for x in ordered)
        for ordered in visit
    )
    return (d.base_label, body)
