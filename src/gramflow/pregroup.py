"""Pregroup type calculus and planar reduction search.

Grammatical types are sequences of basic types, each carrying an integer
adjoint order z.  A basic type is its name, a plain string.  z = 0 is the
plain type, each left adjoint decrements z and each right adjoint increments
it, so ``n^l`` is ``SimpleType("n", -1)`` and ``n^r`` is
``SimpleType("n", 1)``.  A pair of adjacent simple types cancels when the
right one is the right adjoint of the left one, i.e. (b, z) followed by
(b, z+1).  A sequence reduces to a target type by repeatedly cancelling such
pairs; the cancelled pairs of a successful reduction form a planar, fully
nested set of cups which this module searches for and returns as
:class:`ReductionDiagram` values.

>>> seq = parse_type("n n^r s n^l n")
>>> print(reduce(seq, parse_type("s")))
links (0,1) (3,4); through 2

All values are immutable and all functions are pure.
"""

from .errors import ArgumentError, DiagramError, ParseError, integer, positive_int

__all__ = [
    "SimpleType",
    "PregroupType",
    "ReductionDiagram",
    "parse_type",
    "left_adjoint",
    "right_adjoint",
    "contracts",
    "reduce",
    "enumerate_reductions",
    "is_sentence",
    "validate_diagram",
    "ascii_diagram",
]


def _by_fields(op):  # op on two values' field tuples; a value of another class never compares
    def compare(a, b):
        return op(a._fields(), b._fields()) if b.__class__ is a.__class__ else NotImplemented
    return compare


class _Value:
    """A frozen dataclass's behaviour from ``__slots__`` and ``_fields()``, without ``dataclasses``."""

    __slots__ = ()
    __eq__ = _by_fields(tuple.__eq__)

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = map("{}={!r}".format, self.__slots__, self._fields())
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def _tuple(what, values):
    """``values`` as a tuple; :class:`ArgumentError` unless it is iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise ArgumentError(f"{what} is {values!r}, not an iterable") from None


def _link(link):
    """``link`` as a pair of ``int``s; :class:`ArgumentError` unless it is a pair of integers."""
    if link.__class__ is tuple and len(link) == 2 and link[0].__class__ is link[1].__class__ is int:
        return link
    pair = tuple(v if v.__class__ is int else integer("diagram link entry", v)
                 for v in _tuple("diagram link", link))
    if len(pair) != 2:
        raise ArgumentError(f"diagram link {pair} is not a pair")
    return pair


class SimpleType(_Value):
    """A basic type, given by its name, together with its adjoint order z.

    >>> n = SimpleType("n")
    >>> print(SimpleType("n", 1))
    n^r
    >>> right_adjoint(n) == SimpleType("n", 1)
    True
    >>> left_adjoint(right_adjoint(n)) == n
    True
    """

    __slots__ = __match_args__ = ("base", "z")
    __lt__, __le__, __gt__, __ge__ = map(_by_fields, [
        tuple.__lt__, tuple.__le__, tuple.__gt__, tuple.__ge__])

    def __init__(self, base: str, z: int = 0):
        if not isinstance(base, str):
            raise ArgumentError(f"simple type base is {base!r}, not a str")
        if z.__class__ is not int:
            z = integer("simple type order z", z)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "z", z)

    def _fields(self):
        return self.base, self.z

    def __str__(self):
        if self.z == 0:
            return self.base
        mark = "l" * -self.z if self.z < 0 else "r" * self.z
        return f"{self.base}^{mark}"


def left_adjoint(t: SimpleType) -> SimpleType:
    """Decrement the adjoint order."""
    return SimpleType(t.base, t.z - 1)


def right_adjoint(t: SimpleType) -> SimpleType:
    """Increment the adjoint order."""
    return SimpleType(t.base, t.z + 1)


def contracts(a: SimpleType, b: SimpleType) -> bool:
    """True when the adjacent pair ``a b`` cancels to the unit.

    This single rule covers both cancellation laws: a plain type followed by
    its right adjoint, (b, 0)(b, +1), and a left adjoint followed by its
    plain type, (b, -1)(b, 0), as well as their iterated-adjoint shifts.
    """
    return a.base == b.base and b.z == a.z + 1


class PregroupType(_Value):
    """An ordered sequence of simple types; the empty sequence is the unit.

    Concatenation via ``+`` is associative and the empty type is its unit.
    Any iterable of :class:`SimpleType` is stored as a tuple; any other
    element raises :class:`ArgumentError`.

    >>> tv = parse_type("n^r s n^l")
    >>> print(parse_type("n") + tv + parse_type("n"))
    n n^r s n^l n
    """

    __slots__ = __match_args__ = ("simples",)

    def __init__(self, simples: tuple[SimpleType, ...] = ()):
        if simples.__class__ is not tuple:
            simples = _tuple("pregroup type", simples)
        for t in simples:
            if not isinstance(t, SimpleType):
                raise ArgumentError(f"pregroup type element is {t!r}, not a SimpleType")
        object.__setattr__(self, "simples", simples)

    def _fields(self):
        return (self.simples,)

    def __add__(self, other: "PregroupType") -> "PregroupType":
        if not isinstance(other, PregroupType):
            return NotImplemented
        return PregroupType(self.simples + other.simples)

    def __len__(self):
        return len(self.simples)

    def __iter__(self):
        return iter(self.simples)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return PregroupType(self.simples[key])
        return self.simples[key]

    def __str__(self):
        return " ".join(str(t) for t in self.simples)


def _pregroup(value) -> PregroupType:
    """``value`` as a :class:`PregroupType`, whose constructor checks it when it is not one."""
    return value if isinstance(value, PregroupType) else PregroupType(value)


def parse_type(text: str) -> PregroupType:
    """Parse type notation: simple types separated by whitespace or ``.``.

    Each simple type is a base name optionally followed by ``^`` and a run
    of ``l``/``r`` letters applied left to right (``n^rr`` is (n, +2)).
    An empty string denotes the unit type.  Each distinct token is checked
    and built once per call; a malformed one raises :class:`ParseError`
    naming the first malformed token in the text.
    """
    if not isinstance(text, str):
        raise ArgumentError(f"type text is {text!r}, not a str")
    tokens = text.replace(".", " ").split()
    built = dict.fromkeys(tokens)
    for token in built:  # each distinct token once, in the order it first appears
        name, caret, marks = token.partition("^")
        # name: an ASCII letter, then ASCII letters, digits or "_"; marks: one or more of l, r
        if not (name.isascii() and name[:1].isalpha() and name.replace("_", "").isalnum()
                and (not caret or marks and not marks.strip("lr"))):
            raise ParseError(f"malformed simple type {token!r}")
        built[token] = SimpleType(name, marks.count("r") - marks.count("l"))
    return PregroupType(tuple(map(built.__getitem__, tokens)))


class ReductionDiagram(_Value):
    """A planar set of cups witnessing a reduction of a sequence of ``length`` wires.

    ``links`` holds index pairs (i, j) with i < j, each a cup cancelling
    positions i and j of the reduced sequence; the read-only ``through``
    lists the positions covered by no cup, in order.  Links never cross and
    are fully nested: everything strictly under a cup is itself cancelled
    under it.  A length that is not an integer of at least 0 or a link that
    is not a pair of integers raises :class:`ArgumentError`;
    :func:`validate_diagram` checks the structure.
    """

    __slots__ = __match_args__ = ("length", "links")

    def __init__(self, length: int, links: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "length", integer("diagram length", length, 0))
        object.__setattr__(self, "links", tuple(sorted(map(_link, _tuple("diagram link list", links)))))

    def _fields(self):
        return self.length, self.links

    @property
    def through(self) -> tuple[int, ...]:
        """The positions covered by no link, in ascending order."""
        linked = {p for link in self.links for p in link}
        return tuple(p for p in range(self.length) if p not in linked)

    def __str__(self):
        links = " ".join(f"({i},{j})" for i, j in self.links) or "none"
        through = " ".join(str(p) for p in self.through) or "none"
        return f"links {links}; through {through}"


def validate_diagram(
    seq: PregroupType, diagram: ReductionDiagram, target: PregroupType | None = None
) -> list[int]:
    """Check every structural invariant of a diagram against its sequence.

    Returns each position's partner: the other end of its link, or -1 for
    a through wire.  Raises :class:`DiagramError` (also a ``ValueError``)
    describing the first violation found: bad lengths, a position used
    twice, crossing or non-nested links, a link whose endpoint types do not
    cancel, or (when ``target`` is given) surviving wires that do not spell
    the target.  A ``seq`` or ``target`` that is not a :class:`PregroupType`
    is made one, and a ``diagram`` that is not a :class:`ReductionDiagram`
    raises :class:`ArgumentError`.
    """
    seq = _pregroup(seq)
    target = None if target is None else _pregroup(target)
    if not isinstance(diagram, ReductionDiagram):
        raise ArgumentError(f"diagram is {diagram!r}, not a ReductionDiagram")
    n = diagram.length
    if n != len(seq):
        raise DiagramError(f"diagram length {n} != sequence length {len(seq)}")
    partner = [-1] * n
    for i, j in diagram.links:
        if not (0 <= i < j < n):
            raise DiagramError(f"link ({i},{j}) out of range for length {n}")
        if partner[i] >= 0 or partner[j] >= 0:
            raise DiagramError(f"link ({i},{j}) reuses a position")
        if not contracts(seq[i], seq[j]):
            raise DiagramError(f"link ({i},{j}) joins {seq[i]} and {seq[j]}, which do not cancel")
        partner[i], partner[j] = j, i
    # left to right, a stack of open left ends: each right end must close
    # the innermost open cup, and no unlinked position may sit under one
    open_lefts = []
    for p, q in enumerate(partner):
        if q < 0:
            if open_lefts:
                i = open_lefts[-1]
                raise DiagramError(f"position {p} under link ({i},{partner[i]}) is not nested")
        elif p < q:
            open_lefts.append(p)
        else:
            k = open_lefts.pop()
            if k != q:
                raise DiagramError(f"links ({q},{p}) and ({k},{partner[k]}) cross")
    if target is not None:
        survivors = tuple(seq[p] for p, q in enumerate(partner) if q < 0)
        if survivors != target.simples:
            raise DiagramError(
                f"surviving wires {' '.join(map(str, survivors))!r} do not equal "
                f"target {str(target)!r}"
            )
    return partner


def _witness_links(seq, target):
    """Yield the links of all witnesses in canonical order.

    Reducing ``seq`` to ``target`` is full cancellation of ``ext``: ``seq``
    followed by the target's right adjoints, last first.  Each through wire
    is the left end of a cup to an appended adjoint (the yank of a cup and
    a cap), and such cups are dropped from the links.  No cup may start at
    an appended position, or the unit would reduce to ``n^r n`` by expansion.
    ``canc[i][j]`` says [i, j) of ``ext`` cancels completely: i cups with
    some k < j at odd distance whose wire cancels with i's, such that
    [i+1, k) and [k+1, j) cancel.  The rows are filled from the right, each
    only at its balanced ends (the later positions at i's prefix level), so
    every cell a row reads lies in a finished row.  When row i is filled,
    ``partners[i]`` lists, nearest first, only the k whose inner interval
    [i+1, k) cancels, read off the finished row i+1; a row with no balanced
    end lists none, and the witness search never reads it.  Each position
    tries its partners nearest first and an appended one lies rightmost, so
    witnesses come in the lexicographic order of sorted link lists.
    """
    n = len(seq)
    ext = seq + tuple(map(right_adjoint, reversed(target)))
    size = len(ext)
    # a cup joins (b, z)(b, z+1), adding (-1)^z + (-1)^(z+1) = 0 to b's signed
    # count, so [i, j) can cancel only where every base's prefix count is the
    # same at i and j.  level[p] packs the counts over [0, p) into one integer,
    # each base's count times its own power of 2 * size + 1, so no two sets of
    # counts (each within -size..size) share a level.
    radix, weight, code, level = 2 * size + 1, {}, 0, [0]
    for t in ext:
        w = weight.setdefault(t.base, radix ** len(weight))
        code += -w if t.z & 1 else w
        level.append(code)
    if level[0] != level[size]:  # the same gate on all of ext
        return
    # (base, z, parity) -> ascending positions; i's partners are the (base, z+1)
    # at the other parity after i, so mates[i] keeps that list and where i's begin
    where, mates = {}, []
    for p, t in enumerate(ext):
        if p < n:  # no cup starts at an appended position
            found = where.setdefault((t.base, t.z + 1, ~p & 1), [])
            mates.append((found, len(found)))
        where.setdefault((t.base, t.z, p & 1), []).append(p)
    partners = [()] * n  # filled with row i: the partners m whose [i+1, m) cancels
    canc = [[False] * (size + 1) for _ in range(size + 1)]
    for i, row in enumerate(canc):
        row[i] = True

    def closer(i, k, j):  # the first partner of i in (k, j) whose cup leaves [m+1, j) cancelling
        for m in partners[i]:
            if m >= j:
                break
            if m > k and canc[m + 1][j]:
                return m
        return 0

    later = {}  # prefix level -> the positions after i at that level: i's balanced ends
    for i in range(size, -1, -1):
        ends = later.setdefault(level[i], [])
        if ends and i < n:  # a row with no balanced end or an appended start stays False
            found, start = mates[i]
            inner = canc[i + 1]  # row i+1 is finished
            partners[i] = [m for m in found[start:] if inner[m]]
            for j in ends:
                canc[i][j] = closer(i, i, j) > 0
        ends.append(i)
    if not canc[0][size]:
        return
    # depth first over one stack of cups (i, k, j), j ending i's interval
    path, after, i, j, k = [], {}, 0, size, -1
    while True:
        if i == size:
            # path holds its cups by increasing left end, so the links come out sorted
            yield tuple((a, b) for a, b, _ in path if b < n)
        else:  # the next partner of i after k; canc makes every one complete
            k = closer(i, k, j)
            if k:
                path.append((i, k, j))
                after[k] = j  # the interval that resumes past closer k ends at j
                i, j = i + 1, k
                while i == j < size:  # [i, j) has cancelled: go on past closer j
                    i, j = i + 1, after[j]
                k = i - 1
                continue
        if not path:
            return
        i, k, j = path.pop()


def reduce(seq: PregroupType, target: PregroupType) -> ReductionDiagram | None:
    """Find a cancellation-only reduction of ``seq`` to ``target``.

    Returns a witnessing diagram, or ``None`` when no reduction exists.
    Among multiple witnesses the one whose sorted link list is
    lexicographically smallest is returned (leftmost, innermost cups): the
    first of :func:`enumerate_reductions`, so the result is deterministic.

    >>> print(reduce(parse_type("n n^r s n^l n"), parse_type("s")))
    links (0,1) (3,4); through 2
    >>> reduce(parse_type("n n^r s n^l"), parse_type("s")) is None
    True
    """
    found = enumerate_reductions(seq, target, 1)
    return found[0] if found else None


def enumerate_reductions(
    seq: PregroupType, target: PregroupType, limit: int
) -> list[ReductionDiagram]:
    """List all distinct witnesses (up to ``limit``) in canonical order.

    The first element, when any exist, is exactly ``reduce(seq, target)``.
    A ``seq`` or ``target`` that is not a :class:`PregroupType` is made one,
    so an element that is not a :class:`SimpleType` raises :class:`ArgumentError`.
    """
    if limit.__class__ is not int or limit < 1:
        limit = positive_int("limit", limit)
    diagrams = []
    for links in _witness_links(_pregroup(seq).simples, _pregroup(target).simples):
        diagrams.append(ReductionDiagram(len(seq), links))
        if len(diagrams) == limit:
            break
    return diagrams


def is_sentence(seq: PregroupType, sentence: PregroupType | None = None) -> bool:
    """True when the sequence reduces to the sentence type (default ``s``)."""
    if sentence is None:
        sentence = PregroupType((SimpleType("s"),))
    return reduce(seq, sentence) is not None


def ascii_diagram(seq: PregroupType, diagram: ReductionDiagram) -> str:
    r"""Render the diagram as text: the type line with cup arcs drawn below.

    Inner cups sit closest to the type line, enclosing cups below them:

    >>> seq = parse_type("n n^r s n^l n")
    >>> print(ascii_diagram(seq, reduce(seq, parse_type("s"))))
    n  n^r  s  n^l  n
    \___/       \___/

    A diagram that does not fit the sequence raises :class:`DiagramError`.
    """
    partner = validate_diagram(seq, diagram)
    labels = [str(t) for t in seq]
    cols = []
    offset = 0
    for label in labels:
        cols.append(offset + (len(label) - 1) // 2)
        offset += len(label) + 2
    header = "  ".join(labels)
    # left to right, a stack holding the deepest row used under each open
    # cup (its bottom entry is the outside); a cup takes the row below that
    rows, ends, below = [], [], [0]
    for p, q in enumerate(partner):
        if p < q:
            below.append(0)
        elif q >= 0:
            row = below.pop() + 1
            below[-1] = max(below[-1], row)
            if row > len(rows):
                rows.append([])
                ends.append(0)
            a, b = cols[q], cols[p]
            rows[row - 1].append(" " * (a - ends[row - 1]) + "\\" + "_" * (b - a - 1) + "/")
            ends[row - 1] = b + 1
    return "\n".join([header] + ["".join(r) for r in rows])
