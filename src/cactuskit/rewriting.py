"""Words in the generators and the word problem by hyperplane descent.

A word is a finite sequence of generators.  Because every generator is an
involution, inverses never need to be written; the free reduction step just
deletes adjacent equal letters.

Generators are ranked by kappa(g) = (-interval length, start, end): longer
intervals first, then smaller start index.  Words are ordered kappa-shortlex:
shorter words first, then by their sequences of kappa ranks, compared
lexicographically.  The *normal form* of a group element is its
kappa-shortlex-least word, a shortest word of the element.

Every defining relation besides g g = e is a square, (a, b) = (b', a'):

* disjoint intervals commute, (a, b) = (b, a);
* if a's interval strictly contains b's, (a, b) = (conj(a, b), a), the
  conjugate core.conjugate_nested(a, b) of the same interval length.

_successors_all lists these moves, and oracle_closure follows them.  The
paper's theorem is that the Cayley complex they span, with its cubes filled
in, is CAT(0), and two facts about CAT(0) cube complexes turn that into a
word problem that needs no rewriting rules (Sageev, Ends of group pairs and
non-positively curved cube complexes, 1995; Niblo and Reeves, The geometry
of cube complexes and the complexity of their fundamental groups, 1998):

* an edge path is a geodesic iff it crosses no hyperplane twice;
* two geodesics with the same ends differ by square moves.

A hyperplane's edges are the ones the squares carry into each other: in
(a, b) = (b', a') the edge labelled b is carried to the one labelled b' =
Presentation.par[a*G + b].  The right descent set of a geodesic w, the
letters g with |w g| < |w|, is the set of labels of its hyperplanes that can
be carried to its end; they span a cube there, so they form a clique of the
link at e, kept as an int mask.  Appending a letter g (_geodesic):

* g not in the mask: w g is a geodesic, and its mask is g plus the image
  par[g*G + h] of every h in the mask that spans a square with g (_up);
* g in the mask (_cancel): carry g's hyperplane left, letter by letter, to
  the letter that crosses it, delete that letter, and carry the letters it
  passed across the hyperplane.  The word gets shorter, so reduction ends.

The masks are the states of a finite automaton, each a row of its own:
the presentation makes a mask's row when it is first seen, and row[g] holds
the row after appending g, the cancel marker () when g is in the mask, or
None until _up fills it; row[G] is the mask's kappa-least letter (see
Presentation.reset_states).  A link has few cliques (13 masks for AJ_3, 394
for J_6, counting the empty one), so there are at most cliques + 1 rows,
and each letter costs one list index, t = s[g].  Words carry their
generator ids and their presentation, so the word problem runs on ids from
the parsed text to the printed one; up to degree 9, where every letter is
spelled in three characters, parse_word decodes a canonical word in two
codec calls.

Most cancels are short.  _geodesic and _normal_ids take three of them
inline: g equal to the last letter b (a pop); g whose hyperplane, carried
across b to x = par[b*G + g], is crossed by the letter a before it, so that
a b g reduces to the one letter par[a*G + b]; and x carried on across a to
the letter c before that, so that c a b g reduces to par[c*G + a] par[x*G + b].
Only a carry across three letters or more calls _cancel.  Both run on
buffers with an end index k, so a pop is k -= 1, and the peel writes each
letter it takes off into the slot it frees, the normal form reversed.

So equal(u, v) reduces u followed by v reversed (the inverse of v) and asks
for the empty word, and normalize reduces the inverse of a word and then
takes off the kappa-least letter of its descent set, one at a time.  Every
step is a defining relation, so answers are sound whatever the degree; that
they are exact (one normal form per element) is the CAT(0) theorem.

equal checks parity first.  Every relator (g g and each square) has even
length, so a word's length mod 2 is a homomorphism onto Z/2: a word of odd
length cannot reduce to the empty word, and an odd |u| + |v| answers False
with no reduction.  That False is exact, whatever the degree.

Then it cuts what the two words share: if u = p x q and v = p y q, then
u v^-1 = p (x y^-1) p^-1, which is e iff x y^-1 is, in any group.  So only
x followed by y reversed is reduced, not the letters of p and q.
"""

from __future__ import annotations

import random
from codecs import charmap_build, charmap_encode, utf_16_le_decode
from dataclasses import dataclass
from functools import cached_property

from .core import (
    BudgetExceeded,
    Generator,
    GroupSpec,
    Presentation,
    SpecMismatch,
    parse_generator,
    presentation,
)


@dataclass(frozen=True, eq=False, init=False)
class Word:
    """A sequence of generators of one group.

    A word is held as `ids`, the indices of its letters in
    presentation(spec).gens, which the word problem runs on; `letters`, the
    Generator objects, are made on first use.  Word(spec, letters) checks
    every letter's spec (by value, for a spec object other than the
    letter's) and computes the ids once.  parse_word, normalize,
    oracle_closure and random_word make their words from ids of the spec's
    own tables (Word._of), on presentation(spec).spec, and skip that check.
    Either way the word keeps its Presentation, which the word problem and
    the text edge read instead of looking it up per call.

    Equality and hashing are by value (spec plus letter sequence, compared
    through the ids that name the letters) across all Word subclasses, so a
    certified NormalForm compares equal to the plain Word with the same
    letters.
    """

    spec: GroupSpec
    ids: tuple[int, ...]

    def __init__(self, spec: GroupSpec, letters) -> None:
        letters, pres = tuple(letters), presentation(spec)
        fields = self.__dict__
        fields["spec"] = spec
        fields["ids"] = tuple(pres.ids(letters))
        fields["_pres"] = pres
        fields["letters"] = letters

    @classmethod
    def _of(cls, pres: Presentation, ids) -> "Word":
        """The word of pres.spec with these generator ids, made without the
        per-letter check: the ids index pres's own tables."""
        word = object.__new__(cls)
        fields = word.__dict__  # where the frozen fields live, set directly
        fields["spec"] = pres.spec
        fields["ids"] = tuple(ids)
        fields["_pres"] = pres
        return word

    @cached_property
    def letters(self) -> tuple[Generator, ...]:
        return self._pres.letters(self.ids)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Word):
            return self.spec == other.spec and self.ids == other.ids
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.spec, self.ids))

    @staticmethod
    def from_pairs(spec: GroupSpec, pairs) -> "Word":
        return Word(spec, tuple(Generator(p, q, spec) for p, q in pairs))

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(self._pres.pairs.__getitem__, self.ids))

    def text(self) -> str:
        return ";".join(map(self._pres.texts.__getitem__, self.ids)) or "e"

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"word[{self.text()}]"


class NormalForm(Word):
    """A word certified by normalize() to be its element's normal form."""


def identity(spec: GroupSpec) -> Word:
    return Word(spec, ())


# "d," to the byte d + 1 and "d;" to d + 11, each pair read as one UTF-16-LE
# code unit; slot 0 holds U+0000, as an EncodingMap needs (see Presentation)
_FRAMES = charmap_build("".join(
    ["\0", *(chr(ord(d) | ord(end) << 8) for end in ",;" for d in "0123456789")]
).ljust(256, "\ufffe"))
# byte b to b - 1: undoes Presentation.pair_map's offset of one
_UNSHIFT = bytes([255, *range(255)])


def parse_word(spec: GroupSpec, text: str) -> Word:
    """Parse the semicolon-separated word syntax, e.g. "1,2;2,3;3,1".

    The empty string denotes the empty word (the identity).  Up to degree 9
    a canonical word ("p,q" letters, three characters each) is decoded in
    two codec calls: with a ";" appended, its frames "p," and "q;" go to
    bytes through _FRAMES, and each (p, q) byte pair through
    Presentation.pair_map to its id.  Any other text maps its canonical
    spellings to ids through one dict and parses the rest with
    parse_generator, with its errors.
    """
    pres = presentation(spec)
    text = text.strip()
    if not text or text == "e":
        return Word._of(pres, ())
    # a run of U+0000 would pass both tables as the byte 0, so it parses below
    if pres.pair_map is not None and len(text) & 3 == 3 and text.isascii() and "\0" not in text:
        try:
            pq = charmap_encode(utf_16_le_decode((text + ";").encode())[0], None, _FRAMES)[0]
            ids = charmap_encode(utf_16_le_decode(pq)[0], None, pres.pair_map)[0]
        except UnicodeEncodeError:  # not "p,q;" frames, or a pair that names no generator
            pass
        else:
            return Word._of(pres, ids.translate(_UNSHIFT))
    parts, gid = text.split(";"), pres.gid_of_text
    try:
        return Word._of(pres, list(map(gid.__getitem__, parts)))
    except KeyError:  # parsed below, outside the handler, so no error chains to it
        pass
    return Word._of(pres, [
        gid[part] if part in gid else pres.id_of(parse_generator(pres.spec, part))
        for part in parts
    ])


def free_reduce(word: Word) -> Word:
    """Delete adjacent equal letters until none remain (leftmost first)."""
    out: list[int] = []
    for g in word.ids:
        if out and out[-1] == g:
            out.pop()
        else:
            out.append(g)
    return Word._of(word._pres, out)


def _successors_all(ids: tuple[int, ...], pres: Presentation):
    """Every length-2 relation move at every position, in both directions.

    The free cancellation of an equal pair, or the defining square
    (a, b) = (par[a*G + b], par[b*G + a]) of a pair that spans one (a
    commuting swap or a nested flip): the one list of the presentation's
    moves, which generates oracle_closure's length-capped classes.
    """
    G, par = pres.G, pres.par
    for i in range(len(ids) - 1):
        a, b = ids[i], ids[i + 1]
        if a == b:
            yield ids[:i] + ids[i + 2 :]
        elif par[a * G + b] >= 0:
            yield ids[:i] + (par[a * G + b], par[b * G + a]) + ids[i + 2 :]


def _up(pres: Presentation, s: list, g: int) -> list:
    """The row of w g, for a geodesic w in row s that g does not shorten.
    Callers read s[g] first; this fills it when it is None."""
    G, by_rank, bit, par = pres.G, pres.by_rank, pres.bit, pres.par
    got, row, m = bit[g], g * G, s[G + 1]
    while m:
        low = m & -m
        h = par[row + by_rank[low.bit_length() - 1]]
        if h >= 0:
            got |= bit[h]
        m ^= low
    t = s[g] = pres.state(got)
    return t


def _cancel(pres: Presentation, w: list[int], states: list[list], g: int, n: int) -> None:
    """Reduce w[:n] g in place, for a geodesic w[:n] with g in its descent
    set: w[:n - 1] becomes the shorter geodesic, and states[k], the row of
    w[:k], is kept in step for k < n.  The letters put back make a geodesic,
    so none of their slots holds a cancel.  The callers take carries of one
    and two letters inline and call this for three or more."""
    G, par = pres.G, pres.par
    j, a = n - 1, g
    while w[j] != a:  # carry g's hyperplane left to the letter crossing it
        a = par[w[j] * G + a]
        j -= 1
    s = states[j]
    for k in range(j + 1, n):  # and the letters it passed back across it, one place left
        x = w[k]
        y = w[k - 1] = par[a * G + x]
        a = par[x * G + a]
        s = states[k] = s[y] or _up(pres, s, y)


def _geodesic(pres: Presentation, ids) -> tuple[list[int], list[list]]:
    """A shortest word w of the element `ids` spells, with its len(w) + 1
    prefix rows: states[k] is the row of w[:k].

    w and states are buffers of the input's length with an end index k:
    appending a letter writes w[k] and states[k + 1], a pop decrements k,
    and both are cut to k letters (and k + 1 rows) at the end."""
    G, par = pres.G, pres.par
    w = [0] * len(ids)
    s = pres.root
    states = [s] * (len(ids) + 1)
    k = 0
    for g in ids:
        t = s[g]
        if t or t is None and (t := _up(pres, s, g)):  # a row: g lengthens w
            w[k] = g
            k += 1
            states[k] = s = t
            continue
        b = w[k - 1]
        if b == g:  # g cancels the last letter
            k -= 1
            s = states[k]
            continue
        # g is in the mask but is not the last letter, so the carry across b
        # ends at a letter before it (before a too when it passes a)
        a, x = w[k - 2], par[b * G + g]
        if x == a:  # carried across b, g's hyperplane meets a: a b g = par[a*G + b]
            k -= 1
            y = w[k - 1] = par[a * G + b]
            s = states[k - 1]
            s = states[k] = s[y] or _up(pres, s, y)
            continue
        c = w[k - 3]
        # carried on across a, it meets c: c a b g = par[c*G + a] par[x*G + b]
        if par[a * G + x] == c:
            y = w[k - 3] = par[c * G + a]
            s = states[k - 3]
            s = states[k - 2] = s[y] or _up(pres, s, y)
            y = w[k - 2] = par[x * G + b]
            k -= 1
            s = states[k] = s[y] or _up(pres, s, y)
            continue
        _cancel(pres, w, states, g, k)
        k -= 1
        s = states[k]
    del w[k:], states[k + 1 :]
    return w, states


def _normal_ids(pres: Presentation, ids) -> list[int]:
    """The normal form of the element `ids` spells.

    The first letter of the normal form of x is the kappa-least letter of its
    left descent set, the right descent set of x^-1; take it off and repeat.
    The peel runs on the geodesic's own buffers with an end index k, taking
    pops and carries of one and two letters inline, as in _geodesic.  Each
    step frees the slot w[k - 1] and stores the letter it took off there (a
    pop finds it there already), so w ends as the normal form reversed.
    """
    G, par = pres.G, pres.par
    w, states = _geodesic(pres, ids[::-1])
    k = len(w)
    while k:
        g = states[k][G]
        b = w[k - 1]
        if b == g:
            k -= 1
            continue
        a, x = w[k - 2], par[b * G + g]
        if x == a:
            k -= 1
            y = w[k - 1] = par[a * G + b]
            s = states[k - 1]
            states[k] = s[y] or _up(pres, s, y)
            w[k] = g
            continue
        c = w[k - 3]
        if par[a * G + x] == c:
            y = w[k - 3] = par[c * G + a]
            s = states[k - 3]
            s = states[k - 2] = s[y] or _up(pres, s, y)
            y = w[k - 2] = par[x * G + b]
            k -= 1
            states[k] = s[y] or _up(pres, s, y)
            w[k] = g
            continue
        _cancel(pres, w, states, g, k)
        k -= 1
        w[k] = g
    w.reverse()
    return w


def normalize(word: Word) -> NormalForm:
    """The normal form of the word: its element's kappa-shortlex-least word.

    A pure function of the element, so equal words normalize alike; never
    longer than the input, and of the same length parity.
    """
    pres = word._pres
    return NormalForm._of(pres, _normal_ids(pres, word.ids))


def is_normal(word: Word) -> bool:
    """True iff the word is its element's normal form."""
    return _normal_ids(word._pres, word.ids) == list(word.ids)


def equal(w1: Word, w2: Word) -> bool:
    """Word problem: do the two words spell the same group element?

    An odd total length answers False at once (see the module docstring).
    Otherwise w1 w2^-1 is reduced to a shortest word, which is empty iff the
    two are equal; w2^-1 is w2 reversed, every generator being an involution.
    First the longest common prefix p is cut, then the longest common suffix
    q that does not overlap it; w1 = p x q and w2 = p y q are equal iff x
    and y are, so only x y^-1 is reduced.
    """
    if w1.spec is not w2.spec and w1.spec != w2.spec:
        raise SpecMismatch("cannot compare words from different groups")
    u, v = w1.ids, w2.ids
    j, k = len(u), len(v)
    if (j + k) & 1:
        return False
    i, n = 0, min(j, k)
    while i < n and u[i] == v[i]:
        i += 1
    while j > i and k > i and u[j - 1] == v[k - 1]:
        j -= 1
        k -= 1
    return not _geodesic(w1._pres, u[i:j] + v[i:k][::-1])[0]


def oracle_closure(word: Word, budget: int = 10**6) -> frozenset[Word]:
    """Every word reachable by relation moves without growing the length.

    Relation moves preserve length and free cancellation shrinks it, so this
    set is finite: it is the equivalence class of `word` cut off at length
    len(word).  Exceeding `budget` distinct words raises BudgetExceeded
    rather than returning a truncated set.
    """
    pres = word._pres
    root = word.ids
    seen = {root}
    frontier = [root]
    while frontier:
        nxt: list[tuple[int, ...]] = []
        for w in frontier:
            for s in _successors_all(w, pres):
                if s not in seen:
                    seen.add(s)
                    if len(seen) > budget:
                        raise BudgetExceeded(
                            f"closure of {word!r} exceeded {budget} words"
                        )
                    nxt.append(s)
        frontier = nxt
    return frozenset(Word._of(pres, ids) for ids in seen)


def random_word(spec: GroupSpec, length: int, seed: int) -> Word:
    """A reproducible uniform random word: same (spec, length, seed), same word."""
    rng = random.Random(seed)
    pres = presentation(spec)
    return Word._of(pres, [rng.randrange(pres.G) for _ in range(length)])
