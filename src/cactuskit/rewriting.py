"""Words in the generators and the kappa-shortlex rewriting system.

A word is a finite sequence of generators.  Because every generator is an
involution, inverses never need to be written; the free reduction step just
deletes adjacent equal letters.

Generators are ranked by kappa(g) = (-interval length, start, end): longer
intervals first, then smaller start index.  Words are ordered kappa-shortlex:
shorter words first, then by their sequences of kappa ranks, compared
lexicographically.  Every rewriting rule replaces its left side by a
kappa-shortlex-smaller right side, so rewriting always terminates, and a word
is in *normal form* when no rule applies anywhere in it.

The presentation's length-2 relation moves (_successors_all), each oriented
to decrease in this order, are the rules R_2:

* free cancellation: (g, g) -> ();
* commuting swap: adjacent generators with disjoint intervals are
  interchanged when that brings the kappa-smaller letter to the left (for
  equal interval lengths this is the smaller start index; a longer interval
  moves left regardless of start indices);
* nested flip: if the right letter's interval strictly contains the left
  one's, the pair (x, B) rewrites to (B, B x B), bringing the longer interval
  to the left.  The conjugated letter is again a generator
  (core.conjugate_nested), with the same interval length as x.

These alone are not confluent from degree 4 on, in both families:
``3,4;1,2;1,3`` sticks at both ``1,2;3,4;1,3`` (the middle letter escapes
left past the disjoint ``3,4``) and ``3,4;1,3;2,3`` (it is reflected under
``1,3`` by a nested flip), and no static ranking of the generators un-sticks
it without sticking its mirror ``1,2;3,4;2,4``.  So R_2 is completed:
Engine(spec, L) runs Knuth-Bendix completion under the same kappa-shortlex
order, keeping only the critical pairs whose overlap word has length <= L
(Sims, Computation with Finitely Presented Groups, 1994; Holt, Eick and
O'Brien, Handbook of Computational Group Theory, 2005).  Its system
R_L has left sides of length <= L, and every critical pair of length <= L
resolves, so on words of length <= L the normal form does not depend on which
rule is applied where.  The witness above resolves through the length-3 rule
``3,4;1,3;2,3 -> 1,2;3,4;1,3``.

A word uses L = min(len(word), COMPLETION_LENGTH), with COMPLETION_LENGTH = 4.
Rules longer than a word never apply to it, and the truncated completions
nest (the rules of R_L with left side at most L' long are exactly those of
R_L'; the tests check this), so normalize(w) is the R_4 normal form of w, a
pure function of w, while short words never pay for completing long rules.
AJ_3's completion is its 12 length-2 rules at every L, a complete system.
Consequences:

* certified scope: every word of length <= 4 at every degree, and every word
  of AJ_3, has exactly one normal form, and every length-capped relation
  class of such words (oracle_closure) shares it;
* normalize() is sound on every input: the output always represents the same
  group element, and never lengthens;
* equal() is sound (identical normal forms imply equal elements) and is
  complete on the certified scope; beyond it (words longer than 4 at degree
  >= 4) a pair of equal elements can still normalize apart.
  normalization_sinks() detects exactly these cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    BudgetExceeded,
    Generator,
    GroupSpec,
    PreconditionViolated,
    Presentation,
    SpecMismatch,
    _REL_DISJOINT,
    _REL_FIRST,
    _REL_SECOND,
    parse_generator,
    presentation,
)


@dataclass(frozen=True, eq=False)
class Word:
    """A sequence of generators of one group.

    Equality and hashing are by value (spec plus letter sequence) across all
    Word subclasses, so a certified NormalForm compares equal to the plain
    Word with the same letters.  parse_word, normalize, oracle_closure,
    normalization_sinks and random_word build their words on
    presentation(spec).spec, one object per group that all its letters
    carry, so the per-letter spec check passes by identity; a letter of any
    other spec object is still checked by value.
    """

    spec: GroupSpec
    letters: tuple[Generator, ...]

    def __post_init__(self) -> None:
        spec = self.spec
        for g in self.letters:
            if g.spec is not spec and g.spec != spec:
                raise SpecMismatch(f"letter {g!r} does not belong to {spec}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Word):
            return self.spec == other.spec and self.letters == other.letters
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.spec, self.letters))

    @staticmethod
    def from_pairs(spec: GroupSpec, pairs) -> "Word":
        return Word(spec, tuple(Generator(p, q, spec) for p, q in pairs))

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((g.p, g.q) for g in self.letters)

    def text(self) -> str:
        return ";".join(g.text() for g in self.letters) if self.letters else "e"

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"word[{self.text()}]" if self.letters else "word[e]"


class NormalForm(Word):
    """A word certified by normalize() to be a rewriting fixpoint."""


def identity(spec: GroupSpec) -> Word:
    return Word(spec, ())


def parse_word(spec: GroupSpec, text: str) -> Word:
    """Parse the semicolon-separated word syntax, e.g. "1,2;2,3;3,1".

    The empty string denotes the empty word (the identity).
    """
    text = text.strip()
    if not text or text == "e":
        return Word(spec, ())
    pres = presentation(spec)
    spec, parts = pres.spec, text.split(";")
    letters = tuple(map(pres.by_text.get, parts))  # the canonical spellings, parsed once
    if not all(letters):
        letters = tuple(g or parse_generator(spec, part) for g, part in zip(letters, parts))
    return Word(spec, letters)


def free_reduce(word: Word) -> Word:
    """Delete adjacent equal letters until none remain (leftmost first)."""
    out: list[Generator] = []
    for g in word.letters:
        if out and out[-1] == g:
            out.pop()
        else:
            out.append(g)
    return Word(word.spec, tuple(out))


COMPLETION_LENGTH = 4

Rules = dict[tuple[int, ...], tuple[int, ...]]


def _successors_all(ids: tuple[int, ...], pres: Presentation):
    """Every length-2 relation move at every position, in both directions.

    The free cancellation, the commuting swap or the nested flip of each
    adjacent pair.  This is the one list of the presentation's moves: the
    kappa-decreasing ones are the rules R_2 that _complete starts from, and
    all of them together generate oracle_closure's length-capped classes.
    """
    G, rel, conj = pres.G, pres.rel, pres.conj
    for i in range(len(ids) - 1):
        a, b = ids[i], ids[i + 1]
        if a == b:
            yield ids[:i] + ids[i + 2 :]
            continue
        r = rel[a * G + b]
        if r == _REL_DISJOINT:
            yield ids[:i] + (b, a) + ids[i + 2 :]
        elif r == _REL_FIRST:
            yield ids[:i] + (conj[a * G + b], a) + ids[i + 2 :]
        elif r == _REL_SECOND:
            yield ids[:i] + (b, conj[b * G + a]) + ids[i + 2 :]


def _complete(pres: Presentation, length: int) -> Rules:
    """Knuth-Bendix completion of the relation moves, pruned at `length`.

    The equations are seeded with every length-2 relation move
    (_successors_all on each pair of letters) and oriented by the
    kappa-shortlex order, which gives R_2.  Critical pairs come from proper
    overlaps of two left sides, u v and v w with v non-empty, whose overlap
    word u v w has at most `length` letters.
    Every new rule is oriented by the kappa-shortlex order, and the rules it
    makes reducible are retired and re-added as equations.  All words stay
    within `length` letters, so this terminates.  The result is reduced: no
    left side contains another, and every right side is irreducible.
    """
    kappa = pres.kappa
    rules: Rules = {}
    containing: dict[tuple[int, ...], set[tuple[int, ...]]] = {}

    def order_key(u: tuple[int, ...]):
        return (len(u), [kappa[x] for x in u])

    def subwords(lhs: tuple[int, ...]):
        return {lhs[i:j] for i in range(len(lhs)) for j in range(i + 1, len(lhs) + 1)}

    def reduce(u: tuple[int, ...]) -> tuple[int, ...]:
        w, end = list(u), 1
        while end < len(w):
            for start in range(end - 1, max(end + 1 - length, 0) - 1, -1):
                rhs = rules.get(tuple(w[start : end + 1]))
                if rhs is not None:
                    w[start : end + 1] = rhs
                    end = max(start, 1)
                    break
            else:
                end += 1
        return tuple(w)

    G = pres.G
    equations = [
        ((a, b), s) for a in range(G) for b in range(G) for s in _successors_all((a, b), pres)
    ]
    unmatched: list[tuple[int, ...]] = []  # new left sides, overlaps not yet formed
    while equations or unmatched:
        while equations:
            u, v = equations.pop()
            u, v = reduce(u), reduce(v)
            if u == v:
                continue
            if order_key(u) < order_key(v):
                u, v = v, u
            for lhs in containing.get(u, set()).copy():
                equations.append((lhs, rules.pop(lhs)))
                for sub in subwords(lhs):
                    containing[sub].discard(lhs)
            rules[u] = v
            for sub in subwords(u):
                containing.setdefault(sub, set()).add(u)
            unmatched.append(u)
        if unmatched:
            l1 = unmatched.pop()
            if l1 not in rules:
                continue
            for o in range(1, len(l1)):
                # l1 = x v overlapping l2 = v y, then l2 = x v overlapping l1 = v y
                for l2 in containing.get(l1[-o:], ()):
                    if len(l2) > o and len(l1) + len(l2) - o <= length and l2[:o] == l1[-o:]:
                        equations.append((rules[l1] + l2[o:], l1[:-o] + rules[l2]))
                for l2 in containing.get(l1[:o], ()):
                    if len(l2) > o and len(l1) + len(l2) - o <= length and l2[-o:] == l1[:o]:
                        equations.append((rules[l2] + l1[o:], l2[:-o] + rules[l1]))
    return {lhs: reduce(rhs) for lhs, rhs in rules.items()}


class Engine:
    """The completed rewriting system R_L of one spec, with its flat pair table.

    `rules` maps every left side to its right side.  The flat table holds
    one move code per ordered pair (a, b) at index a*G + b:

      0  stable pair: no rule ends in it
      1  free cancellation (a, b) -> (), a == b
      2  rewrite (a, b) -> (rhs1[a*G+b], rhs2[a*G+b]): a commuting swap
         bringing the kappa-smaller letter left, or a nested flip bringing
         the longer interval left
      3  the pair ends the left side of a longer rule

    so a stable pair costs one table lookup.
    Longer left sides are found through `back`, a trie read right to left:
    its first level is keyed by the last three letters (y, a, b) as the
    integer (a*G + b)*G + y, deeper levels by one earlier letter each, and
    its leaves are right sides.  So (y, a, b) -> r is back[(a*G+b)*G+y] = r
    and (z, y, a, b) -> r is back[(a*G+b)*G+y][z] = r.
    """

    def __init__(self, spec: GroupSpec, length: int) -> None:
        if length < 2:
            raise PreconditionViolated(f"rules need length >= 2, got {length}")
        pres = presentation(spec)
        self.pres = pres
        self.G = G = pres.G
        self.length = length
        self.rules = _complete(pres, length)
        self.mtype = [0] * (G * G)
        self.rhs1 = [0] * (G * G)
        self.rhs2 = [0] * (G * G)
        self.back: dict[int, dict] = {}
        for lhs, rhs in self.rules.items():
            idx = lhs[-2] * G + lhs[-1]
            if len(lhs) > 2:
                self.mtype[idx] = 3
                node, key = self.back, idx * G + lhs[-3]
                for letter in lhs[-4::-1]:
                    node, key = node.setdefault(key, {}), letter
                node[key] = rhs
            elif rhs:
                self.mtype[idx] = 2
                self.rhs1[idx], self.rhs2[idx] = rhs
            else:
                self.mtype[idx] = 1


@lru_cache(maxsize=None)
def engine(spec: GroupSpec, length: int) -> Engine:
    """R_length for the spec, completed on first use and cached."""
    return Engine(spec, length)


def _word_engine(spec: GroupSpec, n_letters: int) -> Engine:
    """The engine a word of n_letters letters uses: L = min(n_letters, 4)."""
    return engine(spec, min(max(n_letters, 2), COMPLETION_LENGTH))


def _normalize_ids(w: list[int], eng: Engine, start_at: int = 0) -> list[int]:
    """Rewrite a mutable id list to its normal form under eng, in place.

    The scan looks at the pair ending at position i + 1 and applies the one
    rule whose left side ends there, if any (the system is reduced, so there
    is at most one).  Everything left of the rewritten stretch stays
    irreducible, so the scan resumes at the pair ending where the stretch
    began; this makes the loop near-linear in the number of rules actually
    applied.  `start_at` lets callers that append to an already-normal prefix
    skip the known-stable left part.
    """
    G, mtype, rhs1, rhs2, back = eng.G, eng.mtype, eng.rhs1, eng.rhs2, eng.back
    n = len(w)
    fuel = 10_000 + 100 * n * n
    i = start_at if start_at > 0 else 0
    while i + 1 < n:
        idx = w[i] * G + w[i + 1]
        t = mtype[idx]
        if not t:
            i += 1
            continue
        if t == 2:
            w[i] = rhs1[idx]
            w[i + 1] = rhs2[idx]
            start = i
        elif t == 1:
            del w[i : i + 2]
            n -= 2
            start = i
        else:
            if i == 0 or idx * G + w[i - 1] not in back:
                i += 1
                continue
            node, start = back[idx * G + w[i - 1]], i - 1
            while type(node) is dict:
                if start == 0:
                    node = None
                    break
                start -= 1
                node = node.get(w[start])
            if node is None:
                i += 1
                continue
            w[start : i + 2] = node
            n = len(w)
        i = start - 1 if start > 0 else 0
        fuel -= 1
        if fuel <= 0:
            raise BudgetExceeded("rewriting move budget exhausted; see oracle tests")
    return w


def normalize(word: Word) -> NormalForm:
    """The normal form of the word under R_L, L = min(len(word), 4).

    Deterministic, length-non-increasing and sound: the output represents
    the same group element as the input.  It is the unique normal form on
    the certified scope (words of length <= 4 at every degree, every word of
    AJ_3; see the module docstring); beyond it distinct fixpoints of one
    element can exist, and normalization_sinks() will report them.
    """
    eng = _word_engine(word.spec, len(word))
    ids = _normalize_ids(eng.pres.ids(word.letters), eng)
    return NormalForm(eng.pres.spec, eng.pres.letters(ids))


def is_normal(word: Word) -> bool:
    """True iff no rule of R_L, L = min(len(word), 4), applies anywhere in it.

    Every rule strictly decreases the word, so this is the same as the word
    being its own normal form.
    """
    eng = _word_engine(word.spec, len(word))
    ids = eng.pres.ids(word.letters)
    return _normalize_ids(list(ids), eng) == ids


def equal(w1: Word, w2: Word) -> bool:
    """Word problem by normal-form comparison.

    Each word is normalized with its own L = min(len, 4); the completions
    nest, so both normal forms are R_4 normal forms.  True implies the words
    represent the same group element.  False is definitive when both words
    are in the certified scope (length <= 4 at every degree, or AJ_3);
    outside it, equal elements can have distinct fixpoints (module
    docstring), so False there means "not provably equal by this system".
    """
    if w1.spec is not w2.spec and w1.spec != w2.spec:
        raise SpecMismatch("cannot compare words from different groups")
    return normalize(w1).letters == normalize(w2).letters


def oracle_closure(word: Word, budget: int = 10**6) -> frozenset[Word]:
    """Every word reachable by relation moves without growing the length.

    Relation moves preserve length and free cancellation shrinks it, so this
    set is finite: it is the equivalence class of `word` cut off at length
    len(word).  Exceeding `budget` distinct words raises BudgetExceeded
    rather than returning a truncated set.
    """
    pres = presentation(word.spec)
    root = tuple(pres.ids(word.letters))
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
    return frozenset(Word(pres.spec, pres.letters(ids)) for ids in seen)


_SINKS_CACHE: dict[
    tuple[GroupSpec, int], dict[tuple[int, ...], frozenset[tuple[int, ...]]]
] = {}
# Entries one (spec, L) memo may keep between calls; a memo that passes it is
# cleared.  The exhaustive AJ_3 (length <= 5) and AJ_4 (length <= 4) sweeps fill
# at most 20,881 entries, so they never clear it.
_SINKS_MEMO_MAX = 1 << 15


def _sinks_ids(
    ids: tuple[int, ...],
    eng: Engine,
    memo: dict[tuple[int, ...], frozenset[tuple[int, ...]]],
    on_stack: set[tuple[int, ...]],
) -> frozenset[tuple[int, ...]]:
    got = memo.get(ids)
    if got is not None:
        return got
    if ids in on_stack:
        raise BudgetExceeded(f"rewriting cycles through {ids!r}")
    on_stack.add(ids)
    rules, L = eng.rules, eng.length
    succ: list[tuple[int, ...]] = []
    for i in range(len(ids) - 1):
        for j in range(i + 2, min(i + L, len(ids)) + 1):
            rhs = rules.get(ids[i:j])
            if rhs is not None:
                succ.append(ids[:i] + rhs + ids[j:])
    if not succ:
        result = frozenset((ids,))
    else:
        acc: set[tuple[int, ...]] = set()
        for s in succ:
            acc |= _sinks_ids(s, eng, memo, on_stack)
        result = frozenset(acc)
    on_stack.discard(ids)
    memo[ids] = result
    return result


def normalization_sinks(word: Word) -> frozenset[Word]:
    """Fixpoints reachable by *every* maximal rewriting strategy.

    Tries every rule of R_L, L = min(len(word), 4), at every position, as
    normalize() does with one fixed strategy.  Confluence on this word is
    exactly the statement that the returned set is a singleton equal to
    {normalize(word)}; that holds on the certified scope (module docstring).
    The memo is kept per (spec, L), the rule set it was filled under, and
    cleared once it holds more than _SINKS_MEMO_MAX entries.
    Raises BudgetExceeded if some strategy can loop forever (impossible, as
    every rule decreases the word in a well-order).
    """
    eng = _word_engine(word.spec, len(word))
    memo = _SINKS_CACHE.setdefault((word.spec, eng.length), {})
    sinks = _sinks_ids(tuple(eng.pres.ids(word.letters)), eng, memo, set())
    if len(memo) > _SINKS_MEMO_MAX:
        memo.clear()
    return frozenset(Word(eng.pres.spec, eng.pres.letters(ids)) for ids in sinks)


def random_word(spec: GroupSpec, length: int, seed: int) -> Word:
    """A reproducible uniform random word: same (spec, length, seed), same word."""
    rng = random.Random(seed)
    pres = presentation(spec)
    return Word(pres.spec, tuple(pres.gens[rng.randrange(pres.G)] for _ in range(length)))
