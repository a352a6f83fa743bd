"""Every module of the package uses each name it imports, holds no `:=`
inside a comprehension, the Cayley ball's per-vertex kernels hold no
cells, and a presentation holds one table of G^2 entries.

The package's `__init__` is skipped by the import check: its imports are
the public API.  Only the standard library is needed, so these guards run
wherever the tests do.
"""

import ast
from collections.abc import Sized
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cactuskit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that nothing reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_an_unused_import():
    source = "from .rewriting import Word, _up, parse_word\n\nparse_word(Word)\n"
    assert unused_imports(source) == ["_up (line 1)"]
    assert MODULES  # the glob found the package


def walrus_in_comprehensions(source: str) -> list[int]:
    """The lines of each := inside a comprehension or generator expression.

    Such a target belongs to the enclosing function, so on interpreters
    that run a comprehension as a nested function it turns the function's
    locals that the comprehension reads into cells.
    """
    comps = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return sorted({
        node.lineno
        for comp in ast.walk(ast.parse(source)) if isinstance(comp, comps)
        for node in ast.walk(comp) if isinstance(node, ast.NamedExpr)
    })


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_walrus_in_a_comprehension(path):
    assert walrus_in_comprehensions(path.read_text()) == []


def test_ball_and_disk_kernels_hold_no_cells():
    """No nested scope of the per-vertex kernels closes over their locals,
    so each local is read as a fast local, not through a cell."""
    from cactuskit import cayley, hyperbolic

    for f in (cayley.ball, hyperbolic.embed_ball, hyperbolic.render_svg):
        assert f.__code__.co_cellvars == (), f.__qualname__


def entries(value) -> int:
    """How many entries an attribute holds: the total length of its rows when
    it is a list, tuple or dict of lists, else its own length."""
    rows = list(value.values()) if isinstance(value, dict) else value
    if isinstance(rows, (list, tuple)) and rows and all(type(row) is list for row in rows):
        return sum(map(len, rows))
    return len(value) if isinstance(value, Sized) else 0


def tables_of_g_squared(pres) -> list[str]:
    """The presentation's attributes that hold G^2 entries, flat or as rows."""
    return [name for name, value in vars(pres).items() if entries(value) == pres.G ** 2]


@pytest.mark.parametrize("family, n", [("affine", 4), ("cactus", 5)])
def test_a_presentation_holds_one_table_of_g_squared_entries(family, n):
    """par, G rows of G, is the only attribute of G^2 entries: a second
    per-pair table would double the presentation's memory at large degree.
    A copy of par, as rows or flat, is seen."""
    from cactuskit.core import Family, GroupSpec, Presentation

    pres = Presentation(GroupSpec(Family(family), n))
    assert len(pres.par) == pres.G and {len(row) for row in pres.par} == {pres.G}
    assert tables_of_g_squared(pres) == ["par"]
    for spare in ([row[:] for row in pres.par], [h for row in pres.par for h in row]):
        pres.spare = spare
        assert tables_of_g_squared(pres) == ["par", "spare"]


def test_the_guards_see_a_closure():
    source = (
        "def f(xs, lo):\n"
        "    ys = [y for x in xs if (y := x - lo) > 0]\n"
        "    return ys, sum(x for x in xs if x > lo)\n"
    )
    assert walrus_in_comprehensions(source) == [2]
    names: dict = {}
    exec(compile(source, "<toy>", "exec"), names)
    assert "lo" in names["f"].__code__.co_cellvars  # the generator expression's
