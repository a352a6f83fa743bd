"""Every module of the package uses each name it imports, holds no `:=`
inside a comprehension, the Cayley ball's per-vertex kernels hold no
cells, a presentation holds one table of G^2 entries, and the word problem
imports only the modules it runs.

The package's `__init__` is skipped by the import check: its imports are
the public API.  Only the standard library is needed, so these guards run
wherever the tests do.
"""

import ast
import json
import os
import subprocess
import sys
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
    """A new presentation holds no attribute of G^2 entries: par's rows are
    made on first read.  Once every row is read, par is G rows of G and the
    only such table: a second per-pair table would double the presentation's
    memory at large degree.  A copy of par, as rows or flat, is seen."""
    from cactuskit.core import Family, GroupSpec, Presentation

    pres = Presentation(GroupSpec(Family(family), n))
    assert len(pres.par) == pres.G and tables_of_g_squared(pres) == []
    for row in pres.par:
        row[0]
    assert all(type(row) is list and len(row) == pres.G for row in pres.par)
    assert tables_of_g_squared(pres) == ["par"]
    for spare in ([row[:] for row in pres.par], [h for row in pres.par for h in row]):
        pres.spare = spare
        assert tables_of_g_squared(pres) == ["par", "spare"]


def test_the_word_problem_imports_only_core_and_rewriting():
    """In a fresh interpreter, the package and the word problem's names load
    core and rewriting only.  Each other public name is imported on its first
    access: a submodule after a plain import, every name by a star import,
    each the same object as in its module, and dir() lists them all before
    and after."""
    code = """if True:
        import json, sys
        import cactuskit
        from cactuskit import affine, cactus, equal, normalize, parse_word
        loaded = sorted(m for m in sys.modules if m.startswith("cactuskit"))
        before = dir(cactuskit)
        verify_resolves = cactuskit.verify is sys.modules["cactuskit.verify"]
        star = {}
        exec("from cactuskit import *", star)
        def home(value):  # the module a public name is defined in, or itself
            return sys.modules[getattr(value, "__module__", None) or value.__name__]
        print(json.dumps({
            "loaded": loaded,
            "verify_resolves": verify_resolves,
            "unbound": sorted(set(cactuskit.__all__) - set(star)),
            "elsewhere": [n for n in cactuskit.__all__
                          if home(star[n]) is not star[n] and getattr(home(star[n]), n) is not star[n]],
            "dir_kept": before == dir(cactuskit),
            "dir_public": [n for n in before if not n.startswith("_")] == cactuskit.__all__,
        }))
    """
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert json.loads(out.stdout) == {
        "loaded": ["cactuskit", "cactuskit.core", "cactuskit.rewriting"],
        "verify_resolves": True,
        "unbound": [],
        "elsewhere": [],
        "dir_kept": True,
        "dir_public": True,
    }


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
