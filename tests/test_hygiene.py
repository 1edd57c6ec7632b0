"""Source hygiene checks that need no linter: the standard library's ast only."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the package's __init__ imports names only to re-export them
MODULES = sorted(
    [p for p in (ROOT / "src" / "pegame").glob("*.py") if p.name != "__init__.py"]
    + [*(ROOT / "scripts").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``__future__`` imports aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom .errors import A, B\nnp.zeros(A)\n"
    assert unused_imports(source) == ["os (line 1)", "B (line 3)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_all_is_what_init_imports():
    # every name __init__ imports is exported, and nothing else: a deleted
    # export cannot linger in __all__
    tree = ast.parse((ROOT / "src" / "pegame" / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    (exported,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and ast.unparse(node.targets) == "__all__"]
    assert sorted(exported) == sorted(imported)


# the package's layers, each importing only from those before it
LAYERS = ["errors", "game_model", "riccati", "escape", "scheduler", "simulator", "cli"]


def package_imports(source: str, everywhere: bool = False) -> set[str]:
    """The layers a module's relative imports name, at module level or
    anywhere in it; ``from . import x`` names x only if x is a layer."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree) if everywhere else tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module.split(".")[0]] if node.module else
                         [alias.name for alias in node.names if alias.name in LAYERS])
    return names


def test_package_imports_are_found():
    source = ("from .riccati import _Count\nfrom . import escape, __version__\n"
              "def f():\n    from .cli import main\n")
    assert package_imports(source) == {"riccati", "escape"}
    assert package_imports(source, everywhere=True) == {"riccati", "escape", "cli"}


# the one import of a later layer: GameSpec._gap_flow builds riccati's
# propagator inside the function, as riccati imports game_model
LATER_IMPORTS = {"game_model": {"riccati"}}


@pytest.mark.parametrize("layer", LAYERS)
def test_layers_import_only_earlier_layers(layer):
    source = (ROOT / "src" / "pegame" / f"{layer}.py").read_text(encoding="utf-8")
    allowed = set(LAYERS[: LAYERS.index(layer)]) | LATER_IMPORTS.get(layer, set())
    assert package_imports(source, everywhere=True) <= allowed


def test_only_init_imports_escape():
    # the detectors cross-check the library; nothing it computes rests on them
    importers = [
        p.name for p in (ROOT / "src" / "pegame").glob("*.py")
        if p.name != "__init__.py"
        and "escape" in package_imports(p.read_text(encoding="utf-8"), everywhere=True)
    ]
    assert importers == []


def keyword_only(source: str) -> set[tuple[str, str]]:
    """(function, parameter) for each keyword-only parameter of a public
    function or method."""
    return {
        (node.name, arg.arg) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        for arg in node.args.kwonlyargs
    }


def passed_by_name(source: str) -> set[tuple[str, str]]:
    """(callee, keyword) for each keyword a call names, the callee by its
    last dotted part."""
    return {
        (getattr(node.func, "id", getattr(node.func, "attr", None)), kw.arg)
        for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
        for kw in node.keywords if kw.arg
    }


def test_unpassed_keywords_are_found():
    source = "def f(a, *, b=1, c=2):\n    pass\n\ndef _g(*, d):\n    pass\n\nf(1, c=3)\n"
    assert keyword_only(source) - passed_by_name(source) == {("f", "b")}


def test_every_keyword_only_parameter_is_passed_by_a_caller():
    # a keyword no caller outside the tests sets is a knob nobody turns
    params = set().union(*(keyword_only(p.read_text(encoding="utf-8"))
                           for p in (ROOT / "src" / "pegame").glob("*.py")))
    callers = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    passed = set().union(*(passed_by_name(p.read_text(encoding="utf-8")) for p in callers))
    assert sorted(params - passed) == []


def test_package_version_matches_pyproject():
    # two files declare the version; they must name the same one
    tomllib = pytest.importorskip("tomllib")
    import pegame

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert pegame.__version__ == project["version"]
