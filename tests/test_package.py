"""Package-wide rules checked on the source: the package imports only the
standard library and itself (relatively), so it runs on a bare Python and
numpy stays optional; and a field symbol has one representation, an int
in range(p), so no element class comes back beside it."""

import ast
import sys
from pathlib import Path

from xstpir.field import PrimeField

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "xstpir"


def _absolute_imports(path: Path):
    """(line, top-level module) of each absolute import in `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name.partition(".")[0]


def test_the_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    outside = [
        f"{path.name}:{line} imports {module}"
        for path in sources
        for line, module in _absolute_imports(path)
        if module not in sys.stdlib_module_names
    ]
    assert outside == []


def test_the_guard_sees_imports_at_any_depth(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import os\nfrom . import sim\nimport numpy as np\n"
        "def f():\n    from pandas import DataFrame\n    import xstpir.sim\n"
    )
    outside = [m for _, m in _absolute_imports(source) if m not in sys.stdlib_module_names]
    assert sorted(outside) == ["numpy", "pandas", "xstpir"]


# Names of a second field representation: the element objects, which live
# in tests/oracle.py, and a GF(2) bit-matrix engine, which no module needs
# because a GF(2) symbol is an int mod 2 like any other field's.
ORACLE_ONLY = {"Fe", "nest", "mat_vec", "BinMatrix", "bin_det", "bin_inv", "bit_dot"}


def _oracle_names(path: Path):
    """(line, name) of each definition, import or use of an ORACLE_ONLY
    name in `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {
                name.rpartition(".")[2]
                for alias in node.names
                for name in (alias.name, alias.asname or alias.name)
            }
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        for name in names:
            if name in ORACLE_ONLY:
                yield node.lineno, name


def test_no_module_defines_or_imports_a_second_field_representation():
    sources = sorted(PACKAGE.glob("*.py"))
    found = [f"{path.name}:{line} {name}" for path in sources for line, name in _oracle_names(path)]
    assert found == []


def test_the_representation_guard_sees_definitions_imports_and_uses(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from .field import Fe as F\nfrom . import field\n"
        "def nest(v):\n    return field.mat_vec(v)\n"
        "class Fe:\n    pass\nimport x.mat_vec\n"
    )
    assert sorted(_oracle_names(source)) == [
        (1, "Fe"), (3, "nest"), (4, "mat_vec"), (5, "Fe"), (7, "mat_vec"),
    ]


def test_a_field_symbol_is_an_int():
    symbol = PrimeField(11)(14)
    assert type(symbol) is int
    assert symbol == 3
