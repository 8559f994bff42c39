"""Package-wide rules checked on the source: the package imports only the
standard library and itself (relatively), so it runs on a bare Python and
numpy stays optional."""

import ast
import sys
from pathlib import Path

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
