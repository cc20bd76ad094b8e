"""Import layering: no module of the package imports a private name of
another one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ddlab"


def private_imports(path: Path) -> list[str]:
    """`from .mod import _name` and `from ddlab.mod import _name` in the
    file at `path`, for each `_name` that is not a submodule."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            package = path.parents[node.level - 1]
        elif (node.module or "").split(".")[0] == "ddlab":
            package = SRC.parent
        else:
            continue
        package = package.joinpath(*(node.module or "").split("."))
        for alias in node.names:
            name = alias.name
            if (name.startswith("_") and not name.startswith("__")
                    and not (package / f"{name}.py").exists()
                    and not (package / name / "__init__.py").exists()):
                found.append(f"{path}:{node.lineno}: {name} from "
                             f"{'.' * node.level}{node.module or ''}")
    return found


def test_no_module_imports_a_private_name_of_another():
    assert [line for path in sorted(SRC.rglob("*.py"))
            for line in private_imports(path)] == []


def test_private_imports_finds_names_but_not_submodules(tmp_path):
    pkg = tmp_path / "ddlab"
    (pkg / "_sub").mkdir(parents=True)
    (pkg / "_sub" / "__init__.py").write_text("")
    (pkg / "_leaf.py").write_text("")
    probe = pkg / "probe.py"
    probe.write_text("from . import _sub, _leaf\n"
                     "from ._sub import _leaf as x, public\n"
                     "from .mod import _hidden\n"
                     "from ddlab.mod import _other, __all__\n"
                     "from os import _exit\n")
    found = private_imports(probe)
    assert [line.split(": ", 1)[1] for line in found] == [
        "_leaf from ._sub", "_hidden from .mod", "_other from ddlab.mod"]
