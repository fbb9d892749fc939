"""The library keeps no private helper that only tests call: every
module-level private name in `src/crosscal` is used by the library itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "crosscal"


def _defined_names(stmt) -> list:
    """The module-level names that the statement `stmt` defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _used_names(node) -> set:
    """Names and attribute names that `node` reads."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    }


def test_every_private_module_name_is_used_in_the_library():
    defined = []  # (module, name, index of the defining statement)
    uses = []  # per module-level statement of the library, the names it reads
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            for name in _defined_names(stmt):
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((path.name, name, len(uses)))
            uses.append(_used_names(stmt))
    assert defined
    unused = [
        f"{module}: {name}"
        for module, name, own in defined
        if not any(name in used for k, used in enumerate(uses) if k != own)
    ]
    assert not unused, f"private names that nothing in src/crosscal uses: {unused}"
