"""The library keeps no helper that only tests call: every module-level
private name in `src/crosscal` is used by the library itself, every public
function or class by the library or by the benchmark in `bench/`, and every
method, property or class-body field by one of them."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "crosscal"
BENCH = SRC.parent.parent / "bench"


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


def _library():
    """(module, name, statement, index of the statement) for each module-level
    name that `src/crosscal` defines, and per module-level statement the
    names it reads."""
    defined, uses = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            defined += [(path.name, name, stmt, len(uses)) for name in _defined_names(stmt)]
            uses.append(_used_names(stmt))
    return defined, uses


def _unused(defined, uses, also=frozenset()) -> list:
    """Those of `defined` that no other statement of the library reads, nor `also` holds."""
    return [
        f"{module}: {name}"
        for module, name, _, own in defined
        if name not in also and not any(name in used for k, used in enumerate(uses) if k != own)
    ]


def test_every_private_module_name_is_used_in_the_library():
    defined, uses = _library()
    private = [d for d in defined if d[1].startswith("_") and not d[1].startswith("__")]
    assert private
    unused = _unused(private, uses)
    assert not unused, f"private names that nothing in src/crosscal uses: {unused}"


def _bench_names() -> set:
    """Names that `bench/*.py` reads as attributes or writes inside strings:
    its tracer wraps a layer by its module's and its own name in strings."""
    names = set()
    for path in BENCH.glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                names.update(re.findall(r"\w+", n.value))
    return names


def test_every_public_function_and_class_is_used_by_the_library_or_the_bench():
    defined, uses = _library()
    public = [
        d
        for d in defined
        if not d[1].startswith("_")
        and isinstance(d[2], (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert public
    unused = _unused(public, uses, _bench_names())
    assert not unused, f"public functions and classes that only tests use: {unused}"


def _members() -> list:
    """(module, class, name) of each method, property and class-body field
    that the classes of `src/crosscal` define, dunder methods apart."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [stmt.name]
                else:
                    names = _defined_names(stmt) if isinstance(stmt, (ast.Assign, ast.AnnAssign)) else []
                out += [(path.name, cls.name, n) for n in names if not n.startswith("__")]
    return out


def test_every_method_property_and_field_is_read_by_the_library_or_the_bench():
    members = _members()
    assert members
    read = _bench_names() | {
        n.attr
        for path in SRC.glob("*.py")
        for n in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(n, ast.Attribute)
    }
    unread = [f"{module}: {cls}.{name}" for module, cls, name in members if name not in read]
    assert not unread, f"members that only tests read: {unread}"
