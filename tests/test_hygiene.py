"""Source hygiene checks that need no linter.

Every imported name is used, and every function, method and class defined
in ``src/``, and every name a ``src/`` module assigns at its top level, is
read somewhere in ``src/``, ``tests/`` or ``bench/``; and some call there
sets every defaulted parameter of a function or method in ``src/``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").rglob("*.py"))
READERS = MODULES + sorted((ROOT / "bench").rglob("*.py"))


def _imported(tree):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Every name the module reads, including names inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def test_modules_found():
    assert any(p.name == "eyesim.py" for p in MODULES)
    assert any(p.name == "test_hygiene.py" for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    if path.name == "__init__.py":
        return  # a package's imports are its public re-exports
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"unused imports in {path.relative_to(ROOT)}: {', '.join(unused)}"


def _reads(tree):
    """Names a module reads: bare names, attributes and identifier strings.

    Import statements and assignments bind names without reading them, so a
    package's re-export alone does not count as a use, nor does a constant's
    own definition.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def _defined(tree):
    """(name, line) of every function, method and class, and every top-level assigned name."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def test_no_dead_definitions():
    read = set()
    for path in READERS:
        read |= _reads(ast.parse(path.read_text(), filename=str(path)))
    dead = []
    for path in SOURCES:
        for name, line in _defined(ast.parse(path.read_text(), filename=str(path))):
            if not (name.startswith("__") and name.endswith("__")) and name not in read:
                dead.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not dead, "defined in src/ but never read: " + ", ".join(dead)


def _defaulted_parameters(tree):
    """(callee name, parameter, its index among the positional arguments of a call
    or None for a keyword-only one, line) of every defaulted parameter.

    A method's first parameter is bound by the attribute lookup, so the
    indices count from the one after it; ``__init__`` is called by its class's name.
    """
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                bound = owner is not None and not static
                name = owner if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                for i in range(first, len(positional)):
                    yield name, positional[i].arg, i - bound, child.lineno
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield name, arg.arg, None, child.lineno
                yield from visit(child, None)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            else:
                yield from visit(child, owner)
    yield from visit(tree, None)


def _calls(tree):
    """(callee name, positional count, keyword names, whether it unpacks *args or **kwargs)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            yield name, len(node.args), {k.arg for k in node.keywords}, unpacks


def test_no_default_that_no_call_sets():
    # A keyword counts whatever the callee: a call may reach a function
    # through another name (a method picked into a variable, a wrapper).
    keywords, positional, unpacked = set(), {}, set()
    for path in READERS:
        for name, n_args, names, unpacks in _calls(ast.parse(path.read_text(), filename=str(path))):
            keywords |= names
            positional[name] = max(positional.get(name, 0), n_args)
            if unpacks:
                unpacked.add(name)
    unset = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, param, index, line in _defaulted_parameters(tree):
            set_by_position = index is not None and positional.get(name, 0) > index
            if not (param in keywords or set_by_position or name in unpacked):
                unset.append(f"{path.relative_to(ROOT)}:{line} {name}({param}=...)")
    assert not unset, "defaulted parameters that no call sets: " + ", ".join(unset)
