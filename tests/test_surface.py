"""Nothing in src/weightsys exists only for a test.

Every top-level function and class of the package must be reachable from
the program's own module-level code (the CLI entry point among it), or from
what the benchmark child (perfbench/child.py) imports or its tracer
(perfbench/tracing.py) wraps.  Every attribute that the ``__init__`` of a
class there assigns on its instance (``self.x = ...``) must likewise be
read as an attribute by the program or the benchmark child, unless its
class is in UNREAD_FIELDS, and every method and property of a class there
by the program, the benchmark child or a tracer name.  No list exempts a
function, a class or a member: what only the tests call lives in
tests/oracles.py.  A parameter with a default must be passed, by keyword,
by position or through * or **, by some call in the program or the
benchmark child to a function the program calls.  No module holds state
of its own: none assigns an empty container at top level, and a function
memoized with functools.cache or lru_cache is named in MODULE_CACHES with
the reason.

The rules match by name alone, so two things stay out of their sight.
Shared names: a member counts as read when any attribute of its name is
read, so a method named like one the program reads (``degree``,
``is_zero``) passes, and a call to any function named f counts as a call
to each f.  Dunders: the member rule exempts them, so a ``__hash__`` or an
``__add__`` that no program code reaches passes.  The attribute rule sees
only what ``__init__`` assigns: an attribute first set in another method
passes unchecked.  The tests' own oracles live in tests/oracles.py.
"""

import ast
import math
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "weightsys"
PERFBENCH = ROOT / "perfbench"

UNREAD_FIELDS = {
    "LinearSolution": "solve_linear_system's result: only tests read it, and "
                      "the tracer's scalars.solve_linear_system span keeps it alive",
}

MODULE_CACHES = {
    "_reduce_canonical": "value-keyed and shared by every algebra; the wheel-6 "
                         "operation hits it across its three reductions",
}


def _references(node, out):
    if isinstance(node, ast.Name):
        out.add(node.id)
    elif isinstance(node, ast.Attribute):
        out.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _references(child, out)
    return out


def _benchmark_names():
    """Names perfbench imports from weightsys or wraps by name."""
    names, modules, attributes = set(), set(), set()
    for node in ast.walk(ast.parse((PERFBENCH / "child.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "weightsys":
            modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("weightsys."):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            attributes.add((node.value.id, node.attr))
    names.update(attr for module, attr in attributes if module in modules)
    names.update(attr.split(".")[0] for attr in _traced())
    return names


def _traced():
    """The attributes the tracer wraps: "function" or "Class.method"."""
    out = []
    for stmt in ast.parse((PERFBENCH / "tracing.py").read_text()).body:
        if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) in ("SPANS", "COUNTS"):
            out += [attr for _, attr, _ in ast.literal_eval(stmt.value)]
    return out


def test_every_name_is_reachable_without_the_tests():
    defined = defaultdict(list)     # name -> [(module, names its body uses)]
    live = _benchmark_names()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[stmt.name].append((path.stem, _references(stmt, set())))
            else:
                _references(stmt, live)
    frontier = list(live)
    while frontier:
        for _, uses in defined.get(frontier.pop(), ()):
            frontier.extend(uses - live)
            live |= uses
    orphans = sorted(f"{module}.{name}" for name, defs in defined.items()
                     if name not in live for module, _ in defs)
    assert not orphans, f"called only by tests, so delete them: {', '.join(orphans)}"


def _attribute_reads(path):
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _init_attributes(cls):
    """The attributes a class's ``__init__`` assigns on its first parameter."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            this = node.args.args[0].arg
            return [target.attr for stmt in ast.walk(node)
                    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                    for part in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
                    for target in ast.walk(part)
                    if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == this]
    return []


def test_every_init_attribute_is_read_without_the_tests():
    read = _attribute_reads(PERFBENCH / "child.py")
    classes, fields = set(), []
    for path in sorted(SRC.glob("*.py")):
        read |= _attribute_reads(path)
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                attributes = _init_attributes(stmt)
                if attributes:
                    classes.add(stmt.name)
                fields += [(path.stem, stmt.name, attr) for attr in attributes]
    assert set(UNREAD_FIELDS) <= classes
    unread = [".".join(f) for f in fields if f[1] not in UNREAD_FIELDS and f[2] not in read]
    assert not unread, f"read only by tests, so delete them: {', '.join(unread)}"


def test_every_method_is_read_without_the_tests():
    read = _attribute_reads(PERFBENCH / "child.py") | {attr.split(".")[-1] for attr in _traced()}
    members = []
    for path in sorted(SRC.glob("*.py")):
        read |= _attribute_reads(path)
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                members += [(path.stem, stmt.name, node.name) for node in stmt.body
                            if isinstance(node, ast.FunctionDef)
                            and not (node.name.startswith("__") and node.name.endswith("__"))]
    unread = [".".join(m) for m in members if m[2] not in read]
    assert not unread, f"read only by tests, so delete them: {', '.join(unread)}"


def _is_empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("set", "dict", "list")
            and not node.args and not node.keywords)


def _is_memo(decorator):
    """Whether a decorator is functools' cache or lru_cache, called or not."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (getattr(target, "attr", None) or getattr(target, "id", None)) in ("cache", "lru_cache")


def test_no_module_keeps_state_of_its_own():
    containers, caches = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None \
                    and _is_empty_container(stmt.value):
                containers.append(f"{path.stem}:{stmt.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    _is_memo(dec) for dec in node.decorator_list):
                caches[node.name] = path.stem
    assert not containers, f"module-level state, keep it on an object: {', '.join(containers)}"
    unlisted = sorted(f"{module}.{name}" for name, module in caches.items()
                      if name not in MODULE_CACHES)
    assert not unlisted, f"module caches without a reason in MODULE_CACHES: {', '.join(unlisted)}"
    assert set(MODULE_CACHES) <= set(caches), "MODULE_CACHES names a function with no cache"


def _signatures(tree):
    """(callee name, function, whether its first parameter is bound) of every
    top-level function and method; a constructor's callee is its class."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt, False
        elif isinstance(stmt, ast.ClassDef):
            for node in stmt.body:
                if isinstance(node, ast.FunctionDef):
                    static = any(getattr(dec, "id", None) == "staticmethod"
                                 for dec in node.decorator_list)
                    yield stmt.name if node.name == "__init__" else node.name, node, not static


def test_every_defaulted_parameter_is_passed_without_the_tests():
    calls = defaultdict(list)       # callee name -> [(positional count, keyword names)]
    for path in [*sorted(SRC.glob("*.py")), PERFBENCH / "child.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                calls[name].append((math.inf if starred else len(node.args),
                                    {kw.arg for kw in node.keywords}))  # None: **kwargs
    unpassed = []
    for path in sorted(SRC.glob("*.py")):
        for callee, fn, bound in _signatures(ast.parse(path.read_text())):
            if callee not in calls:
                continue  # no program call: alive by the tracer, or an orphan
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i - bound, arg.arg) for i, arg in enumerate(positional) if i >= first]
            defaulted += [(math.inf, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            unpassed += [f"{path.stem}.{fn.name}({name})" for index, name in defaulted
                         if not any(index < count or name in keywords or None in keywords
                                    for count, keywords in calls[callee])]
    assert not unpassed, f"no call passes them, so make them constants: {', '.join(unpassed)}"
