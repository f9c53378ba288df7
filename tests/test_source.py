import ast
import dataclasses
import importlib
import inspect
import math
from collections import Counter
from pathlib import Path

import semistab

SRC = Path(semistab.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements; checks must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src: {found}"


def _names(tree, attributes_only=False):
    """Every identifier the tree names as an attribute and, unless
    `attributes_only`, as a bare name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name) and not attributes_only:
            yield node.id


def _trees():
    """The parsed modules of src/, tests/ and bench/, by path."""
    root = SRC.parent.parent
    return {path: ast.parse(path.read_text(), filename=str(path))
            for d in ("src", "tests", "bench") for path in sorted((root / d).rglob("*.py"))}


def test_every_definition_in_the_package_is_used():
    # a def counts as used when some name or attribute in src/, tests/ or
    # bench/ refers to it outside its own body, and a method only when an
    # attribute does, so that a parameter or local of the same name does not
    # hide it; the CLI's _cmd_* handlers are dispatched by name through globals()
    trees = _trees()
    uses = {attrs: Counter(name for tree in trees.values() for name in _names(tree, attrs))
            for attrs in (False, True)}
    dead = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        methods = {item for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name.startswith("_cmd_"):
                continue
            attrs = node in methods
            if uses[attrs][name] == Counter(_names(node, attrs))[name]:
                dead.append(f"{path.name}:{node.lineno} {name}")
    assert not dead, f"definitions with no caller: {dead}"


def test_every_import_in_the_package_is_used():
    # a name that a module imports (apart from __future__ features) appears
    # as a name in that module, so removed code leaves no import behind
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in imported
                       if name not in named]
    assert not unused, f"imports that their module never names: {unused}"


def test_scipy_is_imported_inside_functions_only():
    # importing scipy costs a CLI run up to 0.2 s (scipy.special), so only
    # the functions that need it import it, never a module at its top level
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lazy = {id(node) for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if id(node) not in lazy and any(n.partition(".")[0] == "scipy" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"scipy imports outside a function: {found}"


def test_every_module_constant_is_used():
    # a name that a package module assigns at its top level (dunders aside)
    # is read, as a name or an attribute, somewhere in src/, tests/ or
    # bench/, so removed code leaves no constant behind
    trees = _trees()
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                unread += [f"{path.name}:{stmt.lineno} {node.id}" for node in ast.walk(target)
                           if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                           and not (node.id.startswith("__") and node.id.endswith("__"))
                           and node.id not in read]
    assert not unread, f"module constants that nothing reads: {unread}"


def _set_by(call):
    """(positional count, keyword names) that a call passes; a `*args` sets
    every position, and a `**kwargs` adds the name None, which sets every
    keyword."""
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return (math.inf if starred else len(call.args)), {k.arg for k in call.keywords}


def _classes():
    """(file name, class) of every class that a package module defines."""
    for path in sorted(SRC.glob("[!_]*.py")):
        mod = importlib.import_module(f"semistab.{path.stem}")
        for cls in vars(mod).values():
            if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                yield path.name, cls


def _defaulted_fields():
    """(where, class name, positional index, field) of every field with a
    default that a class's constructor takes: a dataclass field (init=False
    excluded) or a NamedTuple field."""
    out = []
    for where, cls in _classes():
        if dataclasses.is_dataclass(cls):
            fields = [f for f in dataclasses.fields(cls) if f.init]
            positions = [f.name for f in fields]
            defaulted = [f.name for f in fields if f.default is not dataclasses.MISSING
                         or f.default_factory is not dataclasses.MISSING]
        elif issubclass(cls, tuple) and hasattr(cls, "_field_defaults"):
            positions, defaulted = cls._fields, cls._field_defaults
        else:
            continue
        out += [(f"{where} {cls.__name__}", cls.__name__, positions.index(name), name)
                for name in defaulted]
    return out


def test_every_dataclass_checks_its_fields():
    # a dataclass is a value with a checked invariant, so it has a
    # __post_init__ (its own or inherited); a plain record is a NamedTuple.
    # The models stay dataclasses: the CLI reads their parameters through
    # dataclasses.fields
    from semistab.kernels import MODELS

    unchecked = [f"{where} {cls.__name__}" for where, cls in _classes()
                 if dataclasses.is_dataclass(cls) and not hasattr(cls, "__post_init__")
                 and cls not in MODELS.values()]
    assert not unchecked, f"dataclasses with no __post_init__: {unchecked}"


def test_every_defaulted_parameter_is_set_by_some_call():
    # a default that no call in src/, tests/ or bench/ overrides, positionally
    # or by keyword, is a constant in disguise; calls match a def by its bare
    # or attribute name, and a method's positions start after `self`; a
    # dataclass or NamedTuple field with a default counts as a parameter of
    # its class
    trees = _trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                calls.setdefault(name, []).append(_set_by(node))
    # bench/tracing.py binds these to count flow steps, so they stay arguments
    exempt = {"scalar_riccati.dt", "coupled_oscillator_semigroup.dt"}
    defaulted = _defaulted_fields()
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        methods = {item for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            skip = node in methods and not any(
                getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            first = len(positional) - len(args.defaults)
            where = f"{path.name}:{node.lineno} {node.name}"
            defaulted += [(where, node.name, i - skip, positional[i].arg)
                          for i in range(first, len(positional))]
            defaulted += [(where, node.name, math.inf, a.arg)
                          for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    unset = [f"{where}.{arg}" for where, name, index, arg in defaulted
             if f"{name}.{arg}" not in exempt
             and not any(n > index or arg in kw or None in kw for n, kw in calls.get(name, []))]
    assert not unset, f"defaulted parameters that no call sets: {unset}"
