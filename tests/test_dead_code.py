"""Dead-code guard: every function, class and method in src/ is referenced
from src/ itself, unless it belongs to the public typed API that the README
names (called by the acceptance gate, the tests, the benchmark or tools/).

A reference is any use of the bare name, as a variable or as an attribute,
outside the definition's own body, so the guard can miss dead code whose
name is also used for something else; it never flags code that is used.

Parameter guard: every defaulted parameter and dataclass field in src/ is
set by some call in src/, perfbench/ or tools/; one that no call sets is a
constant, and one that only tests set is an option kept for tests.  Nor may
every such call, and every call in the acceptance gate, set it to one
literal: its default is then never used, and the literal is a constant too.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wheeled_bicopter"

PUBLIC_API = {
    "analysis.max_yaw_torque",
    "cli.deterministic_digest",
    "core.Orientation.to_euler",
    "dynamics.actuator_wrench",
    "dynamics.derivative",
    "flatness.lateral_thrust_approx",
    "flatness.ReferencePoint.u_r",
    "flatness.ReferencePoint.x_array",
    "flatness.ReferencePoint.x_r",
    "flatness.wheel_normals",
    "nmpc.discretize",
    "nmpc.RunLog.input_series",
    "trajectory.Circle",
}


def _references(node) -> Counter:
    """Names and attribute names used anywhere inside `node`."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions(scope, prefix: str):
    """(qualified name, node) of the functions and classes of a module or
    class body, with the methods of its classes."""
    for node in scope.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{prefix}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node, f"{prefix}.{node.name}")


def unreferenced():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] - _references(node)[name] <= 0:
                yield qualname


def test_every_src_definition_is_referenced_or_public():
    dead = sorted(set(unreferenced()) - PUBLIC_API)
    assert not dead, f"nothing in src/ references {dead}"


def test_public_api_allowlist_lists_only_unreferenced_definitions():
    # an entry that src/ now uses itself, or that is gone, leaves the list
    assert PUBLIC_API <= set(unreferenced())


# ---------------------------------------------------------------------------
# parameters that no caller sets
# ---------------------------------------------------------------------------

ROOT = SRC.parents[1]
CALLERS = ("src", "perfbench", "tools")
# the acceptance gate calls the public typed API; a default it keeps is used
ACCEPTANCE_GATE = ROOT / "tests" / "test_acceptance.py"


def _name(node) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _dataclass_fields(cls: ast.ClassDef):
    """(name, position) of the defaulted __init__ fields of a dataclass."""
    position = 0
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        value = node.value
        kw = {}
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            kw = {k.arg: k.value for k in value.keywords}
            if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
                continue
        if value is not None and (not kw or "default" in kw or "default_factory" in kw):
            yield node.target.id, position
        position += 1


def _function_parameters(fn: ast.FunctionDef, method: bool):
    """(name, position or None) of the defaulted parameters of a def; the
    position counts positional call arguments, so a method skips self."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    skip = method and not any(_name(d) == "staticmethod" for d in fn.decorator_list)
    for i, arg in enumerate(positional[first:], first - skip):
        yield arg.arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _scope_parameters(scope, prefix: str, cls: str = ""):
    """(qualified name, callee name, parameter, position or None, is a field)
    of the defaulted parameters and dataclass fields of a module or class."""
    for node in scope.body:
        if isinstance(node, ast.ClassDef):
            if any(_name(getattr(d, "func", d)) == "dataclass" for d in node.decorator_list):
                for name, pos in _dataclass_fields(node):
                    yield f"{prefix}.{node.name}.{name}", node.name, name, pos, True
            yield from _scope_parameters(node, f"{prefix}.{node.name}", node.name)
        elif isinstance(node, ast.FunctionDef):
            callee = cls if node.name == "__init__" else node.name
            for name, pos in _function_parameters(node, bool(cls)):
                yield f"{prefix}.{node.name}({name})", callee, name, pos, False


def _calls(node, cls: str = ""):
    """(callee name, positional arguments, keyword arguments by name,
    unpacks) of every call under `node`; `cls(...)` names the enclosing
    class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            callee = _name(child.func)
            unpacks = any(isinstance(a, ast.Starred) for a in child.args) or any(
                k.arg is None for k in child.keywords)
            yield (cls if callee == "cls" else callee, child.args,
                   {k.arg: k.value for k in child.keywords if k.arg}, unpacks)
        yield from _calls(child, child.name if isinstance(child, ast.ClassDef) else cls)


# the argument of a call that unpacks *args or **kw into the parameter
UNPACKED = "unpacked"


def _caller_files():
    return [path for top in CALLERS for path in sorted((ROOT / top).rglob("*.py"))]


def _arguments(callers):
    """(qualified name, arguments) of every defaulted parameter and field in
    src/: for each call in the caller files that may set it, the argument
    node it passes, None where it keeps the default, or UNPACKED.  A call
    matches by bare name, so a name used for two things can hide a
    parameter; a `replace(obj, ...)` call that names a field (or unpacks)
    sets it."""
    calls = [call for path in callers for call in _calls(ast.parse(path.read_text()))]
    for path in sorted(SRC.glob("*.py")):
        params = _scope_parameters(ast.parse(path.read_text()), path.stem)
        for qualname, callee, name, pos, is_field in params:
            args = []
            for c, positional, kw, unpacks in calls:
                if is_field and c == "replace":
                    if not (unpacks or name in kw):
                        continue
                elif c != callee:
                    continue
                if name in kw:
                    args.append(kw[name])
                elif unpacks:
                    args.append(UNPACKED)
                else:
                    args.append(positional[pos] if pos is not None and len(positional) > pos
                                else None)
            yield qualname, args


def unset_parameters():
    """Defaulted parameters and fields in src/ that no call in CALLERS sets
    by keyword or position."""
    for qualname, args in _arguments(_caller_files()):
        if all(arg is None for arg in args):
            yield qualname


def _literal(arg) -> bool:
    if not isinstance(arg, ast.AST):
        return False
    try:
        ast.literal_eval(arg)
    except ValueError:
        return False
    return True


def constant_parameters():
    """Defaulted parameters and fields in src/ that every call in CALLERS
    and in the acceptance gate sets, each to the same literal: the default
    is then never used, and the literal is a constant of the callee."""
    for qualname, args in _arguments(_caller_files() + [ACCEPTANCE_GATE]):
        if args and all(map(_literal, args)) and len({ast.dump(a) for a in args}) == 1:
            yield qualname


def test_every_defaulted_parameter_is_set_by_some_call():
    unset = sorted(unset_parameters())
    assert not unset, f"no call in {CALLERS} sets {unset}; make each a constant"


def test_no_defaulted_parameter_is_set_to_one_literal_by_every_call():
    constant = sorted(constant_parameters())
    assert not constant, (f"every call in {CALLERS} and the acceptance gate sets "
                          f"{constant} to one literal; make each a constant")
