"""Dead-code guard: every function, class and method in src/ is referenced
from src/ itself, unless it belongs to the public typed API that the README
names (called by the acceptance gate, the tests, the benchmark or tools/).

A reference is any use of the bare name, as a variable or as an attribute,
outside the definition's own body, so the guard can miss dead code whose
name is also used for something else; it never flags code that is used.
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
    "flatness.wheel_normals",
    "nmpc.discretize",
    "nmpc.RunLog.input_series",
    "trajectory.Circle",
    "trajectory.HybridTrajectory.sample_references",
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
