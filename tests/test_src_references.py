"""Every top-level function and class in src/optomech is used by src/
code: named by a Name, an Attribute or an import, outside its own body.
Docstrings and comments do not count.  The few that only tests and the
benchmark use are listed here, each with its reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "optomech"

UNREFERENCED = {
    "transient_first_moments": "oracle of the engineered mean source; the "
                               "benchmark tracer wraps it by name",
    "asymptotic_first_moments": "closed-form asymptote, kept for building "
                                "fig7's drift harmonics without stepping",
    "steady_state_lyapunov": "oracle of the constant-drive CM; the "
                             "benchmark tracer wraps it by name",
    "log_negativity": "one-CM oracle of log_negativity_stack; the "
                      "benchmark tracer wraps it by name",
}


def _names(node: ast.AST) -> set[str]:
    """Every name node refers to: Name ids, Attribute attrs, imported
    names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
    return out


def test_every_top_level_definition_is_referenced():
    defined, used = set(), set()
    for path in SRC.rglob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
                # a reference from its own body (recursion) does not count
                used |= _names(stmt) - {stmt.name}
            else:
                used |= _names(stmt)
    unreferenced = defined - used
    assert unreferenced == set(UNREFERENCED), (
        "unreferenced definitions in src/ differ from the allowlist: "
        f"new {sorted(unreferenced - set(UNREFERENCED))}, "
        f"now referenced {sorted(set(UNREFERENCED) - unreferenced)}")
