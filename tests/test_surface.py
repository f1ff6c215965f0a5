"""The library surface is what the commands and the paper checks use: every
public name that ``src/braidseq`` defines is referenced by name from the
package itself or from the acceptance suite, or is allowed below with its
reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "braidseq"
READERS = sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

#: public names kept whether or not the walk finds a reference: name -> reason
ALLOWED = {
    "ef_gamma": "acceptance criterion 12 cross-checks the gamma word",
    "penner_bound": "acceptance criterion 11 checks the Penner floor",
    "braid_penner_floor": "acceptance criterion 11 checks the Penner floor",
    "decompose_factors": "the twist-step tests compare against the factorization",
    "factors_to_braid_word": "the twist-step tests compare against the factorization",
    "remove_strand": "the test of the xi construction removes the tracked strand",
    "free_reduced": "the braids_equal property tests build equal pairs with it",
    "nested_seed": "ROADMAP item 2 seeds the estimator with it",
    "act": "perfbench/spans.py wraps it",
}


def _is_command(fn: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_command"
               for d in fn.decorator_list)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions() -> dict[str, tuple[str, bool]]:
    """Public functions, classes, methods, properties and UPPER_CASE
    constants of the package: name -> (where it is defined, whether it is
    a method or property, which is reached only as an attribute)."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.FunctionDef) and not _is_command(node):
                found.setdefault(node.name, (where, False))
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                found.setdefault(node.name, (where, False))
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        found.setdefault(item.name, (f"{where}.{item.name}", True))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.isupper():
                        found.setdefault(target.id, (f"{path.stem}.{target.id}", False))
    return {name: found[name] for name in found if _public(name)}


def _references() -> tuple[set[str], set[str]]:
    """Every name the readers mention, and the names they use as attributes;
    a local variable called ``rows`` does not use a method ``rows``."""
    names, attributes = set(), set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names | attributes, attributes


def test_every_public_name_is_used_or_allowed():
    names, attributes = _references()
    unused = sorted(where for name, (where, member) in _definitions().items()
                    if name not in ALLOWED
                    and name not in (attributes if member else names))
    assert not unused, f"used neither in src/ nor in the acceptance suite: {unused}"


def test_allowed_names_are_defined():
    assert sorted(set(ALLOWED) - set(_definitions())) == []
