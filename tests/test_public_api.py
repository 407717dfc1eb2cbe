"""Every public name of the package has a reader outside the tests.

A public module-level function or class that only tests call is test code,
and belongs in `tests/` (as the closed-form solutions in `tests/oracles.py`
do).  A name counts as read when the code of a `src/rollwave` module (not
its docstrings), a `bench/*.py` file or README's library example names it.
The bench tracer names the functions it wraps as strings, so string
constants count there.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rollwave"

# public names that only tests call, each kept for an acceptance criterion
ALLOWED = {
    "polish_root": "criteria 4 and 5 polish Bloch eigenvalues to roots of D",
    "limit_matrices_alpha_m2": "criterion 7 scans the F = infinity limit "
                               "family's spectrum",
    "ham_limit_operator": "criterion 7 scans the Hamiltonian orbits' "
                          "spectrum",
    "boundary_bisect": "criterion 8 bisects the lower stability boundary "
                       "at three F",
}


def _names(tree: ast.AST, strings: bool = False) -> set[str]:
    """Identifiers that `tree`'s code reads, and its string constants if
    `strings` is set."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out.add(node.value)
    return out


def _public_definitions() -> list[tuple[str, str]]:
    """(module, name) of each public module-level function and class."""
    defs = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.append((path.stem, node.name))
    return defs


def _read_outside_tests() -> set[str]:
    """Every name the package, the benchmark or README's example reads."""
    read = set()
    for path in SRC.glob("*.py"):
        read |= _names(ast.parse(path.read_text(encoding="utf-8")))
    for path in (ROOT / "bench").glob("*.py"):
        read |= _names(ast.parse(path.read_text(encoding="utf-8")),
                       strings=True)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    return read | _names(ast.parse(block))


def test_every_public_name_has_a_reader_outside_the_tests():
    defs, read = _public_definitions(), _read_outside_tests()
    unread = [f"{module}.{name}" for module, name in defs
              if name not in read and name not in ALLOWED]
    assert unread == [], f"public names only tests read: {unread}"
    # an allowance goes once its name does, or once code outside the
    # tests reads it
    allowed = set(ALLOWED)
    stale = sorted((allowed - {name for _, name in defs}) | (allowed & read))
    assert stale == [], f"allowed names no longer only tests read: {stale}"


# private names one module reads from another, each with its reason
PRIVATE_READS = {
    ("kdv_limit", "_newton_solve"): "the one Newton solver solves the "
                                    "KdV-KS wave too",
    ("sweep", "_limit_table"): "it holds the limit waves that one map "
                               "shares",
}


def _private_reads(path: Path) -> set[tuple[str, str]]:
    """(module, name) of each private name the module imports from a
    sibling (`from .x import _name`) or reads off one (`x._name`)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    names.add(alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            names.add(node.attr)
    return {(path.stem, name) for name in names}


def test_no_module_reads_another_modules_private_names():
    reads = set().union(*(_private_reads(p) for p in SRC.glob("*.py")))
    unexpected = sorted(reads - set(PRIVATE_READS))
    assert unexpected == [], f"private names read across modules: " \
                             f"{unexpected}"
    stale = sorted(set(PRIVATE_READS) - reads)
    assert stale == [], f"allowed private reads no longer made: {stale}"
