"""The package's public surface, read from the source with ast (nothing is
imported): every name has one import path, its defining module, and every
public top-level function, class or alias is used somewhere outside its own
statement."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = {p: ast.parse(p.read_text(encoding="utf-8"))
           for p in sorted((ROOT / "src" / "anyonstat").glob("*.py"))
           + sorted((ROOT / "demos").glob("*.py"))}
PACKAGE = ROOT / "src" / "anyonstat" / "__init__.py"

# Public names that nothing in the package or the demos uses, each with why it stays.
UNUSED_BY_DESIGN = {
    ("holo", "Walker"): "the benchmark tracer wraps it until ROADMAP items 3 and 9",
    ("holo", "continue_robust"): "the benchmark tracer wraps it until ROADMAP items 3 and 9",
    ("repn", "inner_product"): "the representation's invariant inner product, which "
                               "tests/test_repn.py uses to check unitarity",
}


def _names(node) -> set:
    """Every name and attribute that the node reads or writes."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _defined(node):
    """The name a top-level statement defines: a function's or class's, or an
    alias's (name = other_name); None for any other statement."""
    if (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Name)):
        return node.targets[0].id
    return getattr(node, "name", None)


def test_the_package_root_binds_only_its_version():
    bound = set()
    for node in SOURCES[PACKAGE].body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        else:
            bound.update(n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    assert bound == {"__version__"}


def test_every_public_function_and_class_is_used_outside_its_own_body():
    # per top-level statement: (file, the name it defines or None, the names in it)
    statements = [(path, _defined(node), _names(node))
                  for path, tree in SOURCES.items() for node in tree.body]
    public = [(path, name) for path, name, _ in statements
              if path.parent.name == "anyonstat" and name and not name.startswith("_")]
    unused = {(path.stem, name) for path, name in public
              if not any(name in names for where, owner, names in statements
                         if (where, owner) != (path, name))}
    assert unused == set(UNUSED_BY_DESIGN)
