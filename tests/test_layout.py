"""Layout guard: every public top-level function and every cached
property of the package is used.

A public function must be read elsewhere in the package, be a name that
the benchmark under perfbench/ binds (its files are parsed here, not
imported), or be listed in TEST_ONLY with the test that holds it.  A
reader whose one caller could index the data behind it directly fails
here instead of growing back.  A functools.cached_property of a class
must be read as an attribute somewhere in the package outside its own
body, or be listed in TEST_ONLY_PROPERTIES with the test that reads it:
a derived field that nothing reads is computed for no one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "plurimean"

# public functions that only the tests call: name -> the test that holds
# each as an identity of the paper or a reference
TEST_ONLY = {
    "eq2_consistency_residual":
        "test_forms.py::test_complex_parts_reassemble_alpha",
    "normal_valued_residual":
        "test_forms.py::test_alpha_is_symmetric_and_normal_valued",
    "cross_term_identity_residual":
        "test_forms.py::test_cross_term_identity_on_product_factors",
    "conjugate_cross_residual":
        "test_forms.py::test_cross_term_identity_on_product_factors",
    "curvature_symmetry_residual":
        "test_kaehler.py::test_curvature_symmetries",
    "kaehler_curvature_identity_residual":
        "test_kaehler.py::test_curvature_symmetries",
    "corollary_even_space":
        "test_flags.py::test_corollary_case_a_integer_spectrum",
    "superhorizontal_space":
        "test_flags.py::test_superhorizontal_space_shapes",
}


# cached properties that only the tests read: Class.name -> the test
# that reads each
TEST_ONLY_PROPERTIES = {}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _read_names(tree, skip=None):
    """The names a tree reads, bare or as an attribute, outside the
    subtree skip (a function's own body does not make it used)."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _benchmark_names():
    """Every name perfbench/*.py binds: read bare or as an attribute,
    imported, or written in a dotted string ("kernels.gauss_curvature",
    or a name in a table of traced functions)."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = _parse(path)
        names |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _unused_public_functions():
    """{name: module} of the public top-level functions that nothing in
    the package reads and the benchmark does not bind."""
    trees = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    read = {mod: _read_names(tree) for mod, tree in trees.items()}
    benchmark = _benchmark_names()
    unused = {}
    for mod, tree in trees.items():
        elsewhere = set().union(*(names for other, names in read.items()
                                  if other != mod))
        for fn in tree.body:
            if (not isinstance(fn, ast.FunctionDef)
                    or fn.name.startswith("_")
                    or fn.name in elsewhere | benchmark):
                continue
            if fn.name not in _read_names(tree, skip=fn):
                unused[fn.name] = mod
    return unused


def test_every_public_function_has_a_caller_or_an_entry():
    unused = _unused_public_functions()
    unlisted = sorted(f"{mod}.{name}" for name, mod in unused.items()
                      if name not in TEST_ONLY)
    assert unlisted == [], (
        "public functions with no caller in the package and no name in "
        "perfbench: call the code behind them directly, or list them in "
        f"TEST_ONLY with their test: {unlisted}")
    # an entry whose function gained a caller, or went, is stale
    assert sorted(unused) == sorted(TEST_ONLY)


def test_each_test_only_entry_names_a_test_that_calls_it():
    properties = {key.rsplit(".", 1)[1]: where
                  for key, where in TEST_ONLY_PROPERTIES.items()}
    for name, where in {**TEST_ONLY, **properties}.items():
        path, test = where.split("::")
        tree = _parse(ROOT / "tests" / path)
        body = next((node for node in tree.body
                     if isinstance(node, ast.FunctionDef)
                     and node.name == test), None)
        assert body is not None, where
        assert name in _read_names(body), (name, where)


def _is_cached_property(node):
    return isinstance(node, ast.FunctionDef) and any(
        getattr(dec, "attr", getattr(dec, "id", None)) == "cached_property"
        for dec in node.decorator_list)


def _read_attributes(tree, skip):
    """The attribute names a tree reads outside the subtree skip: a
    property is read as an attribute, never as a bare name."""
    inside = set(map(id, ast.walk(skip)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and id(node) not in inside}


def test_every_cached_property_has_a_reader_or_an_entry():
    trees = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    props = {f"{mod}.{cls.name}.{prop.name}": prop
             for mod, tree in trees.items() for cls in tree.body
             if isinstance(cls, ast.ClassDef)
             for prop in filter(_is_cached_property, cls.body)}
    # the search sees the package's classes, so an empty result below is
    # not an empty search
    assert {"gaussmaps.Bundles.Nc", "gaussmaps.Bundles.residuals",
            "forms.GeometryData.RN", "pipeline.FixtureContext.bundles",
            "flags.Grading.bracket_table"} <= set(props)
    unread = sorted(key.split(".", 1)[1] for key, prop in props.items()
                    if not any(prop.name in _read_attributes(tree, prop)
                               for tree in trees.values()))
    unlisted = [key for key in unread if key not in TEST_ONLY_PROPERTIES]
    assert unlisted == [], (
        "cached properties that nothing in the package reads: derive "
        "the value where it is read, or list them in "
        f"TEST_ONLY_PROPERTIES with their test: {unlisted}")
    # an entry whose property gained a reader, or went, is stale
    assert unread == sorted(TEST_ONLY_PROPERTIES)
