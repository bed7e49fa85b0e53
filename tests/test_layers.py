import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import twistdet

PACKAGE = Path(twistdet.__file__).parent
# each module imports only modules of lower layers; modules of one layer do
# not import each other
LAYERS = [{"errors"}, {"rings"}, {"series"}, {"literals", "matrices"}, {"kgroup"},
          {"novikov"}, {"selftest"}, {"documents"}, {"cli"}, {"__init__"}]
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
# the only upward imports, each made inside a function: Q<gens>/deg>N inverts
# in Q<<gens>>, and a series' repr is its literal
LAZY_UPWARD = {("rings", "series"), ("series", "literals")}


def relative_imports(path):
    """(imported module, whether the import is at module level) for each
    relative import of the module at `path`, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    return [(node.module, id(node) in top) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level]


def test_modules_import_only_lower_layers():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {path.stem for path in modules} == set(RANK)
    upward = set()
    for path in modules:
        for target, at_top in relative_imports(path):
            if RANK[target] >= RANK[path.stem]:
                assert (path.stem, target) in LAZY_UPWARD and not at_top, (path.stem, target)
                upward.add((path.stem, target))
    assert upward == LAZY_UPWARD


def test_selftest_names_the_registry_module():
    # a fresh process, so no earlier test has imported the registry yet
    code = textwrap.dedent("""
        import sys, types
        import twistdet
        assert "twistdet.selftest" not in sys.modules, "imported by twistdet"
        import twistdet.selftest as st
        assert isinstance(st, types.ModuleType), type(st)
        assert len(st.REGISTRY) == 106, len(st.REGISTRY)
        assert st.selftest("rings", trials=1)["passed"] is True
        from twistdet import selftest
        assert selftest is st
    """)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
