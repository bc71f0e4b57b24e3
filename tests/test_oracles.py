"""The independent oracles of _oracles.py stay independent of gibbslab."""
import ast
from pathlib import Path

import _oracles

INDEPENDENT = ("rk4_standard_ground_state_2d", "series_j0",
               "bisect_series_zero", "bump_corpus")


def _imported_roots(node):
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        return {(node.module or "").split(".")[0]}
    return set()


def test_independent_oracles_do_not_reach_the_package():
    # the module imports nothing of gibbslab at its top, and the oracles
    # neither import it nor call the whole-batch rows, which read ensembles
    # on purpose
    tree = ast.parse(Path(_oracles.__file__).read_text())
    assert not any("gibbslab" in _imported_roots(node) for node in tree.body)
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    banned = {"gibbslab"} | (set(defs) - set(INDEPENDENT))
    for name in INDEPENDENT:
        for node in ast.walk(defs[name]):
            assert "gibbslab" not in _imported_roots(node), name
            if isinstance(node, ast.Name):
                assert node.id not in banned, (name, node.id)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert "gibbslab" not in node.value, name
