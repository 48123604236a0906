"""The four response classes, their special cells, and the oracle's independence from what it checks."""

import ast
import itertools

import pytest

import bellcost as bc
import bellcost.oracle
from bellcost._geometry import LAMBDA_CLASSES, SPECIAL, class_sign, special_cell, state_class
from bellcost.core import setting_index

ALL_SIGNS = [bc.OutcomeSigns(*signs) for signs in itertools.product((1, -1), repeat=4)]


@pytest.mark.parametrize("signs", ALL_SIGNS, ids=repr)
def test_special_cell_is_the_one_cell_off_the_chsh_signs(signs):
    for mu, nu in LAMBDA_CLASSES:
        a0, a1, b0, b1 = signs.responses_for(mu, nu)
        a, b = (a0, a1), (b0, b1)
        off = [setting_index(x, y) for x, y in bc.SETTINGS if a[x] * b[y] * (-1) ** (x * y) == -1]
        assert off == [special_cell(mu, nu)] == [setting_index(1 - nu, 1 - mu)], (mu, nu)
        for x, y in bc.SETTINGS:
            assert a[x] * b[y] == class_sign(mu, nu, x, y), (mu, nu, x, y)


@pytest.mark.parametrize("signs", ALL_SIGNS, ids=repr)
def test_state_class_inverts_responses_for(signs):
    dist = bc.SettingDist.joint([0.25] * 4)
    for mu, nu in LAMBDA_CLASSES:
        assert state_class(bc.HiddenState(0.25, dist, signs.responses_for(mu, nu))) == (mu, nu)


@pytest.mark.parametrize("mu, nu", [(2, 0), (-1, 0), (0, 2), (0, -1), (-1, -1), (0.5, 0), ("0", 0)])
def test_responses_for_rejects_a_pair_that_is_no_class(mu, nu):
    with pytest.raises(bc.DomainError, match="must be one of"):
        bc.OutcomeSigns(1, -1, 1, -1).responses_for(mu, nu)


def test_special_cells_make_a_latin_square():
    """State i's j-th share at cell (SPECIAL[i] - j) % 4 fills every cell once per row and column."""
    assert SPECIAL == tuple(special_cell(mu, nu) for mu, nu in LAMBDA_CLASSES)
    square = [[(SPECIAL[i] - j) % 4 for j in range(4)] for i in range(4)]
    for i in range(4):
        assert sorted(square[i]) == [0, 1, 2, 3]
        assert sorted(row[i] for row in square) == [0, 1, 2, 3]
        assert square[i][0] == SPECIAL[i]


def test_oracle_imports_only_core_and_geometry():
    """The oracle must not read the models or the analytic curves it verifies."""
    tree = ast.parse(open(bellcost.oracle.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0:  # from . import x reads module x
                imported.update([node.module] if node.module else (alias.name for alias in node.names))
            elif node.module and node.module.split(".")[0] == "bellcost":
                imported.add(node.module.partition(".")[2] or "bellcost")
        elif isinstance(node, ast.Import):
            imported.update(
                alias.name.partition(".")[2] or "bellcost"
                for alias in node.names
                if alias.name.split(".")[0] == "bellcost"
            )
    assert imported == {"core", "_geometry"}
