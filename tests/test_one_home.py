"""Each shared primitive of the package has one home: the keyed Philox
stream (``groups._rng``), the overflow-safe Frobenius norm
(``matrixcore.frobenius_norm``) and the Cholesky factor that whitens an
alpha-curve (``calibration._factor``). A second copy would let two streams,
two norms or two conditioning tests drift apart unseen, so the sources are
scanned for one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "symcov"


def _calls(name: str):
    """(module, innermost enclosing function or None, call node) for every
    call of a function named ``name``, whether reached as an attribute
    (``np.random.Philox``) or imported."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scope = {tree: None}
        for node in ast.walk(tree):   # breadth first: a parent's scope is known
            inner = node.name if isinstance(node, ast.FunctionDef) else scope[node]
            scope.update((child, inner) for child in ast.iter_child_nodes(node))
            if isinstance(node, ast.Call) and name in (getattr(node.func, "attr", None),
                                                       getattr(node.func, "id", None)):
                yield path.stem, scope[node], node


def test_philox_is_constructed_in_one_place():
    assert [module for module, _, _ in _calls("Philox")] == ["groups"]


def test_frobenius_norm_is_taken_only_in_matrixcore():
    fro = [module for module, _, node in _calls("norm")
           if any(isinstance(arg, ast.Constant) and arg.value == "fro"
                  for arg in [*node.args, *(kw.value for kw in node.keywords)])]
    assert fro == ["matrixcore"]


def test_curve_ends_are_factored_only_in_calibration_factor():
    # a second dpotrf could whiten an alpha-curve past _factor's conditioning test
    assert [(module, func) for module, func, _ in _calls("dpotrf")] == [("calibration",
                                                                        "_factor")]
