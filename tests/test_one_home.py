"""Each shared primitive of the package has one home: the keyed Philox
stream (``groups._rng``), the overflow-safe Frobenius norm
(``matrixcore.frobenius_norm``), the Cholesky factor that whitens an
alpha-curve (``calibration._factor``), the fold split that copies rows
(``DataStats.splits``) and the explicit held-out scores of calibration. A
second copy would let two streams, two norms or two conditioning tests drift
apart unseen, or pay again for work already done, so the sources are scanned
for one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "symcov"


def _calls(name: str):
    """(module, dotted name of the enclosing class and function definitions
    or None, call node) for every call of a function named ``name``, whether
    reached as an attribute (``np.random.Philox``) or imported."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scope = {tree: None}
        for node in ast.walk(tree):   # breadth first: a parent's scope is known
            inner = scope[node]
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                inner = node.name if inner is None else f"{inner}.{node.name}"
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


def test_rows_are_copied_only_in_the_fold_split():
    # the training rows are sliced once per fold, and only where R_hat
    # cannot be downdated
    assert [(module, func) for module, func, _ in _calls("delete")] == [
        ("calibration", "DataStats.splits.split")]


def test_calibration_scores_blends_explicitly_only_off_the_whitened_route():
    # a fold whitened by S scores alpha = 0 off its factor: another explicit
    # score would pay a second Cholesky
    assert sorted(func for module, func, _ in _calls("gaussian_nll_per_sample")
                  if module == "calibration") == ["DataStats.fold_scores.term", "_alpha_curve"]
    tree = ast.parse((SRC / "calibration.py").read_text())

    def scored_in(blocks):
        return sum(isinstance(call, ast.Call)
                   and getattr(call.func, "attr", None) == "gaussian_nll_per_sample"
                   for block in blocks for stmt in block.body for call in ast.walk(stmt))

    # one call under the fold term's `if whitening is None:`, one in a loop
    # over the alphas left uncertified
    assert scored_in(node for node in ast.walk(tree) if isinstance(node, ast.If)
                     and ast.unparse(node.test) == "whitening is None") == 1
    assert scored_in(node for node in ast.walk(tree) if isinstance(node, ast.For)) == 1
