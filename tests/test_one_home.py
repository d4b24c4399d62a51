"""Each shared primitive of the package has one home: the keyed Philox
stream (``groups._rng``), the overflow-safe Frobenius norm
(``matrixcore.frobenius_norm``), the Cholesky factor of a model, which scores
it and whitens an alpha-curve (``matrixcore.cholesky``), the fold split that
copies rows (``DataStats.splits``), the explicit held-out scores of
calibration and a centered moment's degrees of freedom (``DataStats.dof``,
``Fold.dof``). A second copy would let two streams, two norms, two
factorizations or two sample sizes drift apart unseen, or pay again for work
already done, so the sources are scanned for one. Calibration and the
estimators each take one symmetric eigendecomposition: of an alpha-curve's K,
and of the moment LWNL shrinks or, when there are fewer rows than M, of their
Gram matrix. An alpha-curve factors its target at one site."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "symcov"


def _nodes(match):
    """(module, dotted name of the enclosing class and function definitions
    or None, node) for every node of the sources that ``match`` accepts."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scope = {tree: None}
        for node in ast.walk(tree):   # breadth first: a parent's scope is known
            inner = scope[node]
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                inner = node.name if inner is None else f"{inner}.{node.name}"
            scope.update((child, inner) for child in ast.iter_child_nodes(node))
            if match(node):
                yield path.stem, scope[node], node


def _calls(name: str):
    """``_nodes`` of every call of a function named ``name``, whether reached
    as an attribute (``np.random.Philox``) or imported."""
    return _nodes(lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None)))


def test_philox_is_constructed_in_one_place():
    assert [module for module, _, _ in _calls("Philox")] == ["groups"]


def test_frobenius_norm_is_taken_only_in_matrixcore():
    fro = [module for module, _, node in _calls("norm")
           if any(isinstance(arg, ast.Constant) and arg.value == "fro"
                  for arg in [*node.args, *(kw.value for kw in node.keywords)])]
    assert fro == ["matrixcore"]


def test_models_are_factored_only_in_matrixcore_cholesky():
    # a second factorization could score a model or whiten an alpha-curve past
    # the pivot rule, or from another LAPACK build than every other score
    assert [(module, func) for module, func, _ in _calls("dpotrf")] == [("matrixcore",
                                                                        "cholesky")]
    assert {ast.unparse(node.func) for _, _, node in _calls("cholesky")} <= {
        "cholesky", "matrixcore.cholesky"}
    assert not list(_calls("cho_solve"))


def test_calibration_and_the_estimators_decompose_in_one_place_each():
    # a commuting target's curve reads the LWNL term's spectrum, and a moment
    # below the rank is decomposed through its rows, never again as M x M
    assert [(module, func) for module, func, _ in _calls("eigh")
            if module in ("calibration", "shrinkage")] == [
        ("calibration", "_eigen_curve"), ("shrinkage", "lwnl_from_covariance")]


def test_rows_are_copied_only_in_the_fold_split():
    # the training rows are sliced once per fold, and only where R_hat
    # cannot be downdated
    assert [(module, func) for module, func, _ in _calls("delete")] == [
        ("calibration", "DataStats.splits.split")]


def test_calibration_scores_only_explicit_blends_with_the_model_score():
    # every fold's alpha = 0 reads its sample term's one factor: another
    # gaussian_nll_per_sample would pay a second Cholesky
    assert [func for module, func, _ in _calls("gaussian_nll_per_sample")
            if module == "calibration"] == ["_alpha_curve"]
    tree = ast.parse((SRC / "calibration.py").read_text())
    # the one call is in the loop over the alphas left uncertified
    assert sum(isinstance(call, ast.Call)
               and getattr(call.func, "attr", None) == "gaussian_nll_per_sample"
               for loop in ast.walk(tree) if isinstance(loop, ast.For)
               for stmt in loop.body for call in ast.walk(stmt)) == 1


def test_degrees_of_freedom_are_decided_once_per_moment():
    # R_hat's N - 1 is written only in DataStats.dof, and LWNL's sample size
    # is read off the moment it shrinks, never recomputed beside the call
    assert [(module, func) for module, func, _ in _nodes(
        lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
        and ast.unparse(node.left).split(".")[-1] == "n_obs"
        and isinstance(node.right, ast.Constant) and node.right.value == 1)] == [
        ("calibration", "DataStats.dof")]
    sizes = [node.args[1] if len(node.args) > 1 else
             next(kw.value for kw in node.keywords if kw.arg == "n_obs")
             for _, _, node in _calls("lwnl_from_covariance")]
    assert len(sizes) == 2
    assert all(isinstance(size, ast.Attribute) and size.attr == "dof" for size in sizes)


def test_alpha_curve_factors_its_target_at_one_site():
    # the Gram route and the curve whitened by T share T's one factor, which
    # also decides the Gram route's structural +inf
    assert [func for module, func, _ in _calls("cholesky")
            if module == "calibration"].count("_alpha_curve") == 1


def test_lwnl_takes_the_gram_matrix_of_fewer_rows_than_m():
    # the row count decides the decomposition and the dof only LWNL's regime:
    # R_hat of M rows has dof M - 1 but no smaller Gram matrix
    (gram,) = [node.value for module, func, node in _nodes(
        lambda node: isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "gram")
        if (module, func) == ("shrinkage", "lwnl_from_covariance")]
    assert [ast.unparse(node) for node in ast.walk(gram) if isinstance(node, ast.Compare)
            and not isinstance(node.ops[0], ast.IsNot)] == ["len(rows) < m"]
    assert "n_obs" not in ast.unparse(gram)
