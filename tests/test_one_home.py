"""Each shared primitive of the package has one home: the keyed Philox
stream (``groups._rng``) and the overflow-safe Frobenius norm
(``matrixcore.frobenius_norm``). A second copy would let two streams or
two norms drift apart unseen, so the sources are scanned for one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "symcov"


def _calls(name: str):
    """(module, call node) for every call of a function named ``name``,
    whether reached as an attribute (``np.random.Philox``) or imported."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and name in (getattr(node.func, "attr", None),
                                                       getattr(node.func, "id", None)):
                yield path.stem, node


def test_philox_is_constructed_in_one_place():
    assert [module for module, _ in _calls("Philox")] == ["groups"]


def test_frobenius_norm_is_taken_only_in_matrixcore():
    fro = [module for module, node in _calls("norm")
           if any(isinstance(arg, ast.Constant) and arg.value == "fro"
                  for arg in [*node.args, *(kw.value for kw in node.keywords)])]
    assert fro == ["matrixcore"]
