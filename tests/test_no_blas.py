"""No reduction in the package goes through BLAS or np.einsum's wrapper.

BLAS splits a product across threads and blocks it by CPU, so its rounding
can change with the thread count and the machine; the package's results
must not.  Every reduction is np.add.reduce or numeric._contract, numpy's
c_einsum called directly (see chancap.numeric).  This test reads the
package source and fails on any spelling that reaches BLAS: the @
operator, np.dot, matmul, tensordot, inner, vdot, an ndarray's .dot
method, and an einsum call that passes optimize, which may hand the
contraction to BLAS.  It fails on np.einsum and numpy.einsum too, called
or imported: without optimize they reach the same c_einsum through a
Python-level dispatcher and wrapper that cost a small kernel call about a
third of its time, so _contract is the package's one contraction spelling.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chancap"

BLAS_NAMES = {"dot", "matmul", "tensordot", "inner", "vdot"}
# Spelled through numpy, these reach c_einsum only through its Python wrapper.
WRAPPED_NAMES = {"einsum"}
NUMPY_MODULES = {"np", "numpy", "linalg"}

# (module, enclosing function, source) of each allowed site.  The exhaustive
# oracle's grid product multiplies blocks of grid points by a channel of at
# most 4 inputs; it stays a BLAS product because einsum and a rank-1
# accumulation are both slower on the CLI's typewriter(4) verify.  numeric
# binds _contract to np.einsum only on a numpy without a c_einsum to
# import, where the wrapper is the one way left to the same contraction.
ALLOWED = {("verify.py", "brute_force_capacity", "q_block @ m"), ("numeric.py", "", "np.einsum")}


def _uses_blas(node: ast.AST) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return True
    if isinstance(node, ast.Attribute):
        if node.attr == "dot":  # np.dot and ndarray.dot alike
            return True
        owner = node.value
        while isinstance(owner, ast.Attribute):
            owner = owner.value
        flagged = BLAS_NAMES | WRAPPED_NAMES
        return node.attr in flagged and isinstance(owner, ast.Name) and owner.id in NUMPY_MODULES
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
        return any(alias.name in BLAS_NAMES | WRAPPED_NAMES for alias in node.names)
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name == "einsum" and any(kw.arg == "optimize" for kw in node.keywords)
    return False


def blas_sites(path: Path) -> set[tuple[str, str, str]]:
    """(file name, enclosing function or "", source) of each BLAS spelling in one module."""
    source = path.read_text()
    sites = set()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if _uses_blas(node):
            sites.add((path.name, function, ast.get_source_segment(source, node)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source, filename=str(path)), "")
    return sites


def test_the_package_never_calls_blas():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    sites = set().union(*(blas_sites(path) for path in modules))
    assert sites - ALLOWED == set()
    # An allowed site that is gone should leave the list too.
    assert ALLOWED <= sites


def test_each_blas_spelling_is_caught(tmp_path):
    spellings = [
        "a @ b",
        "a @= b",
        "np.dot(a, b)",
        "a.dot(b)",
        "np.matmul(a, b)",
        "numpy.tensordot(a, b)",
        "np.inner(a, b)",
        "np.vdot(a, b)",
        "np.linalg.matmul(a, b)",
        "from numpy import vdot",
        "np.einsum('xy,y->x', a, b, optimize=True)",
        "np.einsum('xy,y->x', a, b, optimize=False)",
        "einsum('xy,y->x', a, b, optimize=True)",
        "np.einsum('xy,y->x', a, b)",
        "numpy.einsum('x,xy->y', a, b)",
        "contract = np.einsum",
        "from numpy import einsum",
    ]
    for number, spelling in enumerate(spellings):
        path = tmp_path / f"m{number}.py"
        path.write_text(f"def f(a, b):\n    {spelling}\n")
        assert blas_sites(path), spelling
    path = tmp_path / "fine.py"
    path.write_text("def f(a, b, step):\n    return _contract('xy,y->x', a, b), step.inner, a * b\n")
    assert blas_sites(path) == set()
