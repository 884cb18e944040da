"""Rules every module of the package keeps, read from its source with ``ast``.

Work is shared over CPUs only through ``parallel._each``, which forks: no
thread pool, no ``multiprocessing``, no subprocess. Nothing is configured
through environment variables. ``fuse`` states each fusion rule apart from
the sweep's kernels, which the tests hold to it. No module reaches
``numpy.polynomial``: ``synth`` stores the quadrature rule it would solve.
"""

import ast
from pathlib import Path

import modselect
from modselect import fusion

FORBIDDEN_IMPORTS = {"threading", "multiprocessing", "concurrent", "subprocess"}
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_no_threads_subprocesses_environment_or_fork_outside_parallel():
    forking = set()
    for path in sorted(Path(modselect.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '')}"
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
                assert not roots & FORBIDDEN_IMPORTS, f"{where} imports {sorted(roots)}"
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                assert root not in FORBIDDEN_IMPORTS, f"{where} imports {node.module}"
                names = {alias.name for alias in node.names} if node.module == "os" else set()
                assert not names & (ENVIRONMENT | {"fork"}), f"{where} imports {sorted(names)} from os"
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os":
                assert node.attr not in ENVIRONMENT, f"{where} reads os.{node.attr}"
                if node.attr == "fork":
                    forking.add(path.name)
    assert forking == {"parallel.py"}


def test_fuse_reaches_none_of_the_sweeps_kernels():
    # Follows every module-level name fuse reads, and the names those read.
    tree = ast.parse(Path(fusion.__file__).read_text(encoding="utf-8"))
    defined = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((target.id, node) for target in node.targets if isinstance(target, ast.Name))
    reached, todo = set(), ["fuse"]
    while todo:
        name = todo.pop()
        if name in defined and name not in reached:
            reached.add(name)
            todo += [node.id for node in ast.walk(defined[name]) if isinstance(node, ast.Name)]
    assert "_borda_points" in reached
    assert not reached & {"_median_network", "_network", "_clamp", "_mean", "_FOLDS"}


def test_no_module_reaches_numpy_polynomial():
    # synth stores its Gauss-Hermite rule, so no process imports numpy.polynomial or solves the rule.
    for path in sorted(Path(modselect.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '')}"
            if isinstance(node, ast.Attribute):
                assert node.attr != "polynomial", f"{where} reaches .polynomial"
            elif isinstance(node, ast.Import):
                assert not any(alias.name.startswith("numpy.polynomial") for alias in node.names), where
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                assert not (node.module or "").startswith("numpy.polynomial") and not (
                    node.module == "numpy" and "polynomial" in names), where
