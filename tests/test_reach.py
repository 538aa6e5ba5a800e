"""Every public function, class and method of the library is reached from
the library or the benchmark, not only from tests; the reference oracles
that tests compare against are the listed exceptions.

The check is by name: a definition counts as reached when its name
appears as a variable, an attribute or an imported name anywhere under
``src/`` or ``benchmarks/`` outside the definition itself.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gridmpnn")

# Reference oracles the tests compare the library against.
ORACLES = {
    "diffcore.gradient_check":
        "finite-difference gradients that backward is checked against",
    "gridsim.exact_conditional":
        "exact Gaussian conditioning that imputation is checked against",
    "gridsim.linear_chain_model":
        "the linear-Gaussian chain world the conditioning oracle runs on",
    "gridsim.TimeSeriesDataset.equals":
        "dataset equality for the CSV round-trip checks",
}


def _python_files(*dirs):
    for d in dirs:
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                yield os.path.join(d, name)


def _definitions(path):
    """(qualified name, bare name, first line, last line) of the public
    module-level functions and classes and public methods of a module."""
    module = os.path.splitext(os.path.basename(path))[0]
    with open(path) as fh:
        tree = ast.parse(fh.read())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _references(path):
    """(name, line) of every variable, attribute and imported name."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_only_the_oracles_are_reached_from_tests_alone():
    refs = {}
    for path in _python_files(PACKAGE, os.path.join(ROOT, "benchmarks")):
        for name, line in _references(path):
            refs.setdefault(name, []).append((path, line))
    unreached = set()
    for path in _python_files(PACKAGE):
        for qualified, name, first, last in _definitions(path):
            if not any(p != path or not first <= line <= last
                       for p, line in refs.get(name, ())):
                unreached.add(qualified)
    assert unreached == set(ORACLES)
