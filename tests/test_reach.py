"""Every public function, class and method of the library is reached from
the library or the benchmark, not only from tests; the reference oracles
that tests compare against are the listed exceptions.

The check is by name: a definition counts as reached when its name is
read as a variable or an attribute, or imported, anywhere under ``src/``
or ``benchmarks/`` outside the definition itself. Assigning to a name
(a field, a local) does not count. A name that
two public definitions share (``copy``, ``to_document``, ...) would let
one stand in for the other, so each shared definition names in
``SHARED_CALLERS`` one function under ``src/`` or ``benchmarks/`` whose
body calls it, and that function must still name it.
"""

import ast
import collections
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gridmpnn")
BENCHMARKS = os.path.join(ROOT, "benchmarks")

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
    "gridsim.JointGaussian.sample":
        "conftest draws the chain world from it",
}

# Shared-name definition -> a library or benchmark function that calls it.
SHARED_CALLERS = {
    "baselines.CentralModel.count_parameters": "baselines.compare",
    "baselines.CentralModel.forward": "training._train_block",
    "baselines.CentralModel.init_parameters": "baselines.build_baseline",
    "diffcore.ParameterSet.copy": "training.train",
    "gridgraph.GridTopology.ids": "mpnn.ModelBase.set_standardization",
    "gridgraph.GridTopology.to_document": "cli.cmd_simulate",
    "gridgraph.SchemaConfig.from_document": "mpnn.GnnModel._from_checkpoint",
    "gridgraph.SchemaConfig.to_document": "mpnn.GnnModel.save_checkpoint",
    "gridsim.SyntheticGridSpec.from_document":
        "gridsim.SyntheticGridSpec.from_json",
    "gridsim.SyntheticGridSpec.to_document": "gridsim.SyntheticGridSpec.to_json",
    "gridsim.TimeSeriesDataset.copy": "gridsim.inject_missing",
    "gridsim.TimeSeriesDataset.ids": "cli.cmd_simulate",
    "mpnn.GnnConfig.from_document": "mpnn.GnnModel._from_checkpoint",
    "mpnn.GnnConfig.to_document": "mpnn.GnnModel.save_checkpoint",
    "mpnn.GnnModel.count_parameters": "cli.cmd_train",
    "mpnn.GnnModel.forward": "imputation.impute_packed",
    "mpnn.GnnModel.init_parameters": "cli.cmd_train",
    "services.CongestionEvent.to_document": "services.write_jsonl",
    "services.FlexibilityBid.to_document": "services.write_jsonl",
    "training.SampleSet.sample": "cli.cmd_bid",
    "training.TrainingConfig.from_document": "cli._train_model",
    "training.TrainingConfig.to_document":
        "training.TrainingConfig.from_document",
}


def _python_files(*dirs):
    for d in dirs:
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                yield os.path.join(d, name)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _functions(path, public_only=True):
    """(qualified name, bare name, node) of the module-level functions and
    classes and the methods of a module; only public ones by default."""
    module = os.path.splitext(os.path.basename(path))[0]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in _parse(path).body:
        if not isinstance(node, kinds) or (public_only
                                           and node.name.startswith("_")):
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (public_only and item.name.startswith("_"))):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _definitions(path):
    """(qualified name, bare name, first line, last line) of the public
    module-level functions and classes and public methods of a module."""
    for qualified, name, node in _functions(path):
        yield qualified, name, node.lineno, node.end_lineno


def _references(tree):
    """(name, line) of every variable and attribute read, and of every
    imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_assigned_names_are_not_references():
    tree = ast.parse("obj.field = 1\nlocal = obj.read\nfrom m import imported\n"
                     "del gone\nprint(called())")
    assert {n for n, _ in _references(tree)} == {
        "obj", "read", "imported", "print", "called"}


def _shared_definitions():
    """Qualified names of the public definitions whose bare name another
    public definition of the library also has."""
    defs = [(q, n) for path in _python_files(PACKAGE)
            for q, n, _, _ in _definitions(path)]
    counts = collections.Counter(n for _, n in defs)
    return {q for q, n in defs if counts[n] > 1}


def test_only_the_oracles_are_reached_from_tests_alone():
    refs = {}
    for path in _python_files(PACKAGE, BENCHMARKS):
        for name, line in _references(_parse(path)):
            refs.setdefault(name, []).append((path, line))
    shared = _shared_definitions()
    unreached = shared - set(SHARED_CALLERS)
    for path in _python_files(PACKAGE):
        for qualified, name, first, last in _definitions(path):
            if qualified in shared:
                continue
            if not any(p != path or not first <= line <= last
                       for p, line in refs.get(name, ())):
                unreached.add(qualified)
    assert unreached == set(ORACLES)


def test_shared_names_have_a_listed_caller():
    callers = {q: node for path in _python_files(PACKAGE, BENCHMARKS)
               for q, _, node in _functions(path, public_only=False)}
    shared = _shared_definitions()
    assert set(SHARED_CALLERS) == shared - set(ORACLES)
    for qualified, caller in SHARED_CALLERS.items():
        assert caller in callers, f"{caller} (listed for {qualified}) is gone"
        name = qualified.rsplit(".", 1)[1]
        named = {n for n, _ in _references(callers[caller])}
        assert name in named, f"{caller} no longer names {qualified}"
