"""Every public function, class and method of the library is reached from
the library or the benchmark, not only from tests, and so is each of its
defaulted parameters; the reference oracles that tests compare against
and the parameters in ``UNPASSED`` are the listed exceptions.

The check is by name: a definition counts as reached when its name is
read as a variable or an attribute, or imported, anywhere under ``src/``
or ``benchmarks/`` outside the definition itself. Assigning to a name
(a field, a local) does not count. A name that
two public definitions share (``copy``, ``to_document``, ...) would let
one stand in for the other, so each shared definition names in
``SHARED_CALLERS`` one function under ``src/`` or ``benchmarks/`` whose
body calls it, and that function must still name it.

A defaulted parameter of a public function or method counts as passed
when some call of a function of that bare name under ``src/`` or
``benchmarks/``, outside test files, passes it by keyword or by
position, or splats ``*args`` or ``**kwargs`` that may hold it. A
parameter no such call passes is a setting only its default reaches,
so it goes, unless ``UNPASSED`` lists it with the reason it stays.

No module of the library or of the tests imports a name it never reads.
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

# Defaulted parameters no library or benchmark call passes, kept on purpose.
# The oracles' parameters are exempt with the oracles.
UNPASSED = {
    "cli.main.argv":
        "the console script reads the process arguments; tests pass argv",
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
    "mpnn.GnnModel.forward": "imputation.blocked_forward",
    "mpnn.GnnModel.init_parameters": "cli.cmd_train",
    "services.CongestionEvent.to_document": "services.write_jsonl",
    "services.FlexibilityBid.to_document": "services.write_jsonl",
    "training.SampleSet.sample": "cli.cmd_bid",
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


def _defaulted(node, is_method):
    """(name, position) of each parameter of a function node that has a
    default; positions count from the first argument a call spells out,
    and a keyword-only parameter has position None."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = int(is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list))
    first = len(positional) - len(args.defaults)
    out = [(p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
    out += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _calls(*dirs):
    """Bare name -> (positional count, keyword names) of each call under
    ``dirs`` outside test files; a count or a name set is None where the
    call splats ``*args`` or ``**kwargs``."""
    calls = collections.defaultdict(list)
    for path in _python_files(*dirs):
        if os.path.basename(path).startswith("test_"):
            continue
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            splat = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls[name].append((None if splat else len(node.args),
                                None if None in keywords else keywords))
    return calls


def _unpassed_parameters():
    """Qualified names of the defaulted parameters of public library
    functions and methods, oracles aside, that no call passes."""
    calls = _calls(PACKAGE, BENCHMARKS)
    unpassed = set()
    for path in _python_files(PACKAGE):
        for qualified, name, node in _functions(path):
            if isinstance(node, ast.ClassDef) or qualified in ORACLES:
                continue
            is_method = qualified.count(".") == 2
            for param, pos in _defaulted(node, is_method):
                if not any(keywords is None or param in keywords
                           or (pos is not None
                               and (count is None or count > pos))
                           for count, keywords in calls[name]):
                    unpassed.add(f"{qualified}.{param}")
    return unpassed


def test_defaulted_parameter_positions():
    tree = ast.parse("class C:\n"
                     "    def m(self, a, b=1, *, c=2, d): ...\n"
                     "    @staticmethod\n"
                     "    def s(a, b=1): ...\n"
                     "def f(a, b=1, c=2): ...")
    cls, f = tree.body
    m, s = cls.body
    assert _defaulted(m, True) == [("b", 1), ("c", None)]
    assert _defaulted(s, True) == [("b", 1)]
    assert _defaulted(f, False) == [("b", 1), ("c", 2)]


def test_every_defaulted_parameter_is_passed_by_a_caller():
    assert _unpassed_parameters() == set(UNPASSED)


def _unread_imports(tree):
    """Names an import binds in ``tree`` that nothing in it reads;
    ``__future__`` features bind no name."""
    bound, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted(bound - read)


def test_unread_imports_are_found():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "import numpy as np\nfrom m import a, b as c\nos.sep\n"
                     "a()")
    assert _unread_imports(tree) == ["c", "np"]


def test_no_module_imports_a_name_it_never_reads():
    tests = os.path.dirname(os.path.abspath(__file__))
    unread = {path: names for path in _python_files(PACKAGE, tests)
              if (names := _unread_imports(_parse(path)))}
    assert unread == {}
