"""Every public function, class and method of the library is reached from
the library or the benchmark, not only from tests, and so is each of its
defaulted parameters; the reference oracles that tests compare against
and the parameters in ``UNPASSED`` are the listed exceptions.

The check follows bindings, outside the definition itself, anywhere
under ``src/`` or ``benchmarks/``: a method counts as reached only when
its name is read as an attribute (``x.name``); a module-level function
or class when its name is read as an attribute, or as a bare name in
its own module or in a module that imports it from there. Assigning to
a name (a field, a local) does not count, and neither does a local or
an argument of the same name elsewhere. A name that
two public definitions share (``copy``, ``to_document``, ...), or a
public definition and an annotated class attribute such as a dataclass
field (``features``, ``q``, ...), would let one stand in for the other,
so each shared definition names in
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
    "baselines.CentralModel.reverse": "baselines.CentralModel.forward",
    "baselines.rmse": "baselines.evaluate_voltage_prediction",
    "diffcore.ParameterSet.copy": "training.train",
    "gridgraph.GridTopology.ids": "mpnn.ModelBase.set_standardization",
    "gridgraph.GridTopology.to_document": "cli.cmd_simulate",
    "gridgraph.NodeSchema.q": "mpnn.compute_groups",
    "gridgraph.SchemaConfig.from_document": "mpnn.GnnModel._from_checkpoint",
    "gridgraph.SchemaConfig.to_document": "mpnn.GnnModel.save_checkpoint",
    "gridsim.SyntheticGridSpec.from_document":
        "gridsim.SyntheticGridSpec.from_json",
    "gridsim.SyntheticGridSpec.to_document": "gridsim.SyntheticGridSpec.to_json",
    "gridsim.TimeSeriesDataset.copy": "gridsim.inject_missing",
    "gridsim.TimeSeriesDataset.ids": "cli.cmd_simulate",
    "gridsim.TimeSeriesDataset.index_of": "cli.cmd_impute",
    "mpnn.GnnConfig.from_document": "mpnn.GnnModel._from_checkpoint",
    "mpnn.GnnConfig.to_document": "mpnn.GnnModel.save_checkpoint",
    "mpnn.GnnModel.count_parameters": "cli.cmd_train",
    "mpnn.GnnModel.forward": "imputation.blocked_forward",
    "mpnn.GnnModel.init_parameters": "cli.cmd_train",
    "mpnn.GnnModel.reverse": "mpnn.GnnModel.forward",
    "services.CongestionEvent.to_document": "services.write_jsonl",
    "services.FlexibilityBid.to_document": "services.write_jsonl",
    "training.SampleSet.sample": "workloads.Serve.setup",
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


def _fields(path):
    """Bare names of the public annotated class attributes of a module,
    such as dataclass fields."""
    for node in _parse(path).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and not item.target.id.startswith("_")):
                    yield item.target.id


def _shared_definitions(paths):
    """Qualified names of the public definitions of the modules ``paths``
    whose bare name another public definition or a public annotated class
    attribute of those modules also has."""
    defs = [(q, n) for path in paths for q, n, _, _ in _definitions(path)]
    counts = collections.Counter(n for _, n in defs)
    counts.update(n for path in paths for n in _fields(path))
    return {q for q, n in defs if counts[n] > 1}


def _reads(paths):
    """Every read under ``paths``: name -> (path, line) of each attribute
    read and of each bare-name read, and per path the name each ``from``
    import binds, keyed by (module, imported name); a module is named by
    its last dotted part."""
    attrs, bare = collections.defaultdict(list), collections.defaultdict(list)
    imports = {}
    for path in paths:
        imports[path] = bound = {}
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare[node.id].append((path, node.lineno))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attrs[node.attr].append((path, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rsplit(".", 1)[-1]
                for alias in node.names:
                    bound[(module, alias.name)] = alias.asname or alias.name
    return attrs, bare, imports


def _unreached(paths, others):
    """Qualified names of the public definitions of the modules ``paths``
    that no read under ``paths`` or ``others`` reaches outside the
    definition itself, by the binding rules above."""
    attrs, bare, imports = _reads([*paths, *others])
    unreached = set()
    for path in paths:
        module = os.path.splitext(os.path.basename(path))[0]
        for qualified, name, first, last in _definitions(path):
            def outside(p, line):
                return p != path or not first <= line <= last

            reached = any(outside(p, line) for p, line in attrs[name])
            if not reached and qualified.count(".") == 1:
                # the name each module binds the definition to, if any
                binds = {p: b.get((module, name)) for p, b in imports.items()}
                binds[path] = name
                reached = any(outside(p, line)
                              for p, bound in binds.items() if bound
                              for q, line in bare[bound] if q == p)
            if not reached:
                unreached.add(qualified)
    return unreached


def test_reach_follows_bindings(tmp_path):
    # a local named like a method, or like a function its module does not
    # import, reaches nothing; an attribute read or an imported binding does
    sources = {
        "m.py": "class C:\n    def run(self): ...\n    def go(self): ...\n"
                "def helper(): ...\ndef lonely(): ...\ndef stray(): ...\n"
                "def main(c):\n    run = 1\n    print(run)\n    c.go()\n"
                "    helper()\n",
        "n.py": "from m import lonely as alone\nstray = 0\n"
                "print(alone(), stray)\n"}
    paths = []
    for name, text in sources.items():
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(text)
    assert _unreached(paths[:1], paths[1:]) == {"m.C", "m.C.run", "m.main",
                                                "m.stray"}


def test_a_field_shares_its_name_with_a_method(tmp_path):
    # a method named like another class's field is shared, as a method
    # named like another method is; a plain class attribute, a private
    # field or a field alone shares nothing
    path = tmp_path / "m.py"
    path.write_text("class A:\n    size: int\n    _span: int\n"
                    "    limit = 3\n    rows: int\n"
                    "class B:\n    def size(self): ...\n"
                    "    def limit(self): ...\n    def span(self): ...\n"
                    "    def copy(self): ...\n"
                    "class C:\n    def copy(self): ...\n")
    assert _shared_definitions([str(path)]) == {"m.B.size", "m.B.copy",
                                                "m.C.copy"}


def test_only_the_oracles_are_reached_from_tests_alone():
    shared = _shared_definitions(list(_python_files(PACKAGE)))
    unreached = _unreached(list(_python_files(PACKAGE)),
                           list(_python_files(BENCHMARKS)))
    assert (unreached - shared) | (shared - set(SHARED_CALLERS)) == set(ORACLES)


def test_shared_names_have_a_listed_caller():
    callers = {q: node for path in _python_files(PACKAGE, BENCHMARKS)
               for q, _, node in _functions(path, public_only=False)}
    shared = _shared_definitions(list(_python_files(PACKAGE)))
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
