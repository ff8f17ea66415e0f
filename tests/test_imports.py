"""No module of the package imports a name it never uses, and no top-level
function, class or constant of the package goes unused.

No linter ships with the project, so this reads each module's syntax tree
with ``ast``: a name bound by an import must appear as a name somewhere
else in the module.  ``__init__.py`` imports only to re-export.  A
top-level function, class or constant, public or private, must be read
(called, named or referenced as an attribute) somewhere in the package, its
own module included, its tests or the benchmark; its definition, its
assignment and its re-export do not count.  A defaulted parameter of a
function of the package must be passed, by keyword or by position, by some
call to a function of that name.  Only the readers of the JSON formats,
``cli.py`` (the point file) and ``linalg.py`` (the matrix leaf), construct
a ``SchemaError``.

Six jobs of the package and one of its tests have one home each, a (module,
top-level function) pair, and each guard is one call of ``lines_outside``:
it parses every module once and reports the lines that the rule's
``lines_of`` finds outside the home, so a new one-home rule is a home pair
plus a ``lines_of`` function.  Only the
step rule ``projectors._refuse_reach`` constructs a ``StepTooLargeError``,
so every finite difference on U(n) is refused by the same bound.  Only the
quotient ``projectors._central`` does arithmetic with ``FD_STEP``, so every
finite difference is the same central quotient.  Only
``sampling.sample_rng`` calls into ``numpy.random``, so every random draw
comes from the Generator it makes for each sample.  Only the kernel
``contour._resolvent_integral`` builds the resolvent: no other code names
``_resolvent`` or inverts a stack of matrices built from a node array.
Only the reader ``linalg.matrix_stack_from_json`` turns JSON rows into
floats: no other code names ``fromlist`` or ``array.array``, and ``cli.py``
and ``linalg.py`` make no float array with ``np.asarray``/``np.array``
outside it.  Only ``cli._collector_paused`` changes the cycle collector's
state: no other code names ``gc.disable``, ``gc.enable``, ``gc.freeze`` or
``gc.set_threshold``.  In the tests, only ``refusals.refused`` catches an
error with ``pytest.raises``, so every refusal is checked by its type and
its whole message; three tests that cannot use it are named as exceptions.
The package needs only numpy and orjson: no module of it imports scipy,
and a fresh interpreter that imports it has loaded no scipy module.
"""

import ast
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "basicgerbe"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
# everywhere a public name of the package may be used
USERS = [SRC / m for m in MODULES] + sorted(
    p for d in ("tests", "perfbench") for p in (ROOT / d).glob("*.py")
)
# every module of the package, __init__.py included
PACKAGE = {p.name: p.read_text() for p in SRC.glob("*.py")}
# each source is parsed, and each tree walked, once for all the tests
parse = functools.cache(ast.parse)
walk = functools.cache(lambda tree: list(ast.walk(tree)))


def unused_imports(source: str) -> list[str]:
    tree = parse(source)
    imported = {}
    for node in walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nsep\n") == [
        "line 1: math",
        "line 2: path",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def top_level_names(source: str):
    """Names bound at module level by a def, a class or a plain assignment."""
    for node in parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def unused_definitions(modules: dict[str, str], users: list[str]) -> list[str]:
    """Top-level defs and constants of ``modules`` that no source in ``users``
    reads; an assignment binds its name without reading it."""
    named = set()
    for source in users:
        for node in walk(parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [
        f"{module}: {name}"
        for module, source in modules.items()
        for name in top_level_names(source)
        if name not in named
    ]


def test_detects_an_unused_definition():
    module = (
        "def used():\n    _helper()\n\ndef planted():\n    pass\n\n"
        "def _helper():\n    pass\n\ndef _planted():\n    pass\n"
    )
    assert unused_definitions({"m.py": module}, [module, "used()\n"]) == [
        "m.py: planted",
        "m.py: _planted",
    ]


def test_detects_an_unused_constant():
    module = (
        "STEP = 1e-3\nLIMIT: float = 0.1\n_SPARE = STEP\n\n"
        "def f(h=STEP):\n    pass\n"
    )
    assert unused_definitions({"m.py": module}, [module, "f()\n"]) == [
        "m.py: LIMIT",
        "m.py: _SPARE",
    ]


def test_no_unused_definitions():
    modules = {m: (SRC / m).read_text() for m in MODULES}
    assert unused_definitions(modules, [p.read_text() for p in USERS]) == []


def defaulted_parameters(source: str):
    """(function, parameter, position) for every parameter with a default;
    keyword-only ones have no position, and a method's positions start
    after its bound first parameter."""
    tree = parse(source)
    methods = {
        id(f) for c in walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
    }
    for node in walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = 1 if id(node) in methods else 0
        for pos in range(len(positional) - len(args.defaults), len(positional)):
            yield node.name, positional[pos].arg, pos - bound
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, a.arg, None


def passed_arguments(users: list[str]) -> dict:
    """Callee name -> [positions passed, keywords passed]; a call with
    ``*args`` or ``**kwargs`` passes every parameter."""
    calls = {}
    for source in users:
        for node in walk(parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            entry = calls.setdefault(name, [0, set()])
            keys = {k.arg for k in node.keywords}
            every = None in keys or any(isinstance(a, ast.Starred) for a in node.args)
            entry[0] = max(entry[0], math.inf if every else len(node.args))
            entry[1] |= keys
    return calls


def unset_parameters(modules: dict[str, str], users: list[str]) -> list[str]:
    """Defaulted parameters of ``modules`` that no call in ``users`` passes,
    matching calls to functions by name."""
    calls = passed_arguments(users)
    out = []
    for module, source in modules.items():
        for func, param, pos in defaulted_parameters(source):
            count, keys = calls.get(func, (0, set()))
            by_position = count == math.inf or (pos is not None and pos < count)
            if param not in keys and not by_position:
                out.append(f"{module}: {func}.{param}")
    return out


def test_detects_an_unset_parameter():
    module = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
        "def g(x=0):\n    pass\n\n"
        "class K:\n    def m(self, y=1, z=2):\n        pass\n"
    )
    users = [module, "f(0, 5)\nf(0, d=4)\nK().m(7)\n", "args = ()\ng(*args)\n"]
    assert unset_parameters({"m.py": module}, users) == [
        "m.py: f.c",
        "m.py: f.e",
        "m.py: m.z",
    ]


def test_no_unset_parameters():
    modules = {m: (SRC / m).read_text() for m in MODULES}
    assert unset_parameters(modules, [p.read_text() for p in USERS]) == []


# the modules that read a JSON format, so may report a schema error
SCHEMA_READERS = {"cli.py", "linalg.py"}


def lines_outside(modules: dict[str, str], home: tuple[str, str], lines_of) -> list[str]:
    """``module: line N``, sorted per module, for each line that ``lines_of(module,
    tree, skip)`` finds in a module's syntax tree, where ``skip`` holds the node
    ids of ``home``, a (module, top-level function) pair, the rule's one home."""
    out = []
    for module, source in modules.items():
        tree = parse(source)
        skip = {id(n) for f in tree.body if (module, getattr(f, "name", None)) == home
                for n in ast.walk(f)}
        out += [f"{module}: line {n}" for n in sorted(set(lines_of(module, tree, skip)))]
    return out


def home_function(modules: dict[str, str], home: tuple[str, str]) -> ast.AST:
    """The syntax tree of the one top-level function that ``home`` names."""
    (f,) = [f for f in parse(modules[home[0]]).body if getattr(f, "name", None) == home[1]]
    return f


def constructions(tree: ast.AST, error: str, skip: set[int] = frozenset()) -> list[int]:
    """Lines of the calls under ``tree``, outside the nodes in ``skip``, that
    construct ``error``, by its bare name or as a module attribute."""
    return sorted(
        n.lineno
        for n in walk(tree)
        if isinstance(n, ast.Call) and id(n) not in skip
        and (getattr(n.func, "id", None) or getattr(n.func, "attr", None)) == error
    )


def schema_errors_outside_readers(modules: dict[str, str]) -> list[str]:
    """Calls constructing a SchemaError in a module that reads no JSON."""
    return [
        f"{module}: line {line}"
        for module, source in modules.items()
        if module not in SCHEMA_READERS
        for line in constructions(parse(source), "SchemaError")
    ]


def test_detects_a_schema_error_outside_the_readers():
    planted = (
        "from .errors import SchemaError\nfrom . import errors\n\n"
        "def f(x):\n    if x:\n        raise SchemaError('$', 'bad')\n"
        "    raise errors.SchemaError('$', 'worse')\n"
    )
    reader = "def g():\n    raise SchemaError('$', 'bad')\n"
    assert schema_errors_outside_readers({"m.py": planted, "cli.py": reader}) == [
        "m.py: line 6",
        "m.py: line 7",
    ]


def test_schema_errors_only_in_readers():
    assert schema_errors_outside_readers(PACKAGE) == []


# the one function of the package that refuses a finite-difference step
STEP_RULE = ("projectors.py", "_refuse_reach")


def step_errors_outside_the_rule(modules: dict[str, str]) -> list[str]:
    """Calls constructing a StepTooLargeError anywhere but in ``STEP_RULE``."""
    return lines_outside(modules, STEP_RULE, lambda _, tree, skip: constructions(
        tree, "StepTooLargeError", skip))


def test_detects_a_step_error_outside_the_rule():
    planted = (
        "from .errors import StepTooLargeError\nfrom . import errors\n\n"
        "def d_along(h, reach, distance):\n    if not reach < distance:\n"
        "        raise StepTooLargeError(f'h = {h}')\n"
        "    raise errors.StepTooLargeError('worse')\n\n"
        "def _refuse_reach():\n    raise StepTooLargeError('not the rule')\n"
    )
    rule = (
        "def _refuse_reach(h):\n    raise StepTooLargeError(f'FD step h = {h}')\n\n"
        "def _step():\n    raise StepTooLargeError('a second rule')\n"
    )
    modules = {"forms.py": planted, "projectors.py": rule}
    assert step_errors_outside_the_rule(modules) == [
        "forms.py: line 6",
        "forms.py: line 7",
        "forms.py: line 10",
        "projectors.py: line 5",
    ]


def test_one_step_rule():
    assert step_errors_outside_the_rule(PACKAGE) == []
    # and the rule itself still refuses
    assert constructions(home_function(PACKAGE, STEP_RULE), "StepTooLargeError")


# the one function of the package that takes a difference quotient
DIFFERENCE_RULE = ("projectors.py", "_central")


def difference_arithmetic(tree: ast.AST, skip: set[int] = frozenset()) -> list[int]:
    """Lines under ``tree``, outside the nodes in ``skip``, that do arithmetic
    (a binary, unary or augmented operation) on ``FD_STEP``, as a bare name or
    an attribute, or on a name that an assignment, a walrus or a parameter
    default binds to it.  Bound names match anywhere in ``tree``, whatever
    their scope."""
    nodes = [n for n in walk(tree) if id(n) not in skip]
    steps = {"FD_STEP"}

    def is_step(node) -> bool:
        return getattr(node, "attr", None) == "FD_STEP" or (
            isinstance(node, ast.Name) and node.id in steps
        )

    while True:
        bound = set()
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
                if node.value is not None and is_step(node.value):
                    targets = getattr(node, "targets", None) or [node.target]
                    bound |= {t.id for t in targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.arguments):
                positional = node.posonlyargs + node.args
                defaulted = positional[len(positional) - len(node.defaults):]
                pairs = [*zip(defaulted, node.defaults),
                         *zip(node.kwonlyargs, node.kw_defaults)]
                bound |= {a.arg for a, d in pairs if d is not None and is_step(d)}
        if bound <= steps:
            break
        steps |= bound
    operands = {
        ast.BinOp: lambda n: [n.left, n.right],
        ast.UnaryOp: lambda n: [n.operand],
        ast.AugAssign: lambda n: [n.target, n.value],
    }
    return sorted({
        n.lineno
        for n in nodes
        if type(n) in operands and any(is_step(o) for o in operands[type(n)](n))
    })


def differences_outside_the_rule(modules: dict[str, str]) -> list[str]:
    """Arithmetic on ``FD_STEP`` anywhere but in ``DIFFERENCE_RULE``."""
    return lines_outside(modules, DIFFERENCE_RULE,
                         lambda _, tree, skip: difference_arithmetic(tree, skip))


def test_detects_a_difference_outside_the_rule():
    planted = (
        "from . import projectors\nfrom .projectors import FD_STEP\n\n"
        "def d_along(f):\n    return (f(FD_STEP) - f(-FD_STEP)) / (2 * FD_STEP)\n\n"
        "def turned(z, h=FD_STEP):\n    return z + h, f(h)\n\n"
        "def fd(f):\n    h = FD_STEP\n    k = h\n    return f(k) / k\n\n"
        "def reach(spec):\n    return refuse(spec, FD_STEP, FD_STEP)\n\n"
        "STEP = projectors.FD_STEP\nTWICE = 2 * STEP\n\n"
        "def _central(f):\n    return f(FD_STEP) / (2 * FD_STEP)\n"
    )
    rule = (
        "def _central(f):\n    return (f(FD_STEP) - f(-FD_STEP)) / (2 * FD_STEP)\n\n"
        "def _step(a):\n    return a * FD_STEP\n"
    )
    assert differences_outside_the_rule({"forms.py": planted, "projectors.py": rule}) == [
        "forms.py: line 5",
        "forms.py: line 8",
        "forms.py: line 13",
        "forms.py: line 19",
        "forms.py: line 22",
        "projectors.py: line 5",
    ]


def test_one_difference_rule():
    assert differences_outside_the_rule(PACKAGE) == []
    # and the rule itself still takes the quotient
    assert difference_arithmetic(home_function(PACKAGE, DIFFERENCE_RULE))


# the one function of the package that makes a random stream
RNG_MAKER = ("sampling.py", "sample_rng")


def random_calls_outside_maker(modules: dict[str, str]) -> list[str]:
    """Calls reached through ``np.random`` or ``numpy.random``, and imports
    from ``numpy.random``, anywhere but in ``RNG_MAKER``; an annotation such
    as ``np.random.Generator`` is not a call."""

    def lines_of(_, tree, skip):
        return [n.lineno for n in walk(tree) if id(n) not in skip and (
            isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and ast.unparse(n.func).startswith(("np.random.", "numpy.random."))
            or isinstance(n, ast.ImportFrom) and n.module and (
                n.module.startswith("numpy.random")
                or n.module == "numpy" and "random" in {a.name for a in n.names}
            )
        )]
    return lines_outside(modules, RNG_MAKER, lines_of)


def test_detects_a_random_call_outside_the_maker():
    planted = (
        "import numpy as np\nimport numpy\nfrom numpy.random import default_rng\n\n"
        "def sample_rng(seed) -> np.random.Generator:\n"
        "    return np.random.default_rng(seed)\n\n"
        "def draw(rng: np.random.Generator):\n"
        "    return rng.uniform() + np.random.uniform()\n\n"
        "SEEDED = numpy.random.default_rng(0).integers(9)\n"
    )
    maker = (
        "import numpy as np\n\n"
        "def sample_rng(seed):\n    return np.random.default_rng(seed)\n"
    )
    assert random_calls_outside_maker({"m.py": planted, "sampling.py": maker}) == [
        "m.py: line 3",
        "m.py: line 6",
        "m.py: line 9",
        "m.py: line 11",
    ]


def test_one_random_stream():
    assert random_calls_outside_maker(PACKAGE) == []


# the one function of the package that builds the resolvent (xi - g)^{-1}
RESOLVENT_KERNEL = ("contour.py", "_resolvent_integral")
INVERSES = {"inv", "pinv", "solve", "tensorinv", "tensorsolve"}


def stacked_inverse(node: ast.AST) -> bool:
    """A call to an inverse or solver whose argument broadcasts an array
    along a new axis (``xs[:, None, None]``), so it inverts a node stack; the
    inverse of a single matrix is not one."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return name in INVERSES and any(
        isinstance(sub, ast.Subscript)
        and any(isinstance(c, ast.Constant) and c.value is None
                for c in ast.walk(sub.slice))
        for arg in node.args
        for sub in ast.walk(arg)
    )


def resolvents_outside_kernel(modules: dict[str, str]) -> list[str]:
    """Lines that name ``_resolvent`` (a def, an import, a name or an
    attribute) or invert a node stack anywhere but in ``RESOLVENT_KERNEL``."""

    def lines_of(_, tree, skip):
        for node in walk(tree):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.FunctionDef):
                names.append(node.name)
            elif isinstance(node, ast.ImportFrom):
                names += [alias.name for alias in node.names]
            if id(node) not in skip and ("_resolvent" in names or stacked_inverse(node)):
                yield node.lineno
    return lines_outside(modules, RESOLVENT_KERNEL, lines_of)


def test_detects_a_resolvent_outside_the_kernel():
    planted = (
        "import numpy as np\nfrom .contour import _resolvent\nfrom . import contour\n\n"
        "def f(g, xs):\n    r = np.linalg.inv(xs[:, None, None] * np.eye(3) - g)\n"
        "    return contour._resolvent(g, xs) + r\n\n"
        "def single(m):\n    return np.linalg.inv(m)\n\n"
        "def _resolvent_integral(g, b):\n    return inv(b[:, None, None] - g)\n"
    )
    kernel = (
        "import numpy as np\n\n"
        "def _resolvent_integral(g, b):\n"
        "    return np.linalg.inv(b[:, None, None] - g)\n\n"
        "def _resolvent(g, xs):\n    return np.linalg.solve(xs[:, None] - g, g)\n"
    )
    assert resolvents_outside_kernel({"forms.py": planted, "contour.py": kernel}) == [
        "forms.py: line 2",
        "forms.py: line 6",
        "forms.py: line 7",
        "forms.py: line 13",
        "contour.py: line 6",
        "contour.py: line 7",
    ]


def test_one_resolvent_kernel():
    assert resolvents_outside_kernel(PACKAGE) == []
    # and the kernel itself still inverts the node stack
    kernel = home_function(PACKAGE, RESOLVENT_KERNEL)
    assert any(stacked_inverse(n) for n in ast.walk(kernel))


# the one function of the package that reads JSON matrix rows into floats
MATRIX_READER = ("linalg.py", "matrix_stack_from_json")
ARRAYS = {"np.asarray", "np.array", "numpy.asarray", "numpy.array"}
FLOATS = {"float", "np.float64", "numpy.float64", "'d'", "'float64'"}


def float_array(node: ast.AST) -> bool:
    """A call of ``np.asarray`` or ``np.array`` with a float dtype, passed by
    keyword or as the second argument."""
    if not isinstance(node, ast.Call) or ast.unparse(node.func) not in ARRAYS:
        return False
    dtypes = [k.value for k in node.keywords if k.arg == "dtype"] + node.args[1:2]
    return any(ast.unparse(d) in FLOATS for d in dtypes)


def matrix_reads_outside_reader(modules: dict[str, str]) -> list[str]:
    """Lines naming ``fromlist`` or ``array.array``, or importing from the
    ``array`` module, anywhere but in ``MATRIX_READER``; and, in the JSON
    readers, float arrays made with ``np.asarray`` or ``np.array``."""

    def lines_of(module, tree, skip):
        return [n.lineno for n in walk(tree) if id(n) not in skip and (
            isinstance(n, ast.Attribute)
            and (n.attr == "fromlist" or ast.unparse(n) == "array.array")
            or isinstance(n, ast.ImportFrom) and n.module == "array"
            or module in SCHEMA_READERS and float_array(n)
        )]
    return lines_outside(modules, MATRIX_READER, lines_of)


def test_detects_a_matrix_read_outside_the_reader():
    planted = (
        "import array\nimport numpy as np\nfrom array import array as buffer\n\n"
        "def rows(block):\n    out = array.array('d')\n"
        "    for row in block:\n        out.fromlist(row)\n"
        "    return np.asarray(block, dtype=float), np.array(block, float)\n\n"
        "def fine(m):\n    return np.asarray(m, dtype=complex), np.asarray(m)\n"
    )
    reader = (
        "import array\nimport numpy as np\n\n"
        "def matrix_stack_from_json(items):\n    buf = array.array('d')\n"
        "    buf.fromlist(items)\n    return np.asarray(buf, dtype=float)\n\n"
        "def matrix_from_json(obj):\n    return np.asarray(obj['re'], dtype=float)\n"
    )
    modules = {"cli.py": planted, "linalg.py": reader, "forms.py": planted}
    assert matrix_reads_outside_reader(modules) == [
        "cli.py: line 3",
        "cli.py: line 6",
        "cli.py: line 8",
        "cli.py: line 9",
        "linalg.py: line 10",
        "forms.py: line 3",
        "forms.py: line 6",
        "forms.py: line 8",
    ]


def test_one_matrix_reader():
    assert matrix_reads_outside_reader(PACKAGE) == []
    # and the reader itself still reads its rows with fromlist
    reader = home_function(PACKAGE, MATRIX_READER)
    assert any(getattr(n, "attr", None) == "fromlist" for n in ast.walk(reader))


# the one function of the package that pauses the cycle collector
COLLECTOR_PAUSE = ("cli.py", "_collector_paused")
COLLECTOR_SETTERS = {"disable", "enable", "freeze", "set_threshold"}


def members_named(tree: ast.AST, module: str, names: set[str], skip) -> list[int]:
    """Lines under ``tree``, outside the nodes in ``skip``, that name one of
    ``names`` as an attribute of ``module`` under any alias or import it
    from ``module``."""
    aliases = {
        alias.asname or alias.name
        for node in walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == module
    }
    return [n.lineno for n in walk(tree) if id(n) not in skip and (
        isinstance(n, ast.Attribute)
        and n.attr in names and getattr(n.value, "id", None) in aliases
        or isinstance(n, ast.ImportFrom) and n.module == module
        and names & {a.name for a in n.names}
    )]


def collector_changes_outside_pause(modules: dict[str, str]) -> list[str]:
    """Lines naming a setter of the cycle collector, as an attribute of the
    ``gc`` module under any alias or imported from it, anywhere but in
    ``COLLECTOR_PAUSE``."""
    return lines_outside(modules, COLLECTOR_PAUSE, lambda _, tree, skip: members_named(
        tree, "gc", COLLECTOR_SETTERS, skip))


def test_detects_a_collector_change_outside_the_pause():
    planted = (
        "import gc\nimport gc as collector\nfrom gc import freeze\n\n"
        "def f():\n    gc.disable()\n    collector.set_threshold(0)\n"
        "    gc.collect(), gc.isenabled()\n\n"
        "def _collector_paused():\n    gc.enable()\n\n"
        "def g(rt):\n    rt.disable()\n"
    )
    pause = (
        "import gc\n\n"
        "def _collector_paused():\n    gc.disable()\n    yield\n    gc.enable()\n\n"
        "def after():\n    gc.freeze()\n"
    )
    assert collector_changes_outside_pause({"m.py": planted, "cli.py": pause}) == [
        "m.py: line 3",
        "m.py: line 6",
        "m.py: line 7",
        "m.py: line 11",
        "cli.py: line 9",
    ]


def test_one_collector_pause():
    assert collector_changes_outside_pause(PACKAGE) == []
    # and the pause itself still stops the collector
    pause = home_function(PACKAGE, COLLECTOR_PAUSE)
    assert any(getattr(n, "attr", None) == "disable" for n in ast.walk(pause))


# the one helper that catches an error in the tests, and the three tests that
# catch one it cannot: a raise on one branch of a parametrization, one inside
# an installed tracer, and numpy's own error for a write to a read-only array
REFUSAL_HELPER = ("refusals.py", "refused")
RAISES_ALLOWED = {"test_vectorized_one_call_per_segment_per_pass",
                  "test_benchmark_tracer_classes_give_up_at_max",
                  "test_cached_basis_is_read_only_and_unchanged"}
TESTS = {p.name: p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))}


def raises_outside_refused(modules: dict[str, str]) -> list[str]:
    """Lines naming ``raises`` of the ``pytest`` module, under any alias or
    imported from it, anywhere but in ``REFUSAL_HELPER`` and the tests named
    in ``RAISES_ALLOWED``."""

    def lines_of(_, tree, skip):
        allowed = {id(n) for f in walk(tree)
                   if getattr(f, "name", None) in RAISES_ALLOWED for n in ast.walk(f)}
        return members_named(tree, "pytest", {"raises"}, skip | allowed)
    return lines_outside(modules, REFUSAL_HELPER, lines_of)


def test_detects_a_raises_outside_refused():
    planted = (
        "import pytest\nimport pytest as pt\nfrom pytest import raises\n\n"
        "def test_a():\n    with pytest.raises(ValueError):\n        f()\n\n"
        "class TestB:\n    def test_b(self):\n        pt.raises(ValueError, f)\n\n"
        "    def test_cached_basis_is_read_only_and_unchanged(self):\n"
        "        with pytest.raises(ValueError):\n            f()\n\n"
        "def refused(error, message, call):\n    pytest.raises(error)\n"
    )
    helper = (
        "import pytest\n\n"
        "def refused(error, message, call):\n    with pytest.raises(error):\n"
        "        call()\n\n"
        "def refusal_test(table):\n    return pytest.raises\n"
    )
    assert raises_outside_refused({"test_m.py": planted, "refusals.py": helper}) == [
        "test_m.py: line 3",
        "test_m.py: line 6",
        "test_m.py: line 11",
        "test_m.py: line 18",
        "refusals.py: line 8",
    ]


def test_one_refusal_idiom():
    assert raises_outside_refused(TESTS) == []
    # and the helper itself still catches the error
    helper = home_function(TESTS, REFUSAL_HELPER)
    assert any(getattr(n, "attr", None) == "raises" for n in ast.walk(helper))


@pytest.mark.parametrize("guard, module, line", [
    (random_calls_outside_maker, "forms.py", "np.random.default_rng(0)"),
    (differences_outside_the_rule, "forms.py", "2 * FD_STEP"),
    (step_errors_outside_the_rule, "forms.py", 'StepTooLargeError("x")'),
    (resolvents_outside_kernel, "projectors.py", "np.linalg.inv(xs[:, None, None] - g)"),
    (matrix_reads_outside_reader, "cli.py", 'array.array("d")'),
    (collector_changes_outside_pause, "cli.py", "gc.disable()"),
], ids=lambda v: getattr(v, "__name__", None))
def test_guard_catches_a_line_added_to_the_package(guard, module, line):
    # the package's real imports and aliases, where the planted tests use toys
    modules = {**PACKAGE, module: f"{PACKAGE[module]}{line}\n"}
    assert guard(modules) == [f"{module}: line {len(modules[module].splitlines())}"]


def scipy_imports(modules: dict[str, str]) -> list[str]:
    """Imports of scipy or a scipy module, at any depth of a module; scipy is
    a test dependency only."""
    out = []
    for module, source in modules.items():
        for node in walk(parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                out.append(f"{module}: line {node.lineno}")
    return out


def test_detects_a_scipy_import():
    planted = (
        "import numpy as np\nimport scipy.linalg\n\n"
        "def f(g):\n    from scipy import linalg\n    return linalg.expm(g)\n\n"
        "from . import scipy_free\nimport scipyx\n"
    )
    assert scipy_imports({"m.py": planted}) == ["m.py: line 2", "m.py: line 5"]


def test_no_scipy_import():
    assert scipy_imports(PACKAGE) == []


def test_import_loads_no_scipy():
    # a fresh interpreter, so no other test's imports count
    probe = (
        "import sys\nimport basicgerbe, basicgerbe.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.strip() == "[]"
