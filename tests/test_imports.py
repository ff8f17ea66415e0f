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
a ``SchemaError``.  Only the step rule ``projectors._refuse_reach``
constructs a ``StepTooLargeError``, so every finite difference on U(n) is
refused by the same bound.  Only ``sampling.sample_rng`` calls into ``numpy.random``,
so every random draw comes from the Generator it makes for each sample.
Only the kernel ``contour._resolvent_integral`` builds the resolvent: no
other code names ``_resolvent`` or inverts a stack of matrices built from
a node array.
The package needs only numpy and orjson: no module of it imports scipy,
and a fresh interpreter that imports it has loaded no scipy module.
"""

import ast
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


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
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
    for node in ast.parse(source).body:
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
        for node in ast.walk(ast.parse(source)):
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
    tree = ast.parse(source)
    methods = {
        id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
    }
    for node in ast.walk(tree):
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
        for node in ast.walk(ast.parse(source)):
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


def constructions(tree: ast.AST, error: str) -> list[int]:
    """Lines of the calls under ``tree`` that construct ``error``, by its
    bare name or as a module attribute."""
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    return sorted(
        n.lineno
        for n in calls
        if (getattr(n.func, "id", None) or getattr(n.func, "attr", None)) == error
    )


def schema_errors_outside_readers(modules: dict[str, str]) -> list[str]:
    """Calls constructing a SchemaError in a module that reads no JSON."""
    return [
        f"{module}: line {line}"
        for module, source in modules.items()
        if module not in SCHEMA_READERS
        for line in constructions(ast.parse(source), "SchemaError")
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
    modules = {m: (SRC / m).read_text() for m in MODULES}
    assert schema_errors_outside_readers(modules) == []


# the one function of the package that refuses a finite-difference step
STEP_RULE = ("projectors.py", "_refuse_reach")


def step_errors_outside_the_rule(modules: dict[str, str]) -> list[str]:
    """Calls constructing a StepTooLargeError anywhere but in ``STEP_RULE``."""
    out = []
    for module, source in modules.items():
        tree = ast.parse(source)
        rule = [f for f in tree.body if (module, getattr(f, "name", None)) == STEP_RULE]
        allowed = {line for f in rule for line in constructions(f, "StepTooLargeError")}
        out += [
            f"{module}: line {line}"
            for line in constructions(tree, "StepTooLargeError")
            if line not in allowed
        ]
    return out


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
    modules = {m: (SRC / m).read_text() for m in MODULES}
    assert step_errors_outside_the_rule(modules) == []
    # and the rule itself still refuses
    tree = ast.parse(modules[STEP_RULE[0]])
    (rule,) = [f for f in tree.body if getattr(f, "name", None) == STEP_RULE[1]]
    assert constructions(rule, "StepTooLargeError")


# the one function of the package that makes a random stream
RNG_MAKER = ("sampling.py", "sample_rng")


def random_calls_outside_maker(modules: dict[str, str]) -> list[str]:
    """Calls reached through ``np.random`` or ``numpy.random``, and imports
    from ``numpy.random``, anywhere but in ``RNG_MAKER``; an annotation such
    as ``np.random.Generator`` is not a call."""
    out = []
    for module, source in modules.items():
        tree = ast.parse(source)
        allowed = {
            id(n)
            for f in tree.body
            if (module, getattr(f, "name", None)) == RNG_MAKER
            for n in ast.walk(f)
        }
        found = set()
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                dotted = ast.unparse(node.func)
                if dotted.startswith(("np.random.", "numpy.random.")):
                    found.add(node.lineno)
            elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith("numpy.random")
                or node.module == "numpy" and "random" in {a.name for a in node.names}
            ):
                found.add(node.lineno)
        out += [f"{module}: line {line}" for line in sorted(found)]
    return out


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
    modules = {m: (SRC / m).read_text() for m in MODULES}
    assert random_calls_outside_maker(modules) == []


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
    out = []
    for module, source in modules.items():
        tree = ast.parse(source)
        allowed = {
            id(n)
            for f in tree.body
            if (module, getattr(f, "name", None)) == RESOLVENT_KERNEL
            for n in ast.walk(f)
        }
        found = set()
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.FunctionDef):
                names.append(node.name)
            elif isinstance(node, ast.ImportFrom):
                names += [alias.name for alias in node.names]
            if "_resolvent" in names or stacked_inverse(node):
                found.add(node.lineno)
        out += [f"{module}: line {line}" for line in sorted(found)]
    return out


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
    modules = {m: (SRC / m).read_text() for m in MODULES}
    assert resolvents_outside_kernel(modules) == []
    # and the kernel itself still inverts the node stack
    tree = ast.parse(modules[RESOLVENT_KERNEL[0]])
    (kernel,) = [
        f for f in tree.body if getattr(f, "name", None) == RESOLVENT_KERNEL[1]
    ]
    assert any(stacked_inverse(n) for n in ast.walk(kernel))


def scipy_imports(modules: dict[str, str]) -> list[str]:
    """Imports of scipy or a scipy module, at any depth of a module; scipy is
    a test dependency only."""
    out = []
    for module, source in modules.items():
        for node in ast.walk(ast.parse(source)):
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
    modules = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert scipy_imports(modules) == []


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
