"""Every module of the package compiles with warnings turned into errors and
contains no `assert` statement: runtime checks raise typed errors instead,
since `python -O` strips asserts.  Modules of the package import each other
at module level only.  Every name the benchmark harness in
`bench/` and its tests take from the package still exists.  Read from the
syntax trees of src/ (the re-exports of looptool/__init__.py aside),
scripts/ and bench/, every module-level function and class of the package
is used there as a name or an attribute, and every method, property,
class-level alias and instance attribute of those classes as an attribute;
a docstring, a test and an attribute of a module such as `json` are no use,
and two allow-lists name the test-only helpers and members kept on purpose.
Every module-level import is used, and no module calls id(), so no cache
is keyed by object identity.  Only numberfield names the encoders behind `NumberField.integer_rows`,
and only it reads a field's basis factor or integer reduction rows.  mpmath
stays off the exact path's import graph: no module imports it at module
level, and importing the package, computing knot rows, a reconstruction
and a bundle invariant leave it, and dataclasses, unloaded until a
certified embedding asks for mpmath."""

import ast
import glob
import importlib
import os
import re
import subprocess
import sys
import warnings

import pytest

import looptool

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "looptool")
BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_module_compiles_without_warnings(path):
    with open(path) as fh:
        source = fh.read()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(source, path, "exec")
    asserts = [node.lineno for node in ast.walk(ast.parse(source, path))
               if isinstance(node, ast.Assert)]
    assert not asserts, f"assert statements at lines {asserts}"


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_no_function_level_package_imports(path):
    """Modules of the package import each other at module level only: no
    import cycle needs a lazy import."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    lazy = sorted({node.lineno for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.ImportFrom) and node.level > 0})
    assert not lazy, f"function-level relative imports at lines {lazy}"


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_no_unused_module_level_imports(path):
    """Every name a module imports at module level is used in that module
    (or listed in its __all__)."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    try:
        used.update(_literal(tree, "__all__"))
    except LookupError:
        pass
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"unused imports: {unused}"


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_no_call_of_id(path):
    """An id is reused once its object is collected, so a cache keyed by
    id() can hand a new object what was built for a dead one; caches are
    kept on the objects they serve, or keyed by value."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    calls = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "id")
    assert not calls, f"id() called at lines {calls}"


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_no_module_level_mpmath_import(path):
    """Floating point stays off the exact path: a function that computes in
    floating point imports mpmath in its own body.  Statements that run on
    import (module and class bodies, their branches) import no mpmath."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    eager, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "mpmath" for name in names):
            eager.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    assert not eager, f"module-level mpmath imports at lines {sorted(eager)}"


_EXACT_RUN = """
import json, sys
from fractions import Fraction
import looptool, looptool.cli
from looptool.diagrams import FeynmanDiagram, VertexFactorTable, loop_invariant
from looptool.knots import FIELD_SQRT21, fixture
from looptool.numberfield import ComplexBall
from looptool.nzdata import TwistedNZData
from looptool.powersum import reconstruct_p

fx = fixture("4_1")
assert fx.phi_average(3, 40) == fx.phi_closed(3, 40)
p = reconstruct_p([(n, fx.phi_average(2, n).value) for n in (1, 2, 3, 4)], [fx.lam], 2, 1)
assert p.evaluate(9) == fx.phi_average(2, 9).value
with open(sys.argv[1]) as fh:
    obj = json.load(fh)
data = TwistedNZData.from_json(obj["nz"])
diagrams = [(FeynmanDiagram.from_json(d), VertexFactorTable.from_json(d, data.field))
            for d in obj["diagrams"]]
loop_invariant(data, 5, diagrams, 2)
assert "mpmath" not in sys.modules, "an exact path loaded mpmath"
assert "dataclasses" not in sys.modules, "an exact path loaded dataclasses"
ball = FIELD_SQRT21.generator().embed(None, 20)
assert isinstance(ball, ComplexBall) and ball.radius <= Fraction(1, 10 ** 20)
assert abs(ball.re * ball.re - 21) < Fraction(1, 10 ** 18) and ball.im == 0
assert "mpmath" in sys.modules
print("ok")
"""


def test_exact_paths_leave_mpmath_unloaded():
    """In a fresh interpreter: import the package and its CLI, compute one
    4_1 row, one reconstruction and one bundle invariant, and mpmath is
    still not loaded; a certified embedding then loads it and still
    returns a ball of the asked radius."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(looptool.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    bundle = os.path.join(ROOT, "data", "synthetic_theta_bundle.json")
    done = subprocess.run([sys.executable, "-c", _EXACT_RUN, bundle],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stdout == "ok\n", done.stderr


@pytest.mark.parametrize("path", [p for p in sorted(glob.glob(os.path.join(SRC, "*.py")))
                                  if os.path.basename(p) != "numberfield.py"],
                         ids=os.path.basename)
def test_regular_representation_stays_in_numberfield(path):
    """Only numberfield builds multiplication matrices from numerators; the
    other modules take integer rows from `NumberField.integer_rows`."""
    with open(path) as fh:
        words = set(re.findall(r"\w+", fh.read()))
    assert not words & {"_int_columns", "_mult_columns"}


#: The attributes that carry a field's integral basis, and the names of the
#: per-field scale that the integral basis replaced.
FIELD_BASIS = {"_xi_dens", "_int_rows"}
FIELD_SCALE = {"_scale", "_reduction_rows"}


def _identifiers(tree):
    """Every attribute, name and string constant of a syntax tree, so that
    getattr(field, "_int_rows") counts as a use of _int_rows."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_field_basis_stays_in_numberfield():
    """Read from the syntax trees of src/, scripts/ and bench/: only
    numberfield touches the basis factor of a field or its integer
    reduction rows, and nothing names the scale they replaced."""
    for part in ("src", "scripts", "bench"):
        for path in glob.glob(os.path.join(ROOT, part, "**", "*.py"), recursive=True):
            with open(path) as fh:
                found = set(_identifiers(ast.parse(fh.read(), path)))
            assert not found & FIELD_SCALE, (path, found & FIELD_SCALE)
            if os.path.basename(path) != "numberfield.py":
                assert not found & FIELD_BASIS, (path, found & FIELD_BASIS)


def _literal(tree, name):
    """The literal value assigned to `name` at module level of `tree`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def _resolve(module, name):
    """`module.name`, an attribute or a submodule, or None."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


BENCH_SOURCES = sorted(glob.glob(os.path.join(BENCH, "*.py"))
                       + glob.glob(os.path.join(BENCH, "tests", "*.py")))


def test_bench_hooks_resolve():
    """The names `bench/*.py` and `bench/tests/*.py` import from looptool
    and use on its modules and classes, the tracer's SPANS and NF_OPS
    targets (looked up as Tracer.install does, through owner.__dict__), and
    looptool.__all__ all exist.  bench/ is read, never imported."""
    missing = []
    for path in BENCH_SOURCES:
        name = os.path.relpath(path, BENCH)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        owners = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "looptool":
                        bound = alias.asname or alias.name.split(".")[0]
                        owners[bound] = importlib.import_module(
                            alias.name if alias.asname else "looptool")
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("looptool"):
                for alias in node.names:
                    value = _resolve(node.module, alias.name)
                    if value is None:
                        missing.append(f"{name}: {node.module}.{alias.name}")
                    elif isinstance(value, type) or hasattr(value, "__file__"):
                        owners[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in owners
                    and not hasattr(owners[node.value.id], node.attr)):
                missing.append(f"{name}: {node.value.id}.{node.attr}")
        if os.path.basename(path) != "tracer.py":
            continue
        for module, *targets in _literal(tree, "SPANS").values():
            mod = importlib.import_module(module)
            for target in targets:
                owner, _, attr = target.rpartition(".")
                if owner:
                    ok = attr in getattr(mod, owner, object).__dict__
                else:
                    ok = hasattr(mod, attr)
                if not ok:
                    missing.append(f"SPANS: {module}.{target}")
        from looptool.numberfield import FieldElement
        for attrs in _literal(tree, "NF_OPS").values():
            missing.extend(f"NF_OPS: FieldElement.{attr}" for attr in attrs
                           if attr not in FieldElement.__dict__)
    missing.extend(f"looptool.__all__: {name}" for name in looptool.__all__
                   if not hasattr(looptool, name))
    assert not missing, missing


#: Test-only module-level helpers kept on purpose, each with the reason it
#: stays.
KEPT_HELPERS = {
    "leading_asymptotic": "acceptance criterion 3 checks the 4_1 asymptotic "
                          "constants with it",
    "asymptotic_fit_check": "acceptance criterion 3 checks the 4_1 error "
                            "envelope with it",
}

#: Test-only members kept on purpose, each with the reason it stays.
KEPT_MEMBERS = {
    "FiveTwoFixture.psi_numeric": "criterion 9's numeric check of the 5_2 asymptotics",
    "FiveTwoFixture.lambda_sextic_residue": "the certificate that lambda is a root "
                                            "of the sextic defining its field",
    "FigureEightFixture.psi": "criterion 3 checks the 4_1 asymptotic constants "
                              "against it",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _uses():
    """(names, attributes) that src/ (looptool/__init__.py aside), scripts/
    and bench/ use, read from their syntax trees, never imported.  A name is
    used when it is read or imported from the package, an attribute when it
    is read or called, except on a module bound by an `import` of anything
    but the package (`json.load`).  In bench/ a string that is a dotted
    name, such as the tracer's "KnotFixture.phi_rational_function", uses
    each of its parts both ways; a docstring is no such string."""
    init = os.path.join(SRC, "__init__.py")
    names, attributes = set(), set()
    for part in ("src", "scripts", "bench"):
        for path in glob.glob(os.path.join(ROOT, part, "**", "*.py"), recursive=True):
            if os.path.samefile(path, init):
                continue
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            foreign = {alias.asname or alias.name.split(".")[0]
                       for node in ast.walk(tree) if isinstance(node, ast.Import)
                       for alias in node.names
                       if alias.name.split(".")[0] != "looptool"}
            docstrings = {id(node.value) for node in ast.walk(tree)
                          if isinstance(node, ast.Expr)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                    if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                        attributes.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and (
                        node.level or node.module.split(".")[0] == "looptool"):
                    names.update(alias.name for alias in node.names)
                elif (part == "bench" and isinstance(node, ast.Constant)
                      and isinstance(node.value, str) and id(node) not in docstrings
                      and _DOTTED.fullmatch(node.value)):
                    names.update(node.value.split("."))
                    attributes.update(node.value.split("."))
    return names, attributes


def _self_attributes(method):
    """(name, line) of each attribute that `method` assigns as self.x = ..."""
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        while targets:
            t = targets.pop()
            if isinstance(t, ast.Tuple):
                targets.extend(t.elts)
            elif (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                  and t.value.id == "self"):
                yield t.attr, t.lineno


def _members(cls):
    """(name, line) of the methods, properties, class-level aliases and
    instance attributes (self.x = ... in a method) of a class, dunders
    aside, each once."""
    seen = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            found = [(node.name, node.lineno), *_self_attributes(node)]
        elif isinstance(node, ast.Assign):
            found = [(t.id, node.lineno) for t in node.targets if isinstance(t, ast.Name)]
        else:
            found = []
        for name, line in found:
            if not (name.startswith("__") and name.endswith("__")) and name not in seen:
                seen.add(name)
                yield name, line


def _package_trees():
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            yield os.path.basename(path), ast.parse(fh.read(), path)


def test_no_dead_module_level_helpers():
    """Each module-level function and class of src/looptool is used as a
    name or an attribute (see `_uses`) in src/, scripts/ or bench/; a
    re-export in looptool/__init__.py, a mention in a docstring and a use in
    the tests do not count.  A helper that only tests use moves into the
    tests unless KEPT_HELPERS names it, and every name KEPT_HELPERS lists is
    test-only."""
    names, attributes = _uses()
    used = names | attributes
    dead = [f"{name}:{node.lineno} {node.name}" for name, tree in _package_trees()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in used and node.name not in KEPT_HELPERS]
    assert not dead, dead
    assert not set(KEPT_HELPERS) & used, set(KEPT_HELPERS) & used


def test_no_dead_members():
    """Each method, property, class-level alias and instance attribute
    (assigned as self.x = ...) of a module-level class of src/looptool,
    dunders aside, is used as an attribute (see `_uses`) in src/, scripts/
    or bench/; assigning it is no use.  Members that only tests use are dead unless
    KEPT_MEMBERS names them, and every member KEPT_MEMBERS lists is
    test-only.  The check goes by name, so a member whose name another
    object also uses goes unseen."""
    used = _uses()[1]
    dead = [f"{name}:{line} {cls.name}.{member}" for name, tree in _package_trees()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for member, line in _members(cls)
            if member not in used and f"{cls.name}.{member}" not in KEPT_MEMBERS]
    assert not dead, dead
    kept = {key.partition(".")[2] for key in KEPT_MEMBERS}
    assert not kept & used, kept & used
