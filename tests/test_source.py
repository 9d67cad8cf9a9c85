"""Every module of the package compiles with warnings turned into errors and
contains no `assert` statement: runtime checks raise typed errors instead,
since `python -O` strips asserts."""

import ast
import glob
import os
import warnings

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "looptool")


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
