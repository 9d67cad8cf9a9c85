"""Every module of the package compiles with warnings turned into errors."""

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
