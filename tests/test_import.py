"""What ``import linperm`` loads into a fresh interpreter."""

import subprocess
import sys


def test_import_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize, about 1 MB in
    # every sweep or benchmark worker
    code = ("import sys, linperm; "
            "print(*sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == []
