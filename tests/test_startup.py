"""Start-up cost: importing the CLI and building its parser loads no
module of the package beyond `stratabench` and `stratabench.cli`; each
subcommand imports what it runs when it is first called.

Each check runs in a fresh interpreter, since this test process has
long since imported every module.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from stratabench import bidouble, cli

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_after(code: str) -> list:
    """The stratabench modules in sys.modules after `code` runs in a
    fresh interpreter."""
    probe = code + ("\nimport json, sys\nprint(json.dumps(sorted("
                    "m for m in sys.modules if m.split('.')[0] == 'stratabench')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_and_parser_load_only_the_cli():
    assert _loaded_after("import stratabench.cli\nstratabench.cli.build_parser()") == [
        "stratabench", "stratabench.cli"]


def test_catalog_loads_no_polynomials():
    loaded = _loaded_after(
        "import contextlib, io\nfrom stratabench import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.dispatch(['catalog']) == 0")
    assert "stratabench.fibration" in loaded and "stratabench.poly" not in loaded


def test_example_choices_are_the_named_examples():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    example = next(a for a in sub.choices["bidouble"]._actions if a.dest == "example")
    assert tuple(example.choices) == bidouble.EXAMPLE_NAMES
