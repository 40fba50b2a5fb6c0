"""One `Checker` per run: no stage of the package defaults its `checker`.

A report's `assertion_counts` are the counts of the one checker that
`run_pipeline` makes.  A stage whose `checker` had a default would count
into a fresh checker whenever a caller left it out, and those checks would
drop out of the report with no error.  So every `checker` parameter of
every function, method and lambda in `atsp_approx` must be required.
"""

from __future__ import annotations

import ast
import importlib.util
import pkgutil

import atsp_approx


def _checker_parameters():
    """(module, line, function, has a default) for every parameter named
    checker in the package's source."""
    for info in pkgutil.walk_packages(atsp_approx.__path__, "atsp_approx."):
        origin = importlib.util.find_spec(info.name).origin
        with open(origin, encoding="utf-8") as src:
            tree = ast.parse(src.read(), origin)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            with_default = {a.arg for a in defaulted} | {
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
            for a in positional + args.kwonlyargs:
                if a.arg == "checker":
                    yield (info.name, node.lineno, getattr(node, "name", "<lambda>"),
                           a.arg in with_default)


def test_no_checker_parameter_has_a_default():
    found = list(_checker_parameters())
    # the walk reaches the stages: every module that checks takes a checker
    assert {m for m, *_ in found} >= {
        "atsp_approx.cover", "atsp_approx.instance", "atsp_approx.lp",
        "atsp_approx.pair", "atsp_approx.svensson", "atsp_approx.vertebrate"}
    assert [(m, line, name) for m, line, name, default in found if default] == []
