"""The parameter tables match the signatures they name.

verifier.DOMAINS and cli._SHOW write parameter names as data, because
reading them by introspection would make every `qcongruence` start import
inspect, about 6-8 ms on a 27-30 ms import of the CLI. These tests read the
signatures instead, so a table that drifts from its function, or lists its
names in another order, fails here. A `lemmas` task needs no table: it
passes its check's keyword arguments, so a name that drifts raises
TypeError on the first call.
"""

import ast
import inspect

from qcongruence import cli, verifier


def _params(fn):
    return tuple(inspect.signature(fn).parameters)


def _require_calls():
    """verify_* name -> (claim, argument names) of its _require call."""
    tree = ast.parse(inspect.getsource(verifier))
    calls = {}
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef)
                and fn.name.startswith("verify_")):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_require"):
                claim, *args = node.args
                calls[fn.name] = (claim.value, tuple(a.id for a in args))
    return calls


def test_domain_names_lead_each_verifier_signature():
    calls = _require_calls()
    verifiers = {name for name in vars(verifier)
                 if name.startswith("verify_")}
    assert set(calls) == verifiers
    assert {claim for claim, _ in calls.values()} == set(verifier.DOMAINS)
    for name, (claim, args) in calls.items():
        names = verifier.DOMAINS[claim][0]
        assert args == names, (name, claim)
        assert _params(getattr(verifier, name))[:len(names)] == names, name


def test_show_flags_are_each_construct_signature():
    assert list(cli._SHOW) == ["phi", "lambda", "sset", "A", "B", "C", "N"]
    for obj, (construct, flags) in cli._SHOW.items():
        assert _params(construct) == flags, obj
