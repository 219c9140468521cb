"""Every public name in the package occurs in the package outside its own definition.

A function, method or class that only tests reach is a second path no run
takes; it is either deleted or named here as a test probe.

Every dataclass field and every attribute an `__init__` sets is read
somewhere in the package; state that is only written is deleted.

Every `ScenarioConfig` field is read somewhere in the package outside the
config's own checks: a field that is only checked configures nothing.

Every random draw in the package takes a seeded `Random` handed in by the
caller: no OS entropy, no unseeded `Random`, no `rng` that may be left out.

Every refusal is ledgered by `Federation.refuse`: the ledger kind
`"authorization_failure"` is spelled nowhere else in the package.

The federation is the one state gate: only `federation.py` raises
`LockedError` or `StateError`.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "epitrace"

# Read-only views into a run that the pipeline never needs. Tests keep their own
# probes in tests/util.py; `presence` stays in the package because the benchmark
# tracer's pair-evaluation counter (perfbench/spans.py) reads it, and goes when
# that counter stops reading it.
TEST_PROBES = {"presence"}


def _is_cli_command(node: ast.AST) -> bool:
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else None
        if isinstance(func, ast.Attribute) and func.attr == "command" and isinstance(func.value, ast.Name) and func.value.id == "main":
            return True
    return False


def _code_names(text: str) -> list[tuple[int, str]]:
    """(line, name) of every name token; names in comments and strings are not tokens."""
    return [(tok.start[0], tok.string) for tok in tokenize.generate_tokens(io.StringIO(text).readline) if tok.type == tokenize.NAME]


def _unreferenced() -> set[str]:
    """Public module-level functions and classes, and their methods, named nowhere else in the package's code."""
    texts = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    names = {path: _code_names(text) for path, text in texts.items()}
    totals = Counter(name for tokens in names.values() for _line, name in tokens)
    unreferenced = set()
    for path, text in texts.items():
        for node in ast.parse(text, filename=str(path)).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for defn in [node, *members]:
                if not isinstance(defn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if defn.name.startswith("_") or _is_cli_command(defn):
                    continue
                own = sum(1 for line, name in names[path] if name == defn.name and defn.lineno <= line <= defn.end_lineno)
                if totals[defn.name] == own:
                    unreferenced.add(defn.name)
    return unreferenced


def test_every_public_name_occurs_outside_its_definition():
    dead = sorted(_unreferenced() - TEST_PROBES)
    assert dead == [], f"public names nothing in the package refers to: {dead}"


def test_every_test_probe_is_still_defined_and_unreferenced():
    assert _unreferenced() & TEST_PROBES == TEST_PROBES


# Dataclasses whose fields are read through `dataclasses.asdict`, which no attribute load shows.
READ_BY_ASDICT = {"RunReport"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(func, ast.Name) and func.id == "dataclass":
            return True
    return False


def _unread_fields(trees: list[ast.AST]) -> set[str]:
    """`Class.field` of every dataclass field and `__init__` attribute whose name no attribute load in `trees` reads.

    Name-based, like `_unreferenced`: a field passes once any attribute of its
    name is read anywhere, so a field named like an attribute read elsewhere
    goes unseen. An unread `size` field would pass, because the package reads
    `struct.Struct.size`.
    """
    loaded = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = set()
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name in READ_BY_ASDICT:
                continue
            fields = [stmt.target for stmt in cls.body if isinstance(stmt, ast.AnnAssign)] if _is_dataclass(cls) else []
            names = [target.id for target in fields if isinstance(target, ast.Name)]
            for init in (stmt for stmt in cls.body if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"):
                for node in ast.walk(init):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
                    names += [t.attr for t in targets if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self"]
            unread |= {f"{cls.name}.{name}" for name in names if name not in loaded}
    return unread


def test_every_field_is_read():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    assert sorted(_unread_fields(trees)) == []


def test_unread_field_guard_sees_each_form():
    text = """
@dataclass(frozen=True)
class Stored:
    kept: int
    dropped: int

@dataclass
class RunReport:
    hidden: int

class Plain:
    shown: int
    def __init__(self, a):
        self.held = a
        self._private: int = a
        self.kept = a
    def use(self):
        return self.kept + self._private
"""
    assert _unread_fields([ast.parse(text)]) == {"Stored.dropped", "Plain.held"}


# ScenarioConfig fields that only the config's own checks read, each with its reason.
# `f` is the declared Byzantine bound: it bounds the quorums and the authority
# count, and the federation acts on the quorums alone.
CHECKED_ONLY = {"f"}


def _config_fields_read_only_by_checks(trees: list[ast.AST]) -> set[str]:
    """`ScenarioConfig` fields whose name no attribute load outside `ScenarioConfig.__post_init__` reads.

    Name-based, like `_unread_fields`: a read of any attribute of the field's
    name counts, including one in another of the config's own methods.
    """
    configs = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == "ScenarioConfig"]
    fields = {stmt.target.id for cls in configs for stmt in cls.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    checks = [stmt for cls in configs for stmt in cls.body if isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__"]
    in_checks = {id(node) for check in checks for node in ast.walk(check)}
    loaded = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in in_checks
    }
    return fields - loaded


def test_every_config_field_is_read_outside_its_checks():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    assert _config_fields_read_only_by_checks(trees) == CHECKED_ONLY


def test_config_field_guard_sees_each_form():
    text = """
@dataclass(frozen=True)
class ScenarioConfig:
    used: int
    derived: int
    checked: int
    written: int
    def __post_init__(self):
        if self.checked < self.used:
            raise ConfigurationError("checked")
    @property
    def twice(self):
        return 2 * self.derived

def build(config):
    config.written = 1
    return config.used
"""
    assert _config_fields_read_only_by_checks([ast.parse(text)]) == {"checked", "written"}


def _unseeded_randomness(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of every draw in `tree` that would not come from the scenario seed."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "imports secrets") for alias in node.names if alias.name == "secrets"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "secrets":
                found.append((node.lineno, "imports secrets"))
            elif node.module == "os" and any(alias.name == "urandom" for alias in node.names):
                found.append((node.lineno, "imports os.urandom"))
        elif isinstance(node, ast.Attribute) and node.attr == "urandom" and isinstance(node.value, ast.Name) and node.value.id == "os":
            found.append((node.lineno, "calls os.urandom"))
        elif isinstance(node, ast.Call) and not node.args and not node.keywords:
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "Random") or (isinstance(func, ast.Attribute) and func.attr == "Random"):
                found.append((node.lineno, "builds Random() with no seed"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            found += [(node.lineno, f"{node.name} gives rng a default") for arg in defaulted if arg.arg == "rng"]
    return sorted(found)


def test_every_draw_takes_the_callers_seeded_random():
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(SRC.glob("*.py"))
        for line, what in _unseeded_randomness(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_unseeded_randomness_guard_sees_each_form():
    text = """
import secrets
from os import urandom
import os, random
os.urandom(4)
random.Random()
Random()
Random(7)
def f(x, rng=None): pass
def g(*, rng=None): pass
def h(rng): pass
"""
    assert [what for _line, what in _unseeded_randomness(ast.parse(text))] == [
        "imports secrets",
        "imports os.urandom",
        "calls os.urandom",
        "builds Random() with no seed",
        "builds Random() with no seed",
        "f gives rng a default",
        "g gives rng a default",
    ]


def _literal_scopes(tree: ast.AST, literal: str) -> list[str]:
    """The dotted name of the innermost class or function around each string constant equal to `literal`; "" at module level."""
    scopes = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Constant) and child.value == literal:
                scopes.append(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(tree, "")
    return scopes


def test_only_refuse_writes_a_refusal():
    scopes = [
        f"{path.name}:{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope in _literal_scopes(ast.parse(path.read_text(), filename=str(path)), "authorization_failure")
    ]
    assert scopes == ["federation.py:Federation.refuse"]


def test_refusal_literal_guard_sees_each_form():
    text = '''
KIND = "authorization_failure"
class Federation:
    def refuse(self, reason):
        self.ledger.record("authorization_failure", reason=reason)
    def admit(self):
        def inner():
            return {"kind": "authorization_failure"}
class Edge:
    def refuse(self):
        """Ledgers an `authorization_failure`."""
        return f"authorization_failure {self}", "authorization_failure"
'''
    assert _literal_scopes(ast.parse(text), "authorization_failure") == ["", "Federation.refuse", "Federation.admit.inner", "Edge.refuse"]


STATE_ERRORS = {"LockedError", "StateError"}


def _raises(tree: ast.AST, names: set[str]) -> list[tuple[int, str]]:
    """(line, name) of every `raise` in `tree` of an exception named in `names`, called or not, bare or as a module attribute."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else exc.attr if isinstance(exc, ast.Attribute) else None
        if name in names:
            found.append((node.lineno, name))
    return found


def test_only_the_federation_raises_a_state_error():
    """The federation is the one state gate: no other module decides that the system is PASSIVE, or already in a state."""
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "federation.py"
        for line, name in _raises(ast.parse(path.read_text(), filename=str(path)), STATE_ERRORS)
    ]
    assert found == []


def test_state_error_guard_sees_each_form():
    text = """
raise LockedError("edge is locked")
raise StateError
raise errors.LockedError()
raise ValueError("x")
try:
    pass
except StateError:
    raise
"""
    assert _raises(ast.parse(text), STATE_ERRORS) == [(2, "LockedError"), (3, "StateError"), (4, "LockedError")]
