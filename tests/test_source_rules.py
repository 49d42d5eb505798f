"""Rules the library source keeps."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import dacscanon
from dacscanon.ratmat import RatMatrix

SRC = Path(dacscanon.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so a check written as one would
    # silently stop running; proof obligations raise InternalInvariantViolation
    offenders = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), "no library source found"
    assert not offenders, "assert statements in the library: %s" % offenders


def _loaded_names(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unread_names(path):
    """Imports the module never reads and function-local names bound but
    never read inside their function (names starting with `_` exempt)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    read = _loaded_names(tree) | _exported_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    found.append("%s:%d import %s" % (path.name, node.lineno, name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local_read = _loaded_names(node)
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Store)
                    and not sub.id.startswith("_")
                    and sub.id not in local_read
                ):
                    found.append("%s:%d %s() local %s" % (path.name, sub.lineno, node.name, sub.id))
    return found


def test_no_unread_imports_or_locals_in_library():
    # an import or a local nothing reads is dead code, usually left behind
    # by a refactor or by tuple unpacking
    offenders = [f for path in sorted(SRC.glob("*.py")) for f in _unread_names(path)]
    assert not offenders, "names bound but never read: %s" % offenders


def _unread_loop_targets(path):
    """`for` statements whose target names (`_`-names exempt) are never
    read in the loop's own body."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            read = set().union(*(_loaded_names(stmt) for stmt in node.body))
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name) and not sub.id.startswith("_") and sub.id not in read:
                    found.append("%s:%d loop target %s" % (path.name, node.lineno, sub.id))
    return found


def test_no_unread_loop_targets_in_library():
    # a loop variable its body never reads is dead: loop over the values
    # actually used (the function-wide unread-locals rule misses a name
    # that another loop of the same function reads)
    offenders = [f for path in sorted(SRC.glob("*.py")) for f in _unread_loop_targets(path)]
    assert not offenders, "loop targets never read in their loop: %s" % offenders


def _read_counts(tree):
    """How often each name is read under tree, as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def _dead_private_definitions(paths):
    """Module-level `_`-prefixed functions and classes that no module reads;
    a read inside the definition itself, as in recursion, does not count."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}
    reads = sum((_read_counts(tree) for tree in trees.values()), Counter())
    return [
        "%s:%d %s" % (name, node.lineno, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and reads[node.name] == _read_counts(node)[node.name]
    ]


def test_no_dead_private_helpers_in_library():
    # a private helper is reachable only through the library itself, so one
    # that no module reads is dead code a refactor left behind
    offenders = _dead_private_definitions(sorted(SRC.glob("*.py")))
    assert not offenders, "private definitions nothing reads: %s" % offenders


def test_chain_selectors_read_only_where_the_layout_is_written():
    # the canonical block layout is written once, in canonical.emcf_system;
    # every other pattern is derived from it, so outside _chains the chain
    # selectors are read nowhere else
    selectors = ("_tail_selectors", "_head_selectors")
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_chains.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        allowed = Counter()
        if path.name == "canonical.py":
            layout = [n for n in tree.body if getattr(n, "name", None) == "emcf_system"]
            assert layout, "canonical.emcf_system is gone"
            allowed = _read_counts(layout[0])
        reads = _read_counts(tree)
        offenders += ["%s %s" % (path.name, f) for f in selectors if reads[f] > allowed[f]]
    assert not offenders, "chain selectors read outside emcf_system: %s" % offenders


def test_matrix_storage_is_private_to_ratmat():
    # only ratmat reads RatMatrix's private storage, so the representation
    # can change without touching any other module
    private = {name for name in RatMatrix.__slots__ if name.startswith("_")}
    assert private, "RatMatrix has no private slots"
    offenders = [
        "%s:%d .%s" % (path.name, node.lineno, node.attr)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "ratmat.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert not offenders, "RatMatrix storage read outside ratmat: %s" % offenders


def test_no_instance_dict_access_in_library():
    # the library's value types are frozen dataclasses; writing into an
    # instance's __dict__ hides state from ==, hash, repr and replace, so
    # nothing may travel with a value that its fields do not show
    offenders = [
        "%s:%d" % (path.name, lineno)
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "__dict__" in line
    ]
    assert not offenders, "__dict__ in the library: %s" % offenders


def test_benchmark_span_table_matches_library():
    # perfbench/spans.py names library functions by module and attribute;
    # installing its recorder fails when one of them was renamed or deleted
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Recorder())"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
