"""Every public function, class, method and property of the package has a
caller in it."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sliceq"

# public names that nothing in the package calls, each kept for its reason
UNCALLED = {
    # the Monte-Carlo oracle of the single-queue analytics: the tests and the
    # benchmark's analytic workload check impatient_pmf against its runs
    "isolated_queue_sim",
    # the paper's tenant analysis: the chance that a tenant with a random
    # lifetime joins at a given queue length; no command reports it yet
    "balking_chance",
    # a run's own balance check (every arrival is balked, cap-rejected,
    # reneged, accepted or still waiting): the tests and the benchmark's
    # run checks call it on every run they make
    "RunMetrics.conservation_ok",
}


def _names_used(tree, outside) -> set[str]:
    """Names and attribute names used in ``tree``, except inside ``outside``."""
    skip = {id(n) for n in ast.walk(outside)} if outside is not None else set()
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in skip}


def _public_definitions(tree):
    """(qualified name, node) of the module's public functions and classes,
    and of the public methods and properties of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def test_every_public_name_has_a_caller_in_the_package():
    # __init__.py only re-exports: an export is no caller. A definition does
    # not call itself, and a name used anywhere counts for every definition
    # that bears it.
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"]
    uncalled = set()
    for tree in trees:
        for qualified, node in _public_definitions(tree):
            if not any(node.name in _names_used(t, node if t is tree else None)
                       for t in trees):
                uncalled.add(qualified)
    assert uncalled == UNCALLED
