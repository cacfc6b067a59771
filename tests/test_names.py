"""Every public function and class of the package has a caller in it."""
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
}


def _names_used(tree, outside) -> set[str]:
    """Names and attribute names used in ``tree``, except inside ``outside``."""
    skip = {id(n) for n in ast.walk(outside)} if outside is not None else set()
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in skip}


def test_every_public_name_has_a_caller_in_the_package():
    # __init__.py only re-exports: an export is no caller
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"]
    uncalled = set()
    for tree in trees:
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not any(node.name in _names_used(t, node if t is tree else None)
                                for t in trees)):
                uncalled.add(node.name)
    assert uncalled == UNCALLED
