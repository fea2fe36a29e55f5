"""The package's layering, read from the top-level imports of its source files."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fleetcontest"

#: The private names one module may import from another: (importer, source, name).
PRIVATE_CROSSINGS = {
    ("experiments", "interior", "_solve_stack"),
    ("experiments", "game", "_quiet"),
    ("interior", "game", "_quiet"),
    ("interior", "game", "_fleet_sum_miss"),
    ("interior", "game", "_joint_rows"),
    ("verify", "game", "_add"),
    ("verify", "game", "_divide"),
    ("verify", "game", "_floats"),
    ("verify", "game", "_payoff"),
    ("verify", "game", "_quiet"),
    ("verify", "game", "_require_feasible"),
    ("verify", "game", "_require_nonnegative"),
    ("cli", "config", "_fmt"),
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _imports(tree):
    """(source module, imported name) for each top-level import of a package
    module; a module imported whole gives the name None."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found += [(alias.name, None) for alias in node.names]
            elif node.level == 1 or (node.module or "").startswith("fleetcontest."):
                source = node.module.removeprefix("fleetcontest.").split(".")[0]
                found += [(source, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name.split(".")[1], None) for alias in node.names
                      if alias.name.startswith("fleetcontest.")]
    return found


def _graph():
    return {module: {source for source, _ in _imports(tree)} for module, tree in _trees().items()}


def test_the_imports_have_no_cycle():
    graph = _graph()
    done, path = set(), []

    def visit(module):
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError(f"import cycle: {' -> '.join(cycle)}")
        if module in done:
            return
        path.append(module)
        for source in sorted(graph.get(module, ())):
            visit(source)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_the_lower_layers_import_only_what_is_below_them():
    graph = _graph()
    assert graph["errors"] == set()
    assert graph["game"] == {"errors"}
    assert graph["result"] == {"errors", "game"}
    assert graph["_kernels"] == set()


def test_the_oracles_import_no_solver():
    """boundary and verify cross-check the solve, so neither is built on it."""
    graph = _graph()
    for oracle in ("boundary", "verify"):
        assert not graph[oracle] & {"interior", "experiments"}, oracle


def test_no_private_name_crosses_modules_but_the_listed_ones():
    crossings = {
        (module, source, name)
        for module, tree in _trees().items()
        for source, name in _imports(tree)
        if name is not None and name.startswith("_")
    }
    assert crossings <= PRIVATE_CROSSINGS


def test_only_game_reads_the_support_tolerance():
    """The support rule is game.empty_components; iterated_best_response's
    stopping tolerance is the one other reader."""
    readers = set()
    for module, tree in _trees().items():
        if module == "game":
            continue
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.alias) and node.name == "SUPPORT_RTOL":
                    readers.add((module, "import"))
                elif (isinstance(node, ast.Name) and node.id == "SUPPORT_RTOL"
                        or isinstance(node, ast.Attribute) and node.attr == "SUPPORT_RTOL"):
                    readers.add((module, getattr(top, "name", None)))
    assert readers <= {("verify", "import"), ("verify", "iterated_best_response")}


def test_only_game_reads_the_feasibility_tolerance():
    """The fleet-sum rule is game.fleet_sums_met, and the words of its
    failure are game._fleet_sum_miss; no other module reads FEASIBILITY_RTOL."""
    readers = {
        module
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.alias) and node.name == "FEASIBILITY_RTOL"
        or isinstance(node, ast.Name) and node.id == "FEASIBILITY_RTOL"
        or isinstance(node, ast.Attribute) and node.attr == "FEASIBILITY_RTOL"
    }
    assert readers == {"game"}


def test_interior_states_the_acceptance_rule_once():
    """A solved row is judged by interior._accepted (the stacked mask) and
    worded by interior._rejection; no other function of interior names the
    fleet-sum rule or the words of its miss."""
    rule = {"fleet_sums_met", "_fleet_sum_miss"}
    namers = {
        top.name
        for top in _trees()["interior"].body if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id in rule
        or isinstance(node, ast.Attribute) and node.attr in rule
    }
    assert namers == {"_accepted", "_rejection"}


def test_every_private_function_and_class_has_a_reader():
    """A private module-level function or class is named somewhere in the
    package outside its own definition. boundary._distinct_certified is the
    one exception: only the acceptance gate calls it."""
    trees = _trees()
    unread = set()
    for module, tree in trees.items():
        for top in tree.body:
            if not (isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name.startswith("_")
                    and not top.name.startswith("__")):
                continue
            readers = (
                node
                for other in trees.values()
                for outer in other.body if outer is not top
                for node in ast.walk(outer)
            )
            if not any(isinstance(node, ast.Name) and node.id == top.name
                       or isinstance(node, ast.Attribute) and node.attr == top.name
                       or isinstance(node, ast.alias) and node.name == top.name
                       for node in readers):
                unread.add((module, top.name))
    assert unread == {("boundary", "_distinct_certified")}
