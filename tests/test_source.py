"""Checks over the package's own source files and the test configuration."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import biscount

SOURCES = sorted(Path(biscount.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every identity the package
    # relies on must be an explicit check that raises
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1
    assert found == []


def test_only_graphs_reaches_into_the_graph_memo():
    # every per-graph object is kept through BipartiteGraph.memo, so one
    # module decides what the memo holds and how
    tests = sorted(Path(__file__).parent.glob("*.py"))
    found = sorted({
        path.name
        for path in SOURCES + tests
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "_cache"
    })
    assert found == ["graphs.py"]


# per-call overrides of a capacity limit: each limit is one module constant
BUDGET_PARAMETERS = {
    "max_polymers", "max_configs", "max_families", "table_cap", "size_limit",
    "max_candidates", "max_attempts",
}


def public_callables():
    """(name, callable) for every public callable the package exports or a
    package module defines, and every public method of such a class."""
    modules = [importlib.import_module(f"biscount.{path.stem}") for path in SOURCES]
    for owner in [biscount, *modules]:
        for name, obj in vars(owner).items():
            if name.startswith("_") or not callable(obj):
                continue
            if not getattr(obj, "__module__", "").startswith("biscount."):
                continue
            yield name, obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{name}.{attr}", member


def public_parameters() -> dict[str, set[str]]:
    """The parameter names of each public callable that has a signature."""
    found = {}
    for name, obj in public_callables():
        try:
            found[name] = set(inspect.signature(obj).parameters)
        except ValueError:  # a builtin without a signature, such as an exception class
            continue
    return found


def test_no_public_signature_takes_a_budget():
    found = public_parameters()
    assert "enumerate_polymers" in found and "ExactSampler" in found
    assert sorted(name for name, params in found.items() if params & BUDGET_PARAMETERS) == []
    # size_cap is the size a walk truncates at, an input rather than a budget
    assert sorted({name for name, params in found.items() if "size_cap" in params}) == [
        "enumerate_polymers", "two_linked_sets",
    ]


def test_samplers_take_no_float_route_or_family_override():
    # the samplers draw through exact partition-function ratios alone, and
    # the polymer family follows from the fugacity
    found = public_parameters()
    samplers = {"sample_expander", "sample_hardcore_expander", "sampler_tables", "exact_mu_hat"}
    assert samplers <= set(found)
    assert sorted(name for name, params in found.items() if "use_exact_xi" in params) == []
    assert "membership" not in found["sampler_tables"] | found["exact_mu_hat"]


# the anchored reconstruction route, kept in tests/util.py as a witness
WITNESSES = {
    "is_essential_subset", "essential_size_cap", "enumerate_essential_candidates",
    "enumerate_expanding", "enumerate_nonexpanding_closed", "CANDIDATE_BUDGET",
}


def test_one_container_route_in_the_package():
    # the container layer is the X-side route count_general runs: a Y-side
    # sum is the X-side sum of the mirrored graph, and the 2-linked walk is
    # min-rooted only
    found = public_parameters()
    route = {
        name: found[name]
        for name, obj in public_callables()
        if obj.__module__ in ("biscount.containers", "biscount.general_count")
        and name in found
    }
    assert {"count_general", "assemble_exact", "distinct_nonexpanding_closed"} <= set(route)
    assert sorted(name for name, params in route.items() if "side" in params) == []
    assert "root" not in found["two_linked_sets"]
    containers = importlib.import_module("biscount.containers")
    assert sorted(WITNESSES & (set(vars(biscount)) | set(vars(containers)))) == []


def names_in(func) -> set[str]:
    """Every name, attribute and import alias in ``func``'s source."""
    return names_under(ast.parse(inspect.getsource(func)))


def names_under(tree: ast.AST) -> set[str]:
    """Every name, attribute and import alias under ``tree``."""
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {
        alias.name for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
    }
    return named


def test_counts_read_d_from_the_pool_walk_alone():
    # count_general and assemble_exact take every D through the region fold,
    # which reads the counted pool walk; the sampled route and its generator
    # pairs stay out of all three
    general_count = importlib.import_module("biscount.general_count")
    banned = {"estimate_D", "_d_draws", "small_generator", "numpy"}
    for func in (general_count.count_general, general_count.assemble_exact):
        named = names_in(func)
        assert "_region_weights" in named
        assert sorted(named & banned) == []
    named = names_in(general_count._region_weights)
    assert {"pool_multiplicities", "_families_over"} <= named
    assert sorted(named & banned) == []


def test_one_configuration_listing_in_the_package():
    # the sampler tables and the family listing share polymers'
    # explicit-stack walk over clash masks from incompatibility_masks; the
    # recursive listing is the tests' reference and no package module
    # defines it
    defined = sorted(
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "iter_compatible_configs"
    )
    assert defined == []
    general_count = importlib.import_module("biscount.general_count")
    expander = importlib.import_module("biscount.expander")
    assert {"incompatibility_masks", "compatible_configs"} <= names_in(general_count._families_over)
    assert "compatible_configs" in names_in(expander._build_side_table)


def test_samplers_share_one_draw_loop():
    # table and sequential mode differ only in how a configuration is drawn:
    # one function loops over the samples reading the generator, and the
    # sampler entry point computes no free side and no threshold of its own
    expander = importlib.import_module("biscount.expander")
    path = Path(expander.__file__)
    loops = sorted(
        node.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(loop, ast.For) and "samples" in ast.unparse(loop.iter)
            for loop in ast.walk(node)
        )
        and "getrandbits" in names_under(node)
    )
    assert len(loops) == 1, loops
    assert sorted(names_in(expander._sample_run) & {"neighborhood_bits", "quantize"}) == []


def test_package_keeps_no_per_family_api():
    # the counts read families only through the region fold; the per-family
    # types and walks the tests compare it with live in tests/util.py
    per_family = ("NonExpandingFamily", "enumerate_families", "family_region")
    found = sorted(
        f"{path.name}:{name}"
        for path in SOURCES
        for name in per_family
        if name in path.read_text(encoding="utf-8")
    )
    assert found == []


def test_failing_hypothesis_test_reports_as_a_failure(tmp_path):
    # the configured warning filters make warnings errors; a failing @given
    # test must still end as an ordinary failure (exit code 1) that shows its
    # falsifying example, not as an INTERNALERROR raised while the
    # hypothesis plugin builds the report
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(max_examples=5, derandomize=True, database=None)\n"
        "@given(st.integers(0, 10))\n"
        "def test_fails(x):\n"
        "    assert x < 0\n",
        encoding="utf-8",
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example: test_fails(" in proc.stdout
    assert "INTERNALERROR" not in output
