"""Commands and walks leave no library function in a reference cycle.

cli.main runs each command with CPython's cyclic garbage collector off, so
reference counting alone must free what a command makes.  The DAGs are
interned and acyclic.  What could still form a cycle is a recursive walk
written as a nested function: it refers to itself through its closure cell,
and so keeps itself and its memo alive until a collection runs, whether it
returns or raises.  No walk is written that way: each is a module-level
function that reaches itself through the module's globals and takes its memo
as an argument.  These tests collect with gc.DEBUG_SAVEALL, which keeps every
object found in a cycle in gc.garbage, and look there for the library's
functions; one more reads the source for nested functions that name
themselves, which covers walks no test reaches.
"""

import ast
import gc
from pathlib import Path
from types import FunctionType

import pytest

import treeharmonics
from treeharmonics import (
    InvariantError,
    LevelFunction,
    Value,
    aggregate_from_level,
    check_harmonic,
    level_add,
    level_values,
    linear_combination,
    p_metric,
    refine,
    restrict_to_level,
)
from treeharmonics import cli
from treeharmonics.cli import main
from treeharmonics.serialize import canonical_json, dag_to_doc
from treeharmonics.universality import _run_blocks


@pytest.fixture
def library_cycles():
    """A function that collects, then returns the names of the library
    functions the collector found in cycles since the last call.  The
    collector stays off in between, so no cycle is freed unseen."""
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.collect()

    def collect() -> list[str]:
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = sorted(
            f"{o.__module__}.{o.__qualname__}"
            for o in gc.garbage
            if isinstance(o, FunctionType) and (o.__module__ or "").startswith("treeharmonics")
        )
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()  # frees what was found, which gc.garbage kept alive
        return found

    try:
        yield collect
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


RUNS = [
    ["build", "--depth", "12"],
    ["witness-x", "--depth", "12"],
    ["witness-ufm", "--depth", "12", "--block-length", "5", "--targets", "1"],
    ["span-check", "--depth", "12", "--cases", "4"],
    ["dense-family", "--depth", "12", "--count", "3"],
    # the steady family's cycle needs five blocks of at least five levels
    ["double-genericity", "--depth", "25", "--block-length", "5"],
]


@pytest.mark.parametrize("argv", RUNS, ids=[argv[0] for argv in RUNS])
def test_command_leaves_no_library_function_in_a_cycle(tmp_path, library_cycles, argv):
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0
    assert library_cycles() == []


def test_certify_leaves_no_library_function_in_a_cycle(tmp_path, library_cycles):
    assert main(["witness-x", "--depth", "12", "--out", str(tmp_path / "w")]) == 0
    library_cycles()
    assert main(["certify", "--witness", str(tmp_path / "w" / "witness.json"), "--out", str(tmp_path / "c")]) == 0
    assert library_cycles() == []


# each recursive walk, called directly: two of them no command reaches
WALKS = {
    "level_values": lambda f, psi: level_values(f.tree, psi),
    "sector_zip": lambda f, psi: level_add(psi, psi),
    "_integral": lambda f, psi: p_metric(f.tree, psi, refine(f.tree, psi, 3)),
    "check_harmonic": lambda f, psi: check_harmonic(f),
    "aggregate_from_level": lambda f, psi: aggregate_from_level(f.tree, psi),
    "restrict_to_level": lambda f, psi: restrict_to_level(f, 3),
    "linear_combination": lambda f, psi: linear_combination((1, 2), (f, f)),
    "canonical_json": lambda f, psi: canonical_json({"rows": [["1"], ["2"]], "depth": 4}),
    "dag_to_doc": lambda f, psi: dag_to_doc(f.node),
    "_run_blocks": lambda f, psi: _run_blocks(f, [(3, 4, psi)]),
}


@pytest.mark.parametrize("walk", WALKS.values(), ids=WALKS.keys())
def test_walk_leaves_no_library_function_in_a_cycle(binary4, library_cycles, walk):
    psi = LevelFunction.from_values(binary4, 2, [Value.of(i) for i in range(4)])
    f = aggregate_from_level(binary4, psi)
    library_cycles()
    walk(f, psi)
    assert library_cycles() == []


def test_walk_that_raises_leaves_no_library_function_in_a_cycle(binary4, library_cycles):
    psi = LevelFunction.from_values(binary4, 2, [Value.of(i) for i in range(4)])
    f = aggregate_from_level(binary4, psi)
    shallow = LevelFunction(1, psi.dim, psi.node)  # claims level 1, splits down to level 2
    library_cycles()
    with pytest.raises(InvariantError, match="deeper than the approximation level"):
        _run_blocks(f, [(2, 3, shallow)])
    assert library_cycles() == []


def test_command_past_the_recursion_limit_leaves_no_library_function_in_a_cycle(tmp_path, capsys, library_cycles):
    # the walks recurse about once per level, so depth 1100 raises RecursionError in one of them
    assert main(["witness-ufm", "--depth", "1100", "--block-length", "10", "--out", str(tmp_path / "o")]) == 3
    assert "recursion limit exceeded" in capsys.readouterr().err
    assert library_cycles() == []


def test_no_nested_library_function_names_itself():
    """A nested function that loads its own name holds itself in a cycle
    through its closure cell."""
    found = []
    for path in sorted(Path(treeharmonics.__file__).parent.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                loads = {n.id for n in ast.walk(inner) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                if inner.name in loads:
                    found.append(f"{path.stem}.{outer.name}.{inner.name}")
    assert found == []


def _raise(cfg, out_dir):
    raise RuntimeError("forced failure")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["build", "--depth", "3"], 0),
        (["build", "--depth", "0"], 1),  # a bad config
        (["witness-ufm", "--depth", "1"], 2),  # no room for a block
        (["dense-family", "--depth", "3"], 3),  # the command raises, below
    ],
)
def test_main_turns_the_collector_off_and_restores_it(tmp_path, monkeypatch, enabled, argv, code):
    monkeypatch.setitem(cli.COMMANDS, "dense-family", _raise)
    during = []
    validate = cli.validate_config

    def spy(cfg):
        during.append(gc.isenabled())
        validate(cfg)

    monkeypatch.setattr(cli, "validate_config", spy)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main([*argv, "--out", str(tmp_path / "o")]) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False]
