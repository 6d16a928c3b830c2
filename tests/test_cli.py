import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treeharmonics.cli import main
from treeharmonics.serialize import witness_from_doc
from treeharmonics import certify_hits


def read(path):
    return path.read_text(encoding="utf-8")


def test_build_writes_tree_and_report(tmp_path):
    out = tmp_path / "o"
    code = main(["build", "--depth", "4", "--out", str(out)])
    assert code == 0
    tree_doc = json.loads(read(out / "tree.json"))
    assert tree_doc["schema"] == "tree/1"
    assert tree_doc["depth"] == 4
    report = json.loads(read(out / "report.json"))
    assert report["schema"] == "report/1"
    assert report["command"] == "build"
    assert "config_hash" in report


def test_cli_import_leaves_dataclasses_unloaded():
    # the records are NamedTuples: importing dataclasses (and the inspect, ast
    # and dis it pulls in) and generating its methods cost each command's start-up
    import treeharmonics

    root = str(Path(treeharmonics.__file__).resolve().parent.parent)
    probe = "import sys, treeharmonics.cli; print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": root}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_invalid_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "tree": {
                    "depth": 2,
                    "branching": {"kind": "uniform", "arity": 3},
                    "q_rule": {"kind": "per_level", "rows": [["1/3", "1/3", "1/4"], ["1/3", "1/3", "1/3"]]},
                },
                "out": str(tmp_path / "o"),
            }
        )
    )
    code = main(["build", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    doc = json.loads(err)
    assert doc["errors"]


def test_float_mode_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "float", "tree": {"depth": 4}}))
    code = main(["build", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    errors = json.loads(capsys.readouterr().err)["errors"]
    assert any("'float'" in e for e in errors)
    assert not (tmp_path / "o").exists()


def test_too_deeply_nested_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["build", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["errors"]


@pytest.mark.parametrize("command,flag,what", [("build", "--config", "config"), ("certify", "--witness", "witness")])
@pytest.mark.parametrize(
    "content",
    [b'{"seed": 1\xff}', b'{"seed": ' + b"1" * 5000 + b"}"],
    ids=["not-utf8", "int-past-digit-limit"],
)
def test_unreadable_json_file_exits_one(tmp_path, capsys, command, flag, what, content):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    code = main([command, flag, str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    [error] = json.loads(capsys.readouterr().err)["errors"]
    assert error.startswith(f"cannot read {what}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "config,issue",
    [
        ({"tree": 5}, "tree must be an object"),
        ({"targets": []}, "targets must be an object"),
        ({"tree": {"depth": 3, "q_rule": 5}}, "tree.q_rule must be an object"),
        ({"tree": {"depth": 3, "branching": "x"}}, "tree.branching must be an object"),
        ([1], "the config must be a JSON object"),
        ({"tree": {"branching": {"kind": "per_level", "arities": 5}}}, "branching 'arities' must be a list, got 5"),
        (
            {"tree": {"branching": {"kind": "random", "max_arity": 3}, "q_rule": {"kind": "explicit", "rows": 5}}},
            "q_rule 'rows' must be a list, got 5",
        ),
        ({"tree": {"w_rule": {"kind": "per_level", "rows": 5}}}, "w_rule 'rows' must be a list, got 5"),
    ],
    ids=["tree", "targets", "q_rule", "branching", "not-an-object", "arities-int", "explicit-rows-int", "per-level-rows-int"],
)
def test_malformed_config_section_exits_one(tmp_path, capsys, config, issue):
    # --depth must not write into a section that is not an object
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["build", "--config", str(cfg), "--depth", "3", "--out", str(tmp_path / "o")])
    assert code == 1
    assert issue in json.loads(capsys.readouterr().err)["errors"]


@pytest.mark.parametrize(
    "rule,issue",
    [
        ("q_rule", "level 0 vertex 0: q row must be a list, got 5"),
        ("w_rule", "level 0 vertex 0: w row must be a list, got 5"),
    ],
    ids=["q", "w"],
)
def test_explicit_row_not_a_list_exits_one(tmp_path, capsys, rule, issue):
    tree = {"depth": 1, "branching": {"kind": "random", "max_arity": 2}, rule: {"kind": "explicit", "rows": [[5]]}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tree": tree}), encoding="utf-8")
    code = main(["build", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["errors"] == [issue]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv,files,code,issue",
    [
        (
            ["witness-ufm", "--depth", "40", "--block-length", "10"], {}, 2,
            "horizon 40 holds 4 blocks; need two full cycles (6 blocks) of length 10",
        ),
        (
            ["double-genericity", "--depth", "40", "--block-length", "10"], {}, 2,
            "horizon 40 holds 4 blocks; the 4-block cycle must restart at least once",
        ),
        (["witness-x", "--width", "2"], {}, 1, "tuple width 2 below target count 3"),
        (["build", "--config", "cfg.json"], {"cfg.json": {"tree": {"branching": {"kind": "banana"}}}}, 1, "unknown branching kind 'banana'"),
        (["build", "--config", "cfg.json"], {"cfg.json": {"tree": {"q_rule": {"kind": "banana"}}}}, 1, "unknown q_rule kind 'banana'"),
        (
            ["build", "--config", "cfg.json"], {"cfg.json": {"tree": {"branching": {"kind": "per_level", "arities": [2, 2]}}}}, 1,
            "per_level branching must list one arity per level",
        ),
        (
            ["build", "--depth", "2", "--config", "cfg.json"], {"cfg.json": {"tree": {"q_rule": {"kind": "per_level", "rows": [["1/2", "1/2"]]}}}}, 1,
            "per_level q rule must list one row per level",
        ),
        (
            ["build", "--depth", "2", "--config", "cfg.json"], {"cfg.json": {"tree": {"q_rule": {"kind": "per_level", "rows": [["1/2", "1/2"], ["1"]]}}}}, 1,
            "q row at level 1 has 1 entries, expected 2",
        ),
        (
            ["build", "--depth", "22", "--config", "cfg.json"], {"cfg.json": {"tree": {"q_rule": {"kind": "random"}}}}, 1,
            "tree exceeds 4000000 vertices; use level-uniform rules for deep trees",
        ),
        (["certify", "--witness", "w.json"], {"w.json": {"schema": "witness/1", "tree": {"schema": "tree/2"}}}, 1, "unsupported tree schema 'tree/2'"),
        # 513^3 and 2 * 10^7 + 1 grid points, before any is built
        (
            ["witness-x", "--depth", "12", "--dim", "3", "--resolution", "8"], {}, 1,
            "a dense grid of dim 3, resolution 8 and bound 1 has more than 1048576 points",
        ),
        (
            ["witness-x", "--depth", "12", "--bound", "10000000"], {}, 1,
            "a dense grid of dim 1, resolution 0 and bound 10000000 has more than 1048576 points",
        ),
    ],
    ids=[
        "ufm-one-cycle", "double-genericity-no-restart", "x-narrow-width", "branching-kind", "q-rule-kind",
        "per-level-arities", "per-level-row-count", "per-level-row-length", "explicit-too-large", "tree-schema",
        "grid-resolution", "grid-bound",
    ],
)
def test_rejected_input_exits_with_its_error(tmp_path, capsys, argv, files, code, issue):
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == code
    assert json.loads(capsys.readouterr().err) == {"errors": [issue]}
    assert not (tmp_path / "o").exists()


def test_deeply_nested_unknown_key_is_ignored(tmp_path):
    nested: dict = {}
    for _ in range(600):
        nested = {"a": nested}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"unknown": nested}))
    out = tmp_path / "o"
    assert main(["build", "--config", str(cfg), "--depth", "3", "--out", str(out)]) == 0
    assert json.loads(read(out / "tree.json"))["depth"] == 3


@pytest.mark.parametrize(
    "argv",
    [["build", "--depth", "abc"], ["certify"]],
    ids=["bad-int", "missing-witness-flag"],
)
def test_command_line_error_exits_one(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err)["errors"]
    assert "usage" not in captured.err
    assert not (tmp_path / "o").exists()


def test_bad_flag_value_exits_one(tmp_path, capsys):
    code = main(["witness-x", "--depth", "0", "--out", str(tmp_path / "o")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["errors"]


def test_infeasible_schedule_exits_two(tmp_path, capsys):
    code = main(
        ["witness-ufm", "--depth", "60", "--block-length", "3", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err)["errors"]


def test_short_block_length_names_the_block_and_its_epsilon(tmp_path, capsys):
    code = main(["witness-ufm", "--depth", "60", "--block-length", "3", "--out", str(tmp_path / "o")])
    assert code == 2
    assert json.loads(capsys.readouterr().err) == {
        "errors": ["block of length 3 cannot reach epsilon 1/8; needs at least 5 levels"]
    }


def test_witness_x_end_to_end(tmp_path):
    out = tmp_path / "o"
    code = main(["witness-x", "--depth", "40", "--horizon", "40", "--out", str(out)])
    assert code == 0
    report = json.loads(read(out / "report.json"))
    assert report["hits"]["all_pass"] is True
    assert len(report["hits"]["entries"]) == 3
    for i in (1, 2, 3):
        assert (out / f"density_t{i}.csv").exists()
    # the saved witness re-certifies to the same hit sets
    witness = witness_from_doc(json.loads(read(out / "witness.json")))
    rerun = certify_hits(witness)
    for entry, doc_entry in zip(rerun.entries, report["hits"]["entries"]):
        assert list(entry.hits) == doc_entry["hits"]


def test_witness_roundtrip_writes_exact_mode(tmp_path):
    out = tmp_path / "o"
    assert main(["witness-ufm", "--depth", "30", "--block-length", "5", "--out", str(out)]) == 0
    doc = json.loads(read(out / "witness.json"))
    assert doc["tree"]["mode"] == "exact"
    assert json.loads(read(out / "report.json"))["tree"]["mode"] == "exact"
    out2 = tmp_path / "c"
    assert main(["certify", "--witness", str(out / "witness.json"), "--out", str(out2)]) == 0
    assert json.loads(read(out2 / "report.json"))["tree"]["mode"] == "exact"


def test_certify_roundtrip(tmp_path):
    out = tmp_path / "o"
    assert main(["witness-ufm", "--depth", "60", "--out", str(out)]) == 0
    out2 = tmp_path / "c"
    code = main(["certify", "--witness", str(out / "witness.json"), "--out", str(out2)])
    assert code == 0
    original = json.loads(read(out / "report.json"))["hits"]
    again = json.loads(read(out2 / "report.json"))["hits"]
    assert original == again


def test_certify_missing_witness_exits_one(tmp_path, capsys):
    code = main(["certify", "--witness", str(tmp_path / "absent.json"), "--out", str(tmp_path / "c")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["errors"]


def test_certify_witness_without_schedule_exits_one(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["witness-ufm", "--depth", "30", "--block-length", "5", "--out", str(out)]) == 0
    doc = json.loads(read(out / "witness.json"))
    del doc["schedule"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["certify", "--witness", str(broken), "--out", str(tmp_path / "c")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["errors"] == ["witness document lacks the key 'schedule'"]


@pytest.mark.parametrize(
    "argv,components,issue",
    [
        (["witness-x", "--depth", "20"], [9, 1, 2], "target_components entry 9 outside the components 1..3"),
        (["witness-x", "--depth", "20"], [0, 1, 2], "target_components entry 0 outside the components 1..3"),
        (["witness-x", "--depth", "20"], [1, 2], "target_components lists 2 entries for 3 targets"),
        (["witness-ufm", "--depth", "30", "--block-length", "5"], [1, 2, 1], "target_components entry 2 outside the components 1..1"),
    ],
    ids=["above-width", "zero", "too-short", "single-function"],
)
def test_certify_bad_target_components_exits_one(tmp_path, capsys, argv, components, issue):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 0
    doc = json.loads(read(out / "witness.json"))
    doc["target_components"] = components
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    code = main(["certify", "--witness", str(broken), "--out", str(tmp_path / "c")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["errors"] == [issue]
    assert not (tmp_path / "c").exists()


def _certify_edited_ufm_witness(tmp_path, capsys, edit):
    """certify a witness-ufm witness after edit(doc); return its exit code and errors."""
    out = tmp_path / "o"
    assert main(["witness-ufm", "--depth", "30", "--block-length", "5", "--out", str(out)]) == 0
    doc = json.loads(read(out / "witness.json"))
    edit(doc)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    code = main(["certify", "--witness", str(broken), "--out", str(tmp_path / "c")])
    assert not (tmp_path / "c").exists()
    return code, json.loads(capsys.readouterr().err)["errors"]


def test_certify_split_with_wrong_child_count_exits_one(tmp_path, capsys):
    def double_first_split(doc):
        split = next(nd for nd in doc["components"][0]["nodes"] if nd["c"] is not None)
        split["c"] = split["c"] * 2

    code, errors = _certify_edited_ufm_witness(tmp_path, capsys, double_first_split)
    assert code == 1
    assert errors == ["structure has 4 children where the tree has 2"]


def test_certify_unknown_witness_kind_exits_one(tmp_path, capsys):
    code, errors = _certify_edited_ufm_witness(tmp_path, capsys, lambda doc: doc.update(kind="banana"))
    assert code == 1
    assert len(errors) == 1 and "'banana'" in errors[0]


def test_certify_target_in_dag_form_exits_one(tmp_path, capsys):
    def dag_form(doc):
        # the removed form: a postorder node list whose splits carry "v": null
        # (binary tree, nothing shared); targets are written as "values" only
        level_doc = doc["targets"][-1]["level_function"]
        nodes = [{"v": v, "c": None} for v in level_doc.pop("values")]
        ids = list(range(len(nodes)))
        while len(ids) > 1:
            for a, b in zip(ids[::2], ids[1::2]):
                nodes.append({"v": None, "c": [a, b]})
            ids = list(range(len(nodes) - len(ids) // 2, len(nodes)))
        level_doc["dag"] = {"nodes": nodes, "root": ids[0]}

    code, errors = _certify_edited_ufm_witness(tmp_path, capsys, dag_form)
    assert code == 1
    assert errors == ["witness document lacks the key 'values'"]


@pytest.mark.parametrize(
    "command,config,issue",
    [
        ("witness-x", {"targets": {"resolution": "x"}}, "targets.resolution must be an integer of at least 0, got 'x'"),
        ("witness-x", {"targets": {"bound": None}}, "targets.bound must be an integer of at least 1, got None"),
        ("witness-x", {"width": "3"}, "width must be an integer of at least 1 or null, got '3'"),
        ("witness-x", {"warmup": "2"}, "warmup must be an integer of at least 0 or null, got '2'"),
        ("span-check", {"cases": None}, "cases must be an integer of at least 0, got None"),
        ("dense-family", {"count": "4"}, "count must be an integer of at least 1, got '4'"),
        ("build", {"seed": None}, "seed must be an integer, got None"),
        ("build", {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("witness-x", {"seed": False}, "seed must be an integer, got False"),
        ("build", {"tree": {"depth": True}}, "tree.depth must be an integer of at least 1, got True"),
        ("span-check", {"cases": True}, "cases must be an integer of at least 0, got True"),
        # tree-spec integers: each of these was once read with int() and built a tree
        (
            "build",
            {"tree": {"branching": {"kind": "uniform", "arity": 2.9}}},
            "branching 'arity' must be an integer of at least 2, got 2.9",
        ),
        (
            "build",
            {"tree": {"branching": {"kind": "uniform", "arity": "3"}}},
            "branching 'arity' must be an integer of at least 2, got '3'",
        ),
        (
            "build",
            {"tree": {"depth": 4, "branching": {"kind": "per_level", "arities": [2, 3.5, 2, 2]}}},
            "branching 'arities' must be an integer of at least 2, got 3.5",
        ),
        (
            "build",
            {"tree": {"depth": 2, "branching": {"kind": "explicit", "counts": [[2], [2.9, "3"]]}}},
            "branching 'counts' must be an integer of at least 2, got 2.9",
        ),
        (
            "build",
            {"tree": {"depth": 2, "branching": {"kind": "explicit", "counts": [[2], [2, "3"]]}}},
            "branching 'counts' must be an integer of at least 2, got '3'",
        ),
        (
            "build",
            {"tree": {"depth": 3, "branching": {"kind": "random", "max_arity": 3.7}}},
            "branching 'max_arity' must be an integer of at least 2, got 3.7",
        ),
        (
            "build",
            {"tree": {"depth": 3, "branching": {"kind": "random", "max_arity": 3, "min_arity": "2"}}},
            "branching 'min_arity' must be an integer of at least 2, got '2'",
        ),
        (
            "build",
            {"tree": {"depth": 3, "q_rule": {"kind": "random", "max_weight": 9.9}}},
            "q_rule 'max_weight' must be an integer of at least 1, got 9.9",
        ),
        (
            "build",
            {"tree": {"depth": 3, "w_rule": {"kind": "random", "max_weight": True}}},
            "w_rule 'max_weight' must be an integer of at least 1, got True",
        ),
    ],
    ids=[
        "resolution-text", "bound-null", "width-text", "warmup-text", "cases-null", "count-text",
        "seed-null", "seed-float", "seed-bool", "depth-bool", "cases-bool",
        "arity-float", "arity-text", "arities-float", "counts-float", "counts-text", "max-arity-float",
        "min-arity-text", "max-weight-float", "max-weight-bool",
    ],
)
def test_wrong_typed_config_integer_exits_one(tmp_path, capsys, command, config, issue):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tree": {"depth": 30}, **config}), encoding="utf-8")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["errors"] == [issue]
    assert not (tmp_path / "o").exists()


def test_negative_seed_builds_one_tree(tmp_path):
    """A seed may have any sign; the random tree it draws is the same each run."""
    cfg = tmp_path / "cfg.json"
    tree = {"depth": 6, "branching": {"kind": "random", "max_arity": 3}, "q_rule": {"kind": "random"}}
    cfg.write_text(json.dumps({"seed": -7, "tree": tree}), encoding="utf-8")
    for out in ("a", "b"):
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    assert read(tmp_path / "a" / "tree.json") == read(tmp_path / "b" / "tree.json")


# sha256 of outputs recorded from the per-level restrict-and-integrate route
# (the first two) and from block-by-block witness synthesis (the last two);
# any change to a distance, its type or its formatting changes a digest
GOLDEN = {
    "witness-ufm": (
        ["witness-ufm", "--depth", "30", "--block-length", "5"],
        {
            "report.json": "83b6ce391cc738938dde46b332cde67d16d19241e30011435235fa5256d3c4d3",
            "witness.json": "8f00b79562968fe7cd8042a5403d7608d6b376fbc6bd4a1b40e1e7f7ed447690",
        },
    ),
    "span-check": (
        ["span-check", "--depth", "30", "--cases", "4"],
        {"report.json": "c48144cbee1d91b4063808e48d79f1da0d46efb65fd0465e42f6787f88050987"},
    ),
    # twelve blocks, the shape of the benchmark's deepest witness
    "witness-ufm-120": (
        ["witness-ufm", "--depth", "120", "--block-length", "10"],
        {
            "report.json": "6f673bbb9103951bddeaadcc4d8662554dee2404e951473cf1dc4953ad18c939",
            "witness.json": "31e660a4fa715271b6e53b47a201a0b96e0d3448c67680858413b1db3b2ce8fc",
        },
    ),
    # the only width-3 synchronized schedule, and the only zero target;
    # recorded when the steady span and the span ranks replaced the samples
    "double-genericity": (
        ["double-genericity", "--depth", "60"],
        {"report.json": "d457a40f24c1496d41cc60d67fac9020124ab4fa32cdb1a19d2e34e1fd41aa5f"},
    ),
    # recorded while every hit set was swept from the root: an x-kind tuple,
    # and a ufm witness certified at a horizon short of the tree depth
    "witness-x-60": (
        ["witness-x", "--depth", "60"],
        {
            "report.json": "84d637831be5e6ae175a508f71d5194e469012060f977fcd94a6449d998a36f0",
            "witness.json": "daa8d8289610d9390d1b0bc876629520815ea5449ccaedc53bc2b4d82fbda790",
        },
    ),
    "witness-ufm-60-h45": (
        ["witness-ufm", "--depth", "60", "--horizon", "45", "--block-length", "5"],
        {
            "report.json": "ce06976d9551de53a1a294f2338a1745c0194cd0bea8671d1db929c082e3b8fb",
            "witness.json": "54285309177a79b8dd990327f64ed472ee65a648dd42b8b099a20eb3c4c5a919",
        },
    ),
    # the only command that truncates and extends, recorded while
    # truncate_and_extend ran its own walk
    "dense-family": (
        ["dense-family", "--depth", "30", "--count", "5"],
        {"report.json": "7fa066f65add90be03726f8d49b0e875a21390fe022d78a4777c4409cb5d25de"},
    ),
}


@pytest.mark.parametrize("argv,digests", GOLDEN.values(), ids=GOLDEN.keys())
def test_outputs_match_recorded_digests(tmp_path, argv, digests):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# sha256 of certify reports on the witness-ufm-60-h45 witness at a horizon
# below and above the schedule's 45, recorded with the entry above
CERTIFY_GOLDEN = {
    "30": "bc8888c26bab08f7ed5f78ec4fa8623d0325eeb0741eecd5535879a144d7909e",
    "60": "a7c544cc24eafb667c85c3a91b418c584e0276dc86c262f0a8146fa4281e915d",
}


def test_certify_horizons_match_recorded_digests(tmp_path):
    argv, _ = GOLDEN["witness-ufm-60-h45"]
    assert main(argv + ["--out", str(tmp_path / "w")]) == 0
    for horizon, digest in CERTIFY_GOLDEN.items():
        out = tmp_path / f"c{horizon}"
        assert main(["certify", "--witness", str(tmp_path / "w" / "witness.json"), "--horizon", horizon, "--out", str(out)]) == 0
        assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == digest, horizon


def test_certify_horizon_is_checked_against_the_witness_tree(tmp_path, capsys):
    # the config's tree keeps its default depth of 60; the witness's tree has depth 64
    assert main(["witness-ufm", "--depth", "64", "--block-length", "5", "--out", str(tmp_path / "w")]) == 0
    witness = str(tmp_path / "w" / "witness.json")
    assert main(["certify", "--witness", witness, "--horizon", "62", "--out", str(tmp_path / "c")]) == 0
    assert main(["certify", "--witness", witness, "--depth", "64", "--horizon", "62", "--out", str(tmp_path / "d")]) == 0
    hits = [json.loads(read(tmp_path / out / "report.json"))["hits"] for out in ("c", "d")]
    assert hits[0] == hits[1] and hits[0]["horizon"] == 62
    capsys.readouterr()
    assert main(["certify", "--witness", witness, "--horizon", "65", "--out", str(tmp_path / "e")]) == 1
    assert json.loads(capsys.readouterr().err) == {"errors": ["horizon 65 exceeds tree depth 64"]}
    assert not (tmp_path / "e").exists()


# sha256 of an explicit-tree witness and its certify report, recorded before
# explicit rows were written from integers and read without Fractions; the
# rows and values are written with both "p" and "p/q" entries
EXPLICIT_CONFIG = {
    "seed": 1,
    "tree": {
        "depth": 6,
        "branching": {"kind": "random", "max_arity": 3},
        "q_rule": {"kind": "random"},
        "w_rule": {"kind": "random"},
    },
}
EXPLICIT_GOLDEN = {
    "witness/report.json": "1de9f4399421e1ec974c2f19b1d0b7c8e22e2ced4fd9ac5f0c83ab7791531888",
    "witness/witness.json": "f20b755c28a8f60b4abfb4a98ad5dcebf63737deef19345c98aadfd84ccab89f",
    "certify/report.json": "cb01c38223a7ccbdf6a745f4ff911f81318b88fab641e38207729e65032ac4c3",
}


def test_explicit_tree_outputs_match_recorded_digests(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(EXPLICIT_CONFIG), encoding="utf-8")
    witness, certify = tmp_path / "witness", tmp_path / "certify"
    assert main(["witness-x", "--config", str(cfg), "--out", str(witness)]) == 0
    assert main(["certify", "--witness", str(witness / "witness.json"), "--out", str(certify)]) == 0
    for name, digest in EXPLICIT_GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize(
    "edit,issue",
    [
        ({"kind": "banana"}, "tree 'kind' must be 'uniform' or 'explicit', got 'banana'"),
        ({"kind": None}, "tree 'kind' must be 'uniform' or 'explicit', got None"),
        ({"depth": 6.7}, "tree 'depth' must be an integer, got 6.7"),
        ({"depth": "6"}, "tree 'depth' must be an integer, got '6'"),
        ({"depth": True}, "tree 'depth' must be an integer, got True"),
        ({"depth": None}, "tree 'depth' must be an integer, got None"),
    ],
    ids=["unknown-kind", "no-kind", "float-depth", "text-depth", "bool-depth", "no-depth"],
)
def test_certify_bad_tree_kind_or_depth_exits_one(tmp_path, capsys, edit, issue):
    # each of these once read as an explicit tree of depth 6 and certified with exit 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(EXPLICIT_CONFIG), encoding="utf-8")
    assert main(["witness-x", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    doc = json.loads(read(tmp_path / "o" / "witness.json"))
    doc["tree"].update(edit)
    doc["tree"] = {k: v for k, v in doc["tree"].items() if v is not None}  # None drops the key
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["certify", "--witness", str(broken), "--out", str(tmp_path / "c")]) == 1
    assert json.loads(capsys.readouterr().err)["errors"] == [issue]
    assert not (tmp_path / "c").exists()


# sha256 of the outputs of two runs whose hit sets hit_levels decides from
# integer bounds, recorded while they were decided from exact distances:
# certify on the witness-ufm-120 witness, and span-check on a depth-60 tree
# whose skewed w rows give its components coordinates of some 380 bits
SKEWED_SPAN_CONFIG = {"tree": {"depth": 60, "w_rule": {"kind": "per_level", "rows": [["1/100", "99/100"]] * 60}}}
BOUNDS_GOLDEN = {
    "certify/report.json": "b41d7eb7d0142b651e2b95b83c402c47580bf5e5a50e4c30fe0e9391f0314dca",
    "certify/density_t1.csv": "4da6b5359c29bf70601e606a6a37d4b32a34f2adb35fab70e2699f219408f642",
    "certify/density_t2.csv": "982ddb845e086e6f4a68a66bb095454657b554d2b7d2010f3bad6f567994f5d5",
    "certify/density_t3.csv": "ea55320785f20db032c0098ba1fab4f04369a04c8214c16bdc9aa0997dcfc56e",
    "span/report.json": "fe0d74af7590bfc1f4c3c3b3fdb13e917b487a1d9daecafa5e10a6faabd7da72",
}


def test_bound_decided_outputs_match_recorded_digests(tmp_path):
    argv, _ = GOLDEN["witness-ufm-120"]
    assert main(argv + ["--out", str(tmp_path / "witness")]) == 0
    assert main(["certify", "--witness", str(tmp_path / "witness" / "witness.json"), "--out", str(tmp_path / "certify")]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SKEWED_SPAN_CONFIG), encoding="utf-8")
    assert main(["span-check", "--config", str(cfg), "--cases", "20", "--out", str(tmp_path / "span")]) == 0
    for name, digest in BOUNDS_GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of build's outputs, recorded while canonical_json was json.dumps with
# indent=2: a uniform tree and a random explicit tree, whose tree.json is all rows
BUILD_EXPLICIT_CONFIG = {
    "seed": 2,
    "tree": {
        "depth": 8,
        "branching": {"kind": "random", "max_arity": 3},
        "q_rule": {"kind": "random"},
        "w_rule": {"kind": "random"},
    },
}
BUILD_GOLDEN = {
    "uniform/tree.json": "be4bcaa44138239d2d764510bef7e4dbc226b7ad2a523d0a5ee4a39b3b322adb",
    "uniform/report.json": "cbc52404ba67437b54af6db9832cbe91696778ce1a9a5fedb0531b2c13fa8b1f",
    "explicit/tree.json": "7034d026e6aae06ae50e766a8cd033d3aa24467ffeb64c1238aa9884c30a440d",
    "explicit/report.json": "a47c09d08005acc8eefcc7bc1f5c720284d326ea869a9212701aee00f5ce2d68",
}


def test_build_outputs_match_recorded_digests(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BUILD_EXPLICIT_CONFIG), encoding="utf-8")
    assert main(["build", "--depth", "8", "--out", str(tmp_path / "uniform")]) == 0
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "explicit")]) == 0
    for name, digest in BUILD_GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize(
    "branching,key",
    [({"kind": "random"}, "max_arity"), ({"kind": "per_level"}, "arities")],
    ids=["random", "per_level"],
)
def test_branching_without_its_key_exits_one(tmp_path, capsys, branching, key):
    # the default branching's "arity" merges in, so only the kind's own key is missing
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tree": {"depth": 3, "branching": branching}}), encoding="utf-8")
    code = main(["build", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    errors = json.loads(capsys.readouterr().err)["errors"]
    assert len(errors) == 1 and repr(key) in errors[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "tree,key",
    [
        ({"branching": {"kind": "uniform", "arity": 0}}, "'arity'"),
        ({"branching": {"kind": "uniform", "arity": "x"}}, "'arity'"),
        ({"branching": {"kind": "per_level", "arities": [2, 0, 2]}}, "'arities'"),
        ({"branching": {"kind": "random", "max_arity": "x"}}, "'max_arity'"),
        ({"branching": {"kind": "random", "max_arity": 3, "min_arity": 1}}, "'min_arity'"),
        ({"depth": 1, "branching": {"kind": "explicit", "counts": [["x"]]}}, "'counts'"),
        ({"branching": {"kind": "random", "max_arity": 3}, "q_rule": {"kind": "random", "max_weight": 0}}, "q_rule 'max_weight'"),
        ({"branching": {"kind": "random", "max_arity": 3}, "w_rule": {"kind": "random", "max_weight": None}}, "w_rule 'max_weight'"),
    ],
    ids=["arity-zero", "arity-text", "arities-zero", "max-arity-text", "min-arity-one", "counts-text", "max-weight-zero", "max-weight-null"],
)
def test_bad_tree_integer_exits_one(tmp_path, capsys, tree, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tree": {"depth": 3, **tree}}), encoding="utf-8")
    code = main(["build", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    errors = json.loads(capsys.readouterr().err)["errors"]
    assert len(errors) == 1 and key in errors[0] and "must be an integer of at least" in errors[0]
    assert not (tmp_path / "o").exists()


def test_arity_flag_zero_exits_one(tmp_path, capsys):
    code = main(["build", "--depth", "3", "--arity", "0", "--out", str(tmp_path / "o")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["errors"] == [
        "branching 'arity' must be an integer of at least 2, got 0"
    ]


def test_span_check_cli(tmp_path):
    out = tmp_path / "o"
    code = main(
        ["span-check", "--depth", "40", "--cases", "6", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(read(out / "report.json"))
    assert report["all_ok"] is True
    assert len(report["cases"]) == 6


@pytest.mark.parametrize(
    "coeffs, psi_dim, issue",
    [
        ((), 1, "need one coefficient per component"),
        ((1, 0), 1, "the last coefficient must be nonzero"),
        ((1, 1, 1, 1), 1, "need one coefficient per component"),
        ((1,), 2, "dimension mismatch: 2 vs 1"),
    ],
)
def test_span_check_invalid_case_exits_one(tmp_path, capsys, monkeypatch, coeffs, psi_dim, issue):
    # an invalid case appended to the drawn ones fails the whole check
    from fractions import Fraction

    from treeharmonics import LevelFunction, Value, cli

    bad = (tuple(map(Fraction, coeffs)), LevelFunction.constant(0, Value.zero(psi_dim)))
    check = cli.span_inclusion_check
    monkeypatch.setattr(cli, "span_inclusion_check", lambda comps, cases, *rest: check(comps, [*cases, bad], *rest))
    out = tmp_path / "o"
    code = main(["span-check", "--depth", "20", "--cases", "3", "--out", str(out)])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {"errors": [issue]}
    assert not (out / "report.json").exists()


def test_dense_family_cli(tmp_path):
    out = tmp_path / "o"
    code = main(["dense-family", "--depth", "60", "--count", "5", "--out", str(out)])
    assert code == 0
    report = json.loads(read(out / "report.json"))
    assert report["all_certified"] is True
    assert len(report["members"]) == 5


def test_double_genericity_cli(tmp_path):
    out = tmp_path / "o"
    code = main(["double-genericity", "--depth", "60", "--out", str(out)])
    assert code == 0
    report = json.loads(read(out / "report.json"))
    assert report["all_pass"] is True
    assert report["reference"]["non_dense"] is True
    assert report["steady_span"] == {"hit_count": 18, "lower": "5/21", "passed": True}
    assert report["span_ranks"] == {"steady": 3, "burst": 2, "joint": 5}
    assert report["intersection_trivial"] is True


def test_double_genericity_ignores_the_seed(tmp_path):
    # nothing is sampled, so the seed reaches the report only through the config hash
    reports = []
    for seed in ("0", "11"):
        out = tmp_path / seed
        assert main(["double-genericity", "--depth", "60", "--seed", seed, "--out", str(out)]) == 0
        report = json.loads(read(out / "report.json"))
        del report["config_hash"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_failed_double_genericity_exits_three_after_its_report(tmp_path, capsys, monkeypatch):
    from treeharmonics import cli
    from treeharmonics.universality import SpanRanks

    real = cli.double_genericity_check
    monkeypatch.setattr(cli, "double_genericity_check", lambda *a, **k: real(*a, **k)._replace(span_ranks=SpanRanks(3, 2, 4)))
    out = tmp_path / "o"
    assert main(["double-genericity", "--depth", "60", "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err) == {"errors": ["double genericity failed; see report.json"]}
    report = json.loads(read(out / "report.json"))
    assert report["span_ranks"] == {"steady": 3, "burst": 2, "joint": 4}
    assert report["intersection_trivial"] is False
    assert report["all_pass"] is False


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["witness-x", "--depth", "40", "--horizon", "40", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("report.json", "witness.json", "density_t1.csv", "density_t2.csv", "density_t3.csv"):
        assert read(a / name) == read(b / name)


def test_invariant_error_exits_three(tmp_path, capsys, monkeypatch):
    from treeharmonics import cli
    from treeharmonics.errors import InvariantError

    def boom(cfg, out_dir):
        raise InvariantError("forced failure")

    monkeypatch.setitem(cli.COMMANDS, "build", boom)
    code = main(["build", "--depth", "3", "--out", str(tmp_path / "o")])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["errors"] == ["forced failure"]


def test_recursion_error_exits_three(tmp_path, capsys, monkeypatch):
    from treeharmonics import cli

    def too_deep(cfg, out_dir):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(cli.COMMANDS, "witness-ufm", too_deep)
    code = main(["witness-ufm", "--depth", "1100", "--out", str(tmp_path / "o")])
    assert code == 3
    errors = json.loads(capsys.readouterr().err)["errors"]
    assert len(errors) == 1 and "depth 1100" in errors[0]


def test_other_exception_exits_three(tmp_path, capsys, monkeypatch):
    from treeharmonics import cli

    def broken(cfg, out_dir):
        raise KeyError("lost")

    monkeypatch.setitem(cli.COMMANDS, "build", broken)
    code = main(["build", "--depth", "3", "--out", str(tmp_path / "o")])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["errors"] == ["internal error: KeyError: 'lost'"]


_BIG_ROW = [["1/100000000000000000000", "99999999999999999999/100000000000000000000"]]


@pytest.mark.parametrize(
    "tree,rule",
    [
        ({"q_rule": {"kind": "explicit", "rows": [_BIG_ROW]}}, "q_rule"),
        ({"w_rule": {"kind": "explicit", "rows": [_BIG_ROW]}}, "w_rule"),
        ({"w_rule": {"kind": "per_level", "rows": _BIG_ROW}}, "w_rule"),
        ({"q_rule": {"kind": "random", "max_weight": 2**63}}, "q_rule"),
        ({"w_rule": {"kind": "random", "max_weight": 2**63}}, "w_rule"),
    ],
    ids=["explicit-q", "explicit-w", "per-level-w", "random-q", "random-w"],
)
def test_row_beyond_64_bits_exits_one(tmp_path, capsys, tree, rule):
    # the random branching makes every rule an explicit tree's edge array
    tree = {"depth": 1, "branching": {"kind": "random", "max_arity": 2}, **tree}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tree": tree}), encoding="utf-8")
    code = main(["build", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    errors = json.loads(capsys.readouterr().err)["errors"]
    assert len(errors) == 1 and errors[0].startswith(rule) and "64 bits" in errors[0]
    assert not (tmp_path / "o").exists()


# sha256 of certify's report on the witness-x --depth 120 witness, recorded
# while certify walked each component on its own: a uniform x-kind witness
# whose three targets are certified on three components
X_CERTIFY_GOLDEN = "264365f6a361d127a418cb33c8c2e9452779175356255227a793038292a42da1"


def test_x_witness_certify_matches_recorded_digest(tmp_path):
    assert main(["witness-x", "--depth", "120", "--out", str(tmp_path / "w")]) == 0
    assert main(["certify", "--witness", str(tmp_path / "w" / "witness.json"), "--out", str(tmp_path / "c")]) == 0
    assert hashlib.sha256((tmp_path / "c" / "report.json").read_bytes()).hexdigest() == X_CERTIFY_GOLDEN


def _set(doc, path, value):
    *parents, key = path
    for name in parents:
        doc = doc[name]
    doc[key] = value


@pytest.mark.parametrize(
    "path,value,error",
    [
        (("schedule", "warmup"), 9.7, "witness 'schedule.warmup' must be an integer, got 9.7"),
        (("schedule", "horizon"), "30", "witness 'schedule.horizon' must be an integer, got '30'"),
        (("schedule", "width"), True, "witness 'schedule.width' must be an integer, got True"),
        (("dim",), 1.9, "witness 'dim' must be an integer, got 1.9"),
        (("target_components",), [1.5, 1, 1], "witness 'target_components' must be an integer, got 1.5"),
        (("targets", 0, "index"), "1", "witness 'targets.index' must be an integer, got '1'"),
        (("targets", 0, "level_function", "level"), 0.5, "witness 'targets.level_function.level' must be an integer, got 0.5"),
        (("logs", 0, "start"), 2.5, "witness 'logs.start' must be an integer, got 2.5"),
        (("schedule", "blocks", 0, "end"), 9.9, "witness 'schedule.blocks.end' must be an integer, got 9.9"),
        (("components", 0, "root"), True, "witness 'components.root' must be an integer, got True"),
        (("components", 0, "root"), -1, "witness 'components.root' must lie in 0..101, got -1"),
        (("components", 0, "root"), 102, "witness 'components.root' must lie in 0..101, got 102"),
        (("components", 0, "nodes", 97, "c"), [-6, -6], "witness 'components.nodes.c' must lie in 0..96, got -6"),
        (("components", 0, "nodes", 97, "c"), [96, 97], "witness 'components.nodes.c' must lie in 0..96, got 97"),
        (("tuple",), "no", "witness 'tuple' must be true or false, got 'no'"),
        (("tree", "arities", 0), 2.0, "tree 'arities' must hold integers, got 2.0"),
        (("components", 0, "nodes"), [], "witness 'components.nodes' lists no nodes"),
        (("components", 0, "nodes", 97, "c"), [], "witness 'components.nodes.c' must be null or a non-empty list, got []"),
        (("components", 0, "nodes", 97, "c"), {}, "witness 'components.nodes.c' must be null or a non-empty list, got {}"),
        (("components", 0, "nodes", 97, "c"), "0", "witness 'components.nodes.c' must be null or a non-empty list, got '0'"),
    ],
    ids=[
        "warmup-float", "horizon-text", "width-bool", "dim-float", "target-component-float", "target-index-text",
        "target-level-float", "log-start-float", "block-end-float", "root-bool", "root-negative", "root-past-end",
        "child-negative", "child-self", "tuple-text", "arity-float", "no-nodes", "child-empty", "child-object",
        "child-text",
    ],
)
def test_certify_witness_with_lenient_field_exits_one(tmp_path, capsys, path, value, error):
    # each of these once read through int(), truthiness or Python's negative
    # list indices and certified with exit 0; an index past the end exited 1
    # as a "malformed witness document"
    code, errors = _certify_edited_ufm_witness(tmp_path, capsys, lambda doc: _set(doc, path, value))
    assert code == 1
    assert errors == [error]


@pytest.mark.parametrize(
    "path,value,error",
    [
        (("schedule", "kind"), "ufm", "witness schedule kind 'ufm' does not match its kind 'x'"),
        (("tree", "child_counts", 0, 0), 2.7, "tree 'child_counts' must hold integers, got 2.7"),
        (("tree", "child_counts", 1, 0), "3", "tree 'child_counts' must hold integers, got '3'"),
    ],
    ids=["schedule-kind", "count-float", "count-text"],
)
def test_certify_explicit_witness_with_lenient_field_exits_one(tmp_path, capsys, path, value, error):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(EXPLICIT_CONFIG), encoding="utf-8")
    assert main(["witness-x", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    doc = json.loads(read(tmp_path / "o" / "witness.json"))
    _set(doc, path, value)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["certify", "--witness", str(broken), "--out", str(tmp_path / "c")]) == 1
    assert json.loads(capsys.readouterr().err) == {"errors": [error]}
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "edit,error",
    [
        (lambda doc: doc.update(schema="witness/2"), "unsupported witness schema 'witness/2'"),
        (lambda doc: doc.update(components=5), "malformed witness document: 'int' object is not iterable"),
        # once certified with exit 0 and "all_pass": true over no entries
        (lambda doc: doc.update(targets=[], target_components=[]), "witness lists no targets; at least one target required"),
        # a second component was ignored and certified with exit 0
        (
            lambda doc: doc["components"].append(doc["components"][0]),
            "witness 'components' must list one function when 'tuple' is false, got 2",
        ),
        # exited 1 only through "tuple index out of range"
        (lambda doc: doc.update(components=[]), "witness 'components' must list one function when 'tuple' is false, got 0"),
    ],
    ids=["schema", "malformed", "no-targets", "two-components", "no-components"],
)
def test_certify_unsupported_or_malformed_witness_exits_one(tmp_path, capsys, edit, error):
    code, errors = _certify_edited_ufm_witness(tmp_path, capsys, edit)
    assert code == 1
    assert errors == [error]


@pytest.mark.parametrize(
    "argv,config,error",
    [
        ([], {"schema": "runconfig/2"}, "unsupported config schema 'runconfig/2'"),
        (["--epsilon", "3/2"], {}, "targets.epsilon must lie in (0,1)"),
        (["--epsilon", "abc"], {}, "targets.epsilon 'abc' is not a fraction"),
        (["--depth", "10", "--horizon", "20"], {}, "horizon exceeds tree depth"),
    ],
    ids=["schema", "epsilon-outside", "epsilon-text", "horizon-past-depth"],
)
def test_invalid_run_config_exits_one(tmp_path, capsys, argv, config, error):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    code = main(["witness-x", "--config", str(cfg), *argv, "--out", str(tmp_path / "o")])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {"errors": [error]}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,flag", [("build", "--cases"), ("span-check", "--count"), ("dense-family", "--cases")])
def test_flag_of_another_subcommand_exits_one(tmp_path, capsys, command, flag):
    code = main([command, flag, "3", "--out", str(tmp_path / "o")])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {"errors": [f"unrecognized arguments: {flag} 3"]}


def test_span_check_violation_exits_three(tmp_path, capsys, monkeypatch):
    from treeharmonics import cli

    check = cli.span_inclusion_check

    def violated(*args):
        first, *rest = check(*args)
        return [first._replace(violations=(1,)), *rest]

    monkeypatch.setattr(cli, "span_inclusion_check", violated)
    out = tmp_path / "o"
    assert main(["span-check", "--depth", "20", "--cases", "3", "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err) == {"errors": ["span inclusion violated; see report.json"]}
    report = json.loads(read(out / "report.json"))
    assert report["all_ok"] is False
    assert [case["ok"] for case in report["cases"]] == [False, True, True]


def test_dense_family_miss_exits_three(tmp_path, capsys, monkeypatch):
    from fractions import Fraction

    from treeharmonics import cli

    family = cli.dense_family

    def missed(*args, **kwargs):
        result = family(*args, **kwargs)
        first, *rest = result.members
        return result._replace(members=(first._replace(bound=Fraction(0)), *rest))

    monkeypatch.setattr(cli, "dense_family", missed)
    out = tmp_path / "o"
    assert main(["dense-family", "--depth", "30", "--count", "3", "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err) == {"errors": ["a dense-family member missed its pointwise bound"]}
    report = json.loads(read(out / "report.json"))
    assert report["all_certified"] is False
    assert [m["certified"] for m in report["members"]] == [False, True, True]


def _edit_values(edit):
    """An edit that replaces every DAG node's value list v by edit(v)."""

    def apply(doc):
        for node in doc["components"][0]["nodes"]:
            node["v"] = edit(node["v"])

    return apply


def _dim_zero(doc):
    doc["dim"] = 0
    _edit_values(lambda v: [])(doc)
    for t in doc["targets"]:
        t["level_function"]["values"] = [[]]


@pytest.mark.parametrize(
    "edit,error",
    [
        # the bounds fold read only as many coordinates as the target has, so
        # this certified to the intact witness's report
        (_edit_values(lambda v: v + ["5"]), "witness values must hold 'dim' = 1 scalars, got ['31491009', '5']"),
        # exited 3 with "internal error: IndexError: tuple index out of range"
        (_edit_values(lambda v: []), "witness values must hold 'dim' = 1 scalars, got []"),
        (_edit_values(lambda v: [0.0]), "cannot parse scalar 0.0"),
        (lambda doc: doc["targets"][0].update(epsilon=0.125), "cannot parse scalar 0.125"),
        # wrote one density_t1.csv and three report entries for target 1
        (lambda doc: [t.update(index=1) for t in doc["targets"]], "witness target indices [1, 1, 1] must be distinct"),
        # certified a hit at every level
        (_dim_zero, "witness 'dim' must be at least 1, got 0"),
    ],
    ids=["value-too-long", "value-empty", "value-number", "epsilon-number", "target-indices-repeat", "dim-zero"],
)
def test_certify_witness_with_bad_value_or_target_exits_one(tmp_path, capsys, edit, error):
    code, errors = _certify_edited_ufm_witness(tmp_path, capsys, edit)
    assert code == 1
    assert errors == [error]


def _edit_block(i, **fields):
    return lambda doc: doc["schedule"]["blocks"][i].update(fields)


@pytest.mark.parametrize(
    "edit,error",
    [
        (_edit_block(1, start=5), "component 1: blocks overlap at level 5"),
        (_edit_block(5, end=99), "block ScheduleBlock(component=1, target_index=3, start=26, end=99) outside 1..30"),
        (
            _edit_block(0, end=1),
            "witness schedule: block of length 1 cannot reach epsilon 1/8; needs at least 5 levels",
        ),
        (lambda doc: doc["schedule"].update(width=7), "witness schedule width 7 does not match its 1 components"),
        (
            _edit_block(2, target=9),
            "block ScheduleBlock(component=1, target_index=9, start=11, end=15) names a target outside 1..3",
        ),
        # read targets[-1]
        (
            _edit_block(2, target=0),
            "block ScheduleBlock(component=1, target_index=0, start=11, end=15) names a target outside 1..3",
        ),
        # was skipped
        (
            _edit_block(2, component=2),
            "block ScheduleBlock(component=2, target_index=3, start=11, end=15) names a component outside 1..1",
        ),
        (lambda doc: doc["schedule"].update(horizon=31), "witness schedule: horizon 31 exceeds tree depth 30"),
        (lambda doc: doc["schedule"].update(warmup=30), "warmup must satisfy 0 <= warmup < horizon"),
        (
            lambda doc: doc["targets"][0]["level_function"].update(level=1, values=[["0"], ["0"]]),
            "witness schedule: block starting at 1 cannot approximate a level-1 target",
        ),
    ],
    ids=[
        "overlap", "past-horizon", "one-level", "width", "target-past-end", "target-zero", "component-past-width",
        "horizon-past-depth", "warmup-at-horizon", "start-above-target-level",
    ],
)
def test_certify_witness_with_bad_schedule_exits_one(tmp_path, capsys, edit, error):
    # each once certified with exit 0: a read schedule was never checked
    code, errors = _certify_edited_ufm_witness(tmp_path, capsys, edit)
    assert code == 1
    assert errors == [error]


@pytest.mark.parametrize("count", [1, 2])
def test_dense_family_narrower_than_its_targets(tmp_path, count):
    # the witness is as wide as its three targets, however small the family;
    # a width of count once exited 1 with "tuple width 1 below target count 3"
    out = tmp_path / "o"
    assert main(["dense-family", "--depth", "30", "--count", str(count), "--out", str(out)]) == 0
    report = json.loads(read(out / "report.json"))
    assert report["all_certified"] is True
    assert len(report["members"]) == count


def test_witness_commands_recurse_once_per_level(tmp_path):
    # every DAG walk takes one frame per tree level, so depth 200 passes 300
    # frames above this one; two frames per level exited 3 here
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 300)
    try:
        codes = [
            main([*argv, "--depth", "200", "--out", str(tmp_path / argv[0])])
            for argv in (["witness-ufm", "--block-length", "10"], ["witness-x"])
        ]
    finally:
        sys.setrecursionlimit(limit)
    assert codes == [0, 0]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no limit on int/text conversion")
def test_witness_and_certify_lift_the_digit_limit(tmp_path):
    # exact scalars outgrow the limit on int/text conversion with depth: its
    # default of 4300 digits stopped witness-ufm at depth 550, and 640 digits
    # stopped it at depth 240 with exit 3
    out = tmp_path / "w"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        codes = [
            main(["witness-ufm", "--block-length", "10", "--depth", "240", "--out", str(out)]),
            main(["certify", "--witness", str(out / "witness.json"), "--out", str(tmp_path / "c")]),
        ]
    finally:
        sys.set_int_max_str_digits(limit)
    assert codes == [0, 0]


def _drop_last_log(doc):
    doc["logs"].pop()


@pytest.mark.parametrize(
    "edit,error",
    [
        (lambda doc: doc.update(depth=99), "witness 'depth' 99 differs from the tree depth 30"),
        (lambda doc: doc.update(depth=31), "witness 'depth' 31 differs from the tree depth 30"),
        # exited 1 only through a later check: "level 30 outside 0..5"
        (lambda doc: doc.update(depth=5), "witness 'depth' 5 differs from the tree depth 30"),
        (
            lambda doc: doc["targets"][0]["level_function"].update(dim=7),
            "witness 'targets.level_function.dim' 7 differs from the witness 'dim' 1",
        ),
        (
            lambda doc: doc["targets"][0]["level_function"].update(dim="x"),
            "witness 'targets.level_function.dim' must be an integer, got 'x'",
        ),
        (lambda doc: doc["logs"][0].update(start=2), "witness 'logs' must list the schedule's blocks, component by component"),
        (lambda doc: doc["logs"][1].update(target=3), "witness 'logs' must list the schedule's blocks, component by component"),
        (_drop_last_log, "witness 'logs' must list the schedule's blocks, component by component"),
        (
            lambda doc: doc["logs"][0]["mismatch"][0].__setitem__(0, 77),
            "witness 'logs.mismatch' of block (1, 1, 1, 5) lists levels other than its own",
        ),
    ],
    ids=[
        "depth-past-tree", "depth-one-past-tree", "depth-short", "target-dim-other", "target-dim-text",
        "log-start", "log-target", "log-dropped", "log-mismatch-level",
    ],
)
def test_certify_witness_with_unread_field_exits_one(tmp_path, capsys, edit, error):
    # each certified with exit 0 to the intact witness's report, except
    # depth-short: the reader never compared these fields with the rest
    code, errors = _certify_edited_ufm_witness(tmp_path, capsys, edit)
    assert code == 1
    assert errors == [error]
