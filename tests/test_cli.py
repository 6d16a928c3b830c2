import hashlib
import json

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
    ],
    ids=["resolution-text", "bound-null", "width-text", "warmup-text", "cases-null", "count-text"],
)
def test_wrong_typed_config_integer_exits_one(tmp_path, capsys, command, config, issue):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tree": {"depth": 30}, **config}), encoding="utf-8")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["errors"] == [issue]
    assert not (tmp_path / "o").exists()


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
    # the only width-3 synchronized schedule, and the only zero target
    "double-genericity": (
        ["double-genericity", "--depth", "60"],
        {"report.json": "2bc2f61c13fa180ab67228bbff725b8a4a984d713f64b29c224c68f87c5515d8"},
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


def test_double_genericity_redraws_zero_combinations(tmp_path):
    # the burst components sum to zero, so seed 11 draws equal coefficients
    out = tmp_path / "o"
    code = main(["double-genericity", "--depth", "60", "--seed", "11", "--out", str(out)])
    assert code == 0
    assert json.loads(read(out / "report.json"))["all_pass"] is True


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
