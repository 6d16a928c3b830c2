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


# sha256 of outputs recorded from the per-level restrict-and-integrate route;
# any change to a distance, its type or its formatting changes a digest
GOLDEN = [
    (
        ["witness-ufm", "--depth", "30", "--block-length", "5"],
        {
            "report.json": "83b6ce391cc738938dde46b332cde67d16d19241e30011435235fa5256d3c4d3",
            "witness.json": "8f00b79562968fe7cd8042a5403d7608d6b376fbc6bd4a1b40e1e7f7ed447690",
        },
    ),
    (
        ["span-check", "--depth", "30", "--cases", "4"],
        {"report.json": "c48144cbee1d91b4063808e48d79f1da0d46efb65fd0465e42f6787f88050987"},
    ),
]


@pytest.mark.parametrize("argv,digests", GOLDEN, ids=[argv[0] for argv, _ in GOLDEN])
def test_outputs_match_recorded_digests(tmp_path, argv, digests):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


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


def test_float_mode_smoke(tmp_path):
    out = tmp_path / "o"
    code = main(["witness-x", "--depth", "40", "--horizon", "40", "--mode", "float", "--out", str(out)])
    assert code == 0
    report = json.loads(read(out / "report.json"))
    assert report["hits"]["all_pass"] is True


def test_invariant_error_exits_three(tmp_path, capsys, monkeypatch):
    from treeharmonics import cli
    from treeharmonics.errors import InvariantError

    def boom(cfg, out_dir):
        raise InvariantError("forced failure")

    monkeypatch.setitem(cli.COMMANDS, "build", boom)
    code = main(["build", "--depth", "3", "--out", str(tmp_path / "o")])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["errors"] == ["forced failure"]
