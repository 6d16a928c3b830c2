"""The benchmark's own test of its correctness gate.

    python3 -m pytest perfbench/test_checks.py

Certify re-derives hits from whatever witness it is given, so a corrupted
witness can still certify with exit code 0; the gate must catch it anyway.
"""

import shutil

import checks
import run
import workloads


def _small_pass(tmp_path):
    workload = workloads.Workload(
        "small",
        workloads.witness_certify_ops("", "witness-ufm", ("--depth", "30", "--block-length", "5")),
        "witness",
        "certify",
        {"schema": "runconfig/1", "mode": "exact", "seed": 0, "tree": {"depth": 30}},
    )
    workloads.write_config(workload, tmp_path)
    runner = run.Runner(tmp_path)
    _, _, runs = runner.run_pass(workload, tmp_path / "pass", traced=False)
    return workload, runner, runs


def _certify_copy(tmp_path, runner, runs, flip: bool) -> list[str]:
    source = runs["witness"].out_dir
    copy = tmp_path / ("flipped" if flip else "intact") / "witness.json"
    copy.parent.mkdir()
    shutil.copyfile(source / "witness.json", copy)
    if flip:
        # change one digit of the first function value: the file stays valid JSON
        data = bytearray(copy.read_bytes())
        pos = data.index(b'"v"', data.index(b'"components"'))
        while not chr(data[pos]).isdigit():
            pos += 1
        data[pos] = ord("2") if data[pos] == ord("1") else ord("1")
        copy.write_bytes(bytes(data))
    result = runner.run_op(runs["certify"].op, copy.parent / "out", copy, None)
    expected = run.pass_digests(runs)
    return checks.check_op("certify", result.code, result.out_dir, expected, copy, source)


def test_flipped_byte_in_copied_witness_is_a_failed_operation(tmp_path):
    workload, runner, runs = _small_pass(tmp_path)
    assert not any(run.check_pass(workload, runs, None).values())
    assert _certify_copy(tmp_path, runner, runs, flip=False) == []
    problems = _certify_copy(tmp_path, runner, runs, flip=True)
    assert any("differs from the witness command's" in p for p in problems), problems
