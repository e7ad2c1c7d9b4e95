"""Every run of the byte-identical gate (``cli_golden.py``) gives the exit
code and the stdout and stderr digests that ``cli_golden.json`` records."""

import pytest

import cli_golden


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    cli_golden.write_inputs(str(directory))
    return directory


def test_the_golden_file_lists_every_run():
    assert [r["argv"] for r in cli_golden.load()] == cli_golden.argvs()


def test_every_run_is_byte_identical(inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    changed = [(want, got) for want in cli_golden.load()
               if (got := cli_golden.replay(want["argv"])) != want]
    assert not changed, f"{len(changed)} run(s) changed, first: {changed[0]}"
