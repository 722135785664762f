"""The README's configuration table, exit codes and CSV columns match the code."""

import re
from dataclasses import fields
from pathlib import Path

from nstorus import runner
from nstorus.config import RunConfig, config_from_mapping

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_key_table_matches_run_config():
    # rows look like "| `key` | `default` | meaning |"; the default cell may
    # be empty, and it is compared by value, so 1e-9 may stand for 1e-09
    rows = re.findall(r"^\| `(\w+)` \| *`?([^`|]*?)`? *\|", README, flags=re.MULTILINE)
    assert [key for key, _ in rows] == [f.name for f in fields(RunConfig)]
    for (key, text), f in zip(rows, fields(RunConfig)):
        assert getattr(config_from_mapping({key: text}), key) == f.default, key


def test_readme_exit_codes_match_runner_statuses():
    text = " ".join(README.split())
    sentence = re.search(r"Exit codes: (.*?)\.(?: |$)", text).group(1)
    named = [int(code) for code in re.findall(r"`(\d+)`", sentence)]
    statuses = [v for k, v in vars(runner).items() if k.startswith("STATUS_")]
    # 2 is argparse's usage error, which no runner outcome carries
    assert sorted(named) == sorted([*statuses, 2])


def test_readme_csv_columns_match_runner(tmp_path):
    # items look like "* `name.csv` (`schema`), columns `a,b,...`"; each is
    # compared with the schema line and header that the runner writes
    items = re.findall(r"^\* `(\w+)\.csv` \(`([\w.]+)`\), columns\s+`([\w,]+)`",
                       README, flags=re.MULTILINE)
    written = {}
    for name in runner.CSVS:
        runner._write_csv(tmp_path, name, [])
        schema, columns, _ = runner.read_csv(tmp_path / f"{name}.csv")
        written[name] = (schema, columns)
    assert {name: (schema, columns.split(",")) for name, schema, columns in items} == written
