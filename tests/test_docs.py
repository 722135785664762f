"""The README's configuration table, exit codes, CSV columns and script list
match the code."""

import re
from pathlib import Path

from nstorus import runner
from nstorus.config import RunConfig, config_from_mapping

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_key_table_matches_run_config():
    # rows look like "| `key` | `default` | meaning |"; the default cell may
    # be empty, and it is compared by value, so 1e-9 may stand for 1e-09
    rows = re.findall(r"^\| `(\w+)` \| *`?([^`|]*?)`? *\|", README, flags=re.MULTILINE)
    assert [key for key, _ in rows] == list(RunConfig.DEFAULTS)
    for key, text in rows:
        assert getattr(config_from_mapping({key: text}), key) == RunConfig.DEFAULTS[key], key


def test_readme_exit_codes_match_runner_statuses():
    text = " ".join(README.split())
    sentence = re.search(r"Exit codes: (.*?)\.(?: |$)", text).group(1)
    named = [int(code) for code in re.findall(r"`(\d+)`", sentence)]
    statuses = [v for k, v in vars(runner).items() if k.startswith("STATUS_")]
    # 2 is argparse's usage error, which no runner outcome carries
    assert sorted(named) == sorted([*statuses, 2])


def test_certificates_columns_are_the_record_fields():
    assert runner.CSVS["certificates"] == (
        "m", "gaussian_D", "remainder_D", "remainder_decay", "envelope_D", "c1", "c2", "c3",
        "contraction_ok", "fp_iterations", "phi_sup")


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


def test_readme_lists_every_script():
    # the "Experiment scripts" section has one "* `scripts/name.py ...`"
    # bullet per script, and no bullet for a script that is gone
    section = README.split("\n## Experiment scripts\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\* `scripts/(\w+\.py)\b", section, flags=re.MULTILINE)
    scripts = ROOT / "scripts"
    assert sorted(listed) == sorted(p.name for p in scripts.glob("*.py"))
