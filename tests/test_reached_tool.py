"""``tools/reached.py`` lists the functions under ``src/repro/`` that no
command it runs enters."""

import shlex
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reached.py"


def reached(*commands):
    return subprocess.run(
        [sys.executable, str(TOOL), *commands], capture_output=True, text=True
    )


def test_a_function_the_command_enters_is_not_listed_and_one_it_skips_is():
    python = shlex.quote(sys.executable)
    done = reached(f"{python} -c 'from repro.ldap import DN; DN.parse(\"cn=a,o=xyz\")'")
    assert done.returncode == 0, done.stderr
    unreached = done.stdout.splitlines()
    names = {line.split()[1] for line in unreached}
    assert "DN.parse" not in names
    assert any(
        line.startswith("src/repro/ldap/dn.py:") and line.endswith(" DN.rename")
        for line in unreached
    )


def test_a_failed_command_fails_the_run():
    done = reached("exit 3")
    assert done.returncode == 1
    assert "failed: exit 3" in done.stderr
