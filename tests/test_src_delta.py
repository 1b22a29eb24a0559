"""``benchmarks/src_delta.py`` on a two-commit temporary repository."""

import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                      "src_delta.py")


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.org",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo, check=True, capture_output=True)


def test_src_delta_counts_code_lines_under_src_only(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src" / "pkg").mkdir(parents=True)
    (repo / "docs").mkdir()
    _git(repo, "init", "-q")
    (repo / "src" / "pkg" / "a.py").write_text(
        "# a comment\nx = 1\n\ny = 2\nz = 3\n")
    (repo / "src" / "pkg" / "gone.py").write_text("a = 1\nb = 2\n")
    (repo / "docs" / "notes.md").write_text("one\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "first")
    (repo / "src" / "pkg" / "a.py").write_text(        # -2 code, +1 code;
        "# another comment\nx = 1\n\n\n--- = 4\n")     # comment/blank free
    (repo / "src" / "pkg" / "gone.py").unlink()
    (repo / "src" / "pkg" / "new.py").write_text('"""Doc."""\n\nq = 1\n')
    (repo / "docs" / "notes.md").write_text("one\ntwo\nthree\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "second")
    (repo / "src" / "pkg" / "new.py").write_text(      # uncommitted edit
        '"""Doc."""\n\nq = 1\nr = 2\n')

    out = subprocess.run([sys.executable, SCRIPT, "HEAD~1"], cwd=repo,
                         check=True, capture_output=True, text=True).stdout
    rows = {line.split()[0]: line.split()[1:]
            for line in out.splitlines()[1:-1]}
    assert rows == {"src/pkg/a.py": ["1", "2", "-1"],
                    "src/pkg/gone.py": ["0", "2", "-2"],
                    "src/pkg/new.py": ["3", "0", "+3"]}
    assert out.splitlines()[-1].split() == ["src/", "total", "4", "4", "+0"]
    usage = subprocess.run([sys.executable, SCRIPT], cwd=repo,
                           capture_output=True, text=True)
    assert usage.returncode == 2 and "src_delta.py <git-ref>" in usage.stderr
