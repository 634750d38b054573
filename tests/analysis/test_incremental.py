"""Incremental (--changed) mode: merge-base diff + untracked files."""

import subprocess

import pytest

from repro.analysis.incremental import changed_python_files, restrict_to
from repro.errors import ConfigurationError


def git(repo, *args):
    subprocess.run(
        [
            "git",
            "-c", "user.email=t@example.invalid",
            "-c", "user.name=t",
            *args,
        ],
        cwd=repo,
        check=True,
        capture_output=True,
    )


@pytest.fixture
def repo(tmp_path):
    git(tmp_path, "init", "-b", "main")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("A = 1\n")
    (tmp_path / "pkg" / "b.py").write_text("B = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-m", "seed")
    return tmp_path


class TestChangedPythonFiles:
    def test_clean_tree_reports_nothing(self, repo):
        assert changed_python_files("main", cwd=repo) == []

    def test_modified_and_untracked_files_are_listed(self, repo):
        git(repo, "checkout", "-b", "feature")
        (repo / "pkg" / "a.py").write_text("A = 2\n")
        (repo / "pkg" / "c.py").write_text("C = 1\n")  # untracked
        (repo / "notes.txt").write_text("still not python\n")
        changed = changed_python_files("main", cwd=repo)
        assert [p.name for p in changed] == ["a.py", "c.py"]

    def test_deleted_files_are_skipped(self, repo):
        git(repo, "checkout", "-b", "feature")
        (repo / "pkg" / "b.py").unlink()
        git(repo, "add", "-A")
        git(repo, "commit", "-m", "drop b")
        assert changed_python_files("main", cwd=repo) == []

    def test_merge_base_ignores_changes_already_on_base(self, repo):
        git(repo, "checkout", "-b", "feature")
        (repo / "pkg" / "c.py").write_text("C = 1\n")
        git(repo, "add", "-A")
        git(repo, "commit", "-m", "feature work")
        # Advance main independently; the diff is against the fork
        # point, so main's later churn does not appear.
        git(repo, "checkout", "main")
        (repo / "pkg" / "a.py").write_text("A = 99\n")
        git(repo, "add", "-A")
        git(repo, "commit", "-m", "main churn")
        git(repo, "checkout", "feature")
        changed = changed_python_files("main", cwd=repo)
        assert [p.name for p in changed] == ["c.py"]

    def test_bad_base_raises_configuration_error(self, repo):
        with pytest.raises(ConfigurationError):
            changed_python_files("no-such-ref", cwd=repo)


class TestRestrictTo:
    def test_keeps_only_files_under_scopes(self, tmp_path):
        keep = tmp_path / "src" / "x.py"
        drop = tmp_path / "other" / "y.py"
        keep.parent.mkdir()
        drop.parent.mkdir()
        keep.touch()
        drop.touch()
        kept = restrict_to([keep, drop], [tmp_path / "src"])
        assert kept == [keep]

    def test_exact_file_scope_matches(self, tmp_path):
        f = tmp_path / "x.py"
        f.touch()
        assert restrict_to([f], [f]) == [f]
        assert restrict_to([f], [tmp_path / "z.py"]) == []
