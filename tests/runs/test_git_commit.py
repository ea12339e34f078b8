"""``git_commit`` reads HEAD from the repository files; ``git rev-parse``
is its oracle in every state a checkout can be in."""

import os
import shutil
import subprocess

import pytest

from repro.runs.manifest import git_commit

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="git is not on PATH")


def _git(cwd, *args) -> str:
    env = {**os.environ, "GIT_CONFIG_GLOBAL": os.devnull,
           "GIT_CONFIG_NOSYSTEM": "1",
           "GIT_AUTHOR_NAME": "repro", "GIT_AUTHOR_EMAIL": "repro@example.org",
           "GIT_COMMITTER_NAME": "repro",
           "GIT_COMMITTER_EMAIL": "repro@example.org"}
    return subprocess.run(["git", "-c", "init.defaultBranch=main", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


def _expected(cwd) -> str:
    return _git(cwd, "rev-parse", "--short=7", "HEAD")


@pytest.fixture
def repo(tmp_path):
    """A checkout of two commits on ``main``."""
    root = tmp_path / "repo"
    root.mkdir()
    _git(root, "init", "-q")
    for text in ("first", "second"):
        (root / "file.txt").write_text(text)
        _git(root, "add", "file.txt")
        _git(root, "commit", "-q", "-m", text)
    return root


def test_loose_ref_from_a_subdirectory(repo, monkeypatch):
    nested = repo / "a" / "b"
    nested.mkdir(parents=True)
    monkeypatch.chdir(nested)
    assert (repo / ".git" / "refs" / "heads" / "main").is_file()
    assert git_commit() == _expected(repo)


def test_packed_refs(repo, monkeypatch):
    _git(repo, "pack-refs", "--all")
    assert not (repo / ".git" / "refs" / "heads" / "main").exists()
    monkeypatch.chdir(repo)
    assert git_commit() == _expected(repo)


def test_detached_head(repo, monkeypatch):
    _git(repo, "checkout", "-q", "--detach", "HEAD~1")
    monkeypatch.chdir(repo)
    assert git_commit() == _expected(repo)
    assert git_commit() != _git(repo, "rev-parse", "--short=7", "main")


def test_linked_worktree(repo, tmp_path, monkeypatch):
    worktree = tmp_path / "worktree"
    _git(repo, "worktree", "add", "-q", "-b", "side", str(worktree),
         "HEAD~1")
    assert (worktree / ".git").is_file()
    monkeypatch.chdir(worktree)
    assert git_commit() == _expected(worktree)
    assert git_commit() != _expected(repo)


def test_none_outside_a_checkout_or_before_the_first_commit(tmp_path,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert git_commit() is None
    _git(tmp_path, "init", "-q")
    assert git_commit() is None
