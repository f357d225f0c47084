"""Saves append and survive being cut off.

A save writes only the patches its directory's manifest does not list yet,
then the manifest, each through a temp file and an atomic rename.  Whatever
point a save stops at, the directory loads as the old history or the new
one, and the patches it listed before are byte for byte the same.
"""

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import vgstore
import vgstore.repo
from vgstore import (
    RepositoryError,
    StateError,
    load_repository,
    repack,
    save_repository,
    serialize_ntriples,
)
from vgstore.bench import ScenarioParams, generate
from vgstore.cli import run as vg

from helpers import random_repo

NEW_PATCH = 'A <urn:ex:new> <urn:ex:p> "x" .\n'


def _state(repo):
    """What a load sees: version count, branch map and every version's text."""
    store, dag = load_repository(repo)
    return (
        len(dag),
        dag.branches,
        [serialize_ntriples(store.materialize(v), store.dictionary) for v in range(len(dag))],
    )


def _files(repo):
    root = Path(repo)
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _patches(repo):
    return {name: data for name, data in _files(repo).items() if name.startswith("deltas")}


def _unchanged(before: dict, repo) -> bool:
    after = _files(repo)
    return all(after.get(name) == data for name, data in before.items())


@pytest.fixture
def pristine(tmp_path):
    """Versions 0-5 on main, 6 on side from 2; and a patch adding one triple."""
    repo = tmp_path / "pristine"
    generate(ScenarioParams(buildings=6, stations=3, versions=6, branch_prob=0.0, seed=5), repo)
    patch = tmp_path / "new.patch"
    patch.write_text(NEW_PATCH, encoding="utf-8")
    assert vg(["branch", "--repo", str(repo), "side", "--at", "2"]) == 0
    assert vg(["commit", "--repo", str(repo), "--branch", "side", "--patch", str(patch)]) == 0
    return repo, patch


def _commands(patch):
    """Each writing command, and the files it writes: new patches plus the manifest."""
    return {
        "commit": (["commit", "--branch", "main", "--patch", str(patch)], 2),
        "branch": (["branch", "other", "--at", "1"], 1),
        "merge": (["merge", "--branch", "main", "--from", "6"], 2),
    }


def _run(argv, repo):
    return vg([argv[0], "--repo", str(repo), *argv[1:]])


def _failing_replace(monkeypatch, k):
    """Make the k-th os.replace raise OSError; returns the list of calls."""
    replace = os.replace
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == k:
            raise OSError(f"injected failure of replace {k}")
        return replace(*args, **kwargs)

    monkeypatch.setattr(os, "replace", failing)
    return calls


@pytest.mark.parametrize("command", ["commit", "branch", "merge"])
def test_a_command_cut_off_at_any_replace_leaves_the_old_state(
    pristine, tmp_path, monkeypatch, capsys, command
):
    source, patch = pristine
    argv, files = _commands(patch)[command]
    clean = tmp_path / "clean"
    shutil.copytree(source, clean)
    assert _run(argv, clean) == 0
    old, new = _state(source), _state(clean)
    assert new != old
    for k in itertools.count(1):
        repo = tmp_path / f"cut{k}"
        shutil.copytree(source, repo)
        before = _files(repo)
        with monkeypatch.context() as m:
            calls = _failing_replace(m, k)
            code = _run(argv, repo)
        if len(calls) < k:  # nothing was injected: the command ran through
            assert code == 0 and _state(repo) == new
            break
        assert code == 2
        assert "injected failure" in capsys.readouterr().err
        # the manifest is replaced last, so every failure leaves the old one
        assert _state(repo) == old
        assert _unchanged(before, repo)
        assert not list(repo.rglob("*.tmp"))
        # and the next commit appends to the old history
        assert _run(_commands(patch)["commit"][0], repo) == 0
        assert _state(repo)[0] == old[0] + 1
        assert all(_files(repo)[name] == data for name, data in _patches(source).items())
    assert k - 1 == files


def test_a_fresh_save_cut_off_at_any_replace_leaves_no_repository(tmp_path, monkeypatch):
    store, dag = random_repo(random.Random(3), allow_blanks=True)
    clean = tmp_path / "clean"
    save_repository(store, dag, clean)
    for k in itertools.count(1):
        repo = tmp_path / f"cut{k}"
        with monkeypatch.context() as m:
            calls = _failing_replace(m, k)
            try:
                save_repository(store, dag, repo)
            except OSError:
                pass
        if len(calls) < k:
            break
        # a directory without a manifest is no repository: the old state
        with pytest.raises(RepositoryError, match="missing"):
            load_repository(repo)
        assert not list(repo.rglob("*.tmp"))
        # the next save replaces the patches the failed one left unlisted
        save_repository(store, dag, repo)
        assert _files(repo) == _files(clean)
    assert k - 1 == len(dag) + 1


# `vg` with its argv after the step number, pausing at a step of its saves
# until it is killed: step 2j - 2 is just before the j-th os.replace, step
# 2j - 1 just after it.  It prints "paused" when it gets there.
_PAUSING_VG = """
import os, sys, time
from vgstore.cli import main
step = int(sys.argv.pop(1))
replace, calls = os.replace, []

def pause_at(at):
    if at == step:
        print("paused", flush=True)
        time.sleep(600)

def pausing(*args):
    calls.append(args)
    pause_at(2 * len(calls) - 2)
    replace(*args)
    pause_at(2 * len(calls) - 1)

os.replace = pausing
main()
"""


def test_a_commit_killed_at_any_step_of_its_save_loads_as_the_old_or_the_new_state(
    pristine, tmp_path
):
    source, patch = pristine
    clean = tmp_path / "clean"
    shutil.copytree(source, clean)
    argv, files = _commands(patch)["commit"]
    assert _run(argv, clean) == 0
    old, new = _state(source), _state(clean)
    env = {**os.environ, "PYTHONPATH": str(Path(vgstore.__file__).resolve().parents[1])}
    seen = []
    for step in itertools.count():
        repo = tmp_path / f"killed{step}"
        shutil.copytree(source, repo)
        before = _patches(repo)
        with subprocess.Popen(
            [sys.executable, "-c", _PAUSING_VG, str(step), argv[0], "--repo", str(repo), *argv[1:]],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ) as proc:
            try:
                if proc.stdout.readline() != "paused\n":  # ran through every step
                    assert proc.wait(timeout=60) == 0
                    assert _state(repo) == new
                    break
                # mid-save, with the writer holding the lock: readers load
                # without waiting, another writer is turned away
                during = _state(repo)
                assert vg(["stats", "--repo", str(repo)]) == 0
                assert _run(_commands(patch)["branch"][0], repo) == 2
            finally:
                proc.kill()
                proc.wait(timeout=60)
        state = _state(repo)
        assert state == during
        seen.append("new" if state == new else "old" if state == old else state)
        assert _unchanged(before, repo)
        # the next commit reuses what the killed one left and leaves no temp file
        assert _run(argv, repo) == 0
        assert _state(repo)[0] == state[0] + 1
        assert _unchanged(before, repo)
        assert not list(repo.rglob("*.tmp"))
    # before and after each replace: only the manifest's rename makes it new
    assert seen == ["old"] * (2 * files - 1) + ["new"]


def test_a_commit_serializes_and_writes_only_its_own_patch(tmp_path, monkeypatch):
    counts: Counter = Counter()
    serialize_patch, replace = vgstore.repo.serialize_patch, os.replace

    def counted_serialize(*args):
        counts["serialize_patch"] += 1
        return serialize_patch(*args)

    def counted_replace(*args):
        counts["replace"] += 1
        return replace(*args)

    monkeypatch.setattr(vgstore.repo, "serialize_patch", counted_serialize)
    monkeypatch.setattr(os, "replace", counted_replace)
    patch = tmp_path / "new.patch"
    patch.write_text(NEW_PATCH, encoding="utf-8")
    for n in (10, 40):
        repo = tmp_path / f"linear{n}"
        generate(ScenarioParams(buildings=20, stations=4, versions=n, branch_prob=0.0, seed=n), repo)
        before = _patches(repo)
        counts.clear()
        assert _run(_commands(patch)["commit"][0], repo) == 0
        assert counts == {"serialize_patch": 1, "replace": 2}
        after = _patches(repo)
        assert set(after) == set(before) | {f"deltas/{n}.patch"}
        assert all(after[name] == data for name, data in before.items())


def test_timestamps_and_provenance_compare_as_loaded_metadata(tmp_path):
    repo = tmp_path / "r"
    patch = tmp_path / "new.patch"
    patch.write_text(NEW_PATCH, encoding="utf-8")
    assert vg(["init", "--repo", str(repo), "--patch", str(patch)]) == 0
    manifest_path = repo / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    # the same instant spelled another way, and the empty provenance left out
    record = manifest["commits"][0]
    record["timestamp"] = record["timestamp"].replace("Z", "+00:00")
    record["provenance"] = {}
    manifest_path.write_text(json.dumps(manifest))
    before = _patches(repo)
    assert vg(["commit", "--repo", str(repo), "--branch", "main", "--patch", str(patch)]) == 0
    assert _unchanged(before, repo)
    assert _state(repo)[0] == 2


@pytest.mark.parametrize("other", ["repacked", "unrelated"])
def test_a_save_over_another_history_raises_and_writes_nothing(tmp_path, other):
    store, dag = random_repo(random.Random(25))  # repack moves three versions
    repo = tmp_path / "r"
    save_repository(store, dag, repo)
    if other == "repacked":
        mapping = repack(dag, store)
        assert any(old != new for old, new in mapping.items())
    else:
        store, dag = random_repo(random.Random(26))
    before = _files(repo)
    with pytest.raises(StateError, match="new directory"):
        save_repository(store, dag, repo)
    assert _files(repo) == before
    fresh = tmp_path / "fresh"
    save_repository(store, dag, fresh)
    assert _state(fresh)[0] == len(dag)


def test_generate_leaves_its_own_scenario_alone_and_refuses_any_other(tmp_path):
    def params(buildings=4, versions=3):
        return ScenarioParams(buildings=buildings, stations=2, versions=versions, seed=1)

    def stats(repo):
        return {p: (p.stat().st_ino, p.stat().st_mtime_ns) for p in Path(repo).rglob("*")}

    repo = tmp_path / "city"
    generate(params(), repo)
    before, stamps = _files(repo), stats(repo)
    generate(params(), repo)
    assert stats(repo) == stamps  # the very same scenario: nothing written
    # the same seed gives the same metadata for any size of city, so the
    # larger cities would pass the save's prefix check; the longer history
    # of the same city would append
    for other in (params(buildings=6), params(buildings=6, versions=5),
                  params(versions=5), params(versions=1)):
        with pytest.raises(StateError, match="new directory"):
            generate(other, repo)
        assert _files(repo) == before
