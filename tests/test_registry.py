import hashlib
import os

import pytest

from helpers import corrupt_family
from qabel.abel import FamilyId
from qabel.registry import (
    MissingParam,
    UnknownIdentity,
    check_identity,
    enumerate_checks,
    get_identity,
    identity_ids,
    verify,
    worker_count,
)


class TestCheckIdentity:
    def test_q_abel_expansion(self):
        result = check_identity("1.3", {"n": 3})
        assert result.passed
        assert result.difference is None
        assert result.params == {"n": 3}

    def test_classical_alternating_sum(self):
        assert check_identity("0.17", {"n": 2}).passed

    def test_collapsing_product_sum(self):
        assert check_identity("5.9", {"n": 1}).passed

    def test_ladder(self):
        assert check_identity("3.4", {"n": 2}).passed

    def test_series_identity(self):
        assert check_identity("4.13", {"N": 5}).passed

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            check_identity("99.1", {"n": 1})

    def test_missing_param(self):
        with pytest.raises(MissingParam):
            check_identity("2.1", {"n": 3})

    def test_elapsed_recorded(self):
        result = check_identity("1.3", {"n": 2})
        assert result.elapsed >= 0


class TestEnumeration:
    def test_single_n_range(self):
        tasks = enumerate_checks(["1.3"], max_n=4, order=8)
        assert tasks == [("1.3", {"n": n}) for n in range(5)]

    def test_triangular(self):
        tasks = enumerate_checks(["2.1"], max_n=3, order=8)
        assert len(tasks) == 10
        assert all(p["k"] <= p["n"] for _, p in tasks)

    def test_series_order(self):
        tasks = enumerate_checks(["1.9"], max_n=6, order=5)
        assert tasks == [("1.9", {"N": 5})]

    def test_capped_series_families(self):
        tasks = enumerate_checks(["post-2.4"], max_n=6, order=8)
        assert [p["n"] for _, p in tasks] == [0, 1, 2, 3]

    def test_constraint_grids(self):
        for _, p in enumerate_checks(["5.6"], max_n=6, order=8):
            assert p["i"] >= 1 and p["k"] >= p["i"] + p["m"]

    @pytest.mark.parametrize(
        "max_n, order, count, digest",
        [
            (0, 0, 38, "a32999245916e906"),
            (2, 3, 143, "38a0e2033f9dfaea"),
            (3, 4, 219, "066ba5bed642d8fd"),
            (6, 8, 529, "83f78911ded9d6e7"),
            (9, 11, 930, "8950bc7d36a36730"),
        ],
    )
    def test_enumeration_pinned(self, max_n, order, count, digest):
        # The repr covers every (id, params) pair and the key order of each
        # params dict, which `verify --json` prints.
        tasks = enumerate_checks(max_n=max_n, order=order)
        assert len(tasks) == count
        assert hashlib.sha256(repr(tasks).encode()).hexdigest()[:16] == digest

    def test_repeated_id_enumerated_once(self):
        tasks = enumerate_checks(["5.4", "1.9", "5.4"], max_n=1, order=2)
        assert tasks == [("5.4", {"k": 0}), ("5.4", {"k": 1}), ("1.9", {"N": 2})]

    def test_all_ids_enumerate(self):
        tasks = enumerate_checks(max_n=2, order=3)
        covered = {identity_id for identity_id, _ in tasks}
        assert covered == set(identity_ids())


class TestVerify:
    def test_full_registry_small_ranges(self):
        results = verify(max_n=3, order=4)
        failures = [r for r in results if not r.passed]
        assert failures == []

    def test_sorted_deterministic(self):
        results = verify(["2.2", "1.3"], max_n=3, order=4)
        keys = [(r.identity_id, tuple(sorted(r.params.items()))) for r in results]
        assert keys == sorted(keys)


class TestWorkerCount:
    """The helper starts nothing, so extreme job counts are safe to ask."""

    def test_capped_by_groups_and_cpus(self):
        groups = len(identity_ids())
        assert 1 <= worker_count(10**6, groups) <= min(groups, os.cpu_count())
        assert worker_count(10**6, 3) <= 3

    def test_one_job_or_one_group_runs_here(self):
        assert worker_count(1, 40) == 1
        assert worker_count(10**6, 1) == 1
        assert worker_count(10**6, 0) == 1

    def test_no_fork_means_one_worker(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert worker_count(10**6, 40) == 1


class TestMutationSensitivity:
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_each_family_is_load_bearing(self, family):
        with corrupt_family(family, n=2):
            results = verify(max_n=3, order=4)
        assert any(not r.passed for r in results), f"no identity noticed a corrupted {family}"

    @pytest.mark.parametrize(
        "family, fails, digest",
        [
            (FamilyId.CLASSICAL, 4, "e4b7148e4b5ad5b7"),
            (FamilyId.A, 15, "a1bec9a0b4de110e"),
            (FamilyId.G, 17, "8f68f1e5c6ca1bcf"),
            (FamilyId.B_PLAIN, 4, "3e273077088f9a4c"),
            (FamilyId.B_GENERAL, 5, "f9baa4b34d527c27"),
            (FamilyId.W, 2, "485ac2531652fcf3"),
            (FamilyId.S, 2, "0f715b4a285542f6"),
        ],
    )
    def test_failing_differences_pinned(self, family, fails, digest):
        # Pins the exact text of every failing difference, not just the
        # verdicts, so a refactor of a checker cannot flip its orientation.
        with corrupt_family(family, n=2):
            results = verify(max_n=3, order=4)
        assert sum(not r.passed for r in results) == fails
        text = "\n".join(f"{r.identity_id} {r.params} {r.status} {r.difference}" for r in results)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_failure_reports_difference(self):
        with corrupt_family(FamilyId.A, n=3):
            result = check_identity("1.3", {"n": 3})
        assert not result.passed
        assert result.status == "fail"
        assert result.difference


class TestRegistryMetadata:
    def test_every_identity_has_description_and_range(self):
        for identity_id in identity_ids():
            ident = get_identity(identity_id)
            assert ident.description
            assert ident.verified
            assert ident.params
