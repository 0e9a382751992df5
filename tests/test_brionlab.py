import json

import pytest

from kronsec.brionlab import (
    BELOW_THRESHOLD,
    boundary_scan,
    summarize,
    sweep,
    verify_equality,
    verify_vanishing,
)
from kronsec.characters import kronecker
from kronsec.errors import DomainError
from kronsec.partitions import attach_first_row, partitions_of, size


def test_vanishing_records_cover_exactly_the_short_first_rows():
    records = verify_vanishing(8, (2,), (1,))
    threshold = 8 - 3
    covered = {r.Sigma for r in records}
    expected = {s for s in partitions_of(8) if (s[0] if s else 0) < threshold}
    assert covered == expected
    assert all(r.sigma is None for r in records)
    assert all(r.lr is None for r in records)
    assert all(r.verdict == "vanishing-ok" for r in records)


def test_vanishing_serialization_marks_below_threshold():
    record = verify_vanishing(6, (1,), (1,))[0]
    payload = record.to_json()
    assert payload["sigma"] == BELOW_THRESHOLD
    assert payload["lr"] is None
    assert json.dumps(payload)  # serializable as a single JSONL line


def test_equality_records_tie_kron_to_both_lr_routes():
    records = verify_equality(8, (2,), (1,))
    assert {r.sigma for r in records} == set(partitions_of(3))
    for r in records:
        assert r.verdict == "equality-ok"
        assert r.Sigma == attach_first_row(r.sigma, 8)
        assert r.kron == r.lr
        assert r.kron == kronecker(attach_first_row((2,), 8),
                                   attach_first_row((1,), 8), r.Sigma)


def test_equality_known_multiplicities_at_n_8():
    records = {r.sigma: r for r in verify_equality(8, (2,), (1,))}
    # c^(3)_{(2),(1)} = 1, c^(2,1)_{(2),(1)} = 1, c^(1,1,1)_{(2),(1)} = 0
    assert records[(3,)].kron == 1
    assert records[(2, 1)].kron == 1
    assert records[(1, 1, 1)].kron == 0


def test_no_sigma_records_only_appear_outside_the_hypothesis():
    # Inside the range every sigma attaches (sigma_1 <= |sigma| <= n - |sigma|),
    # so no-sigma rows exist only in boundary scans.
    assert all(r.verdict != "no-sigma" for r in sweep(6))
    records = [r for r in boundary_scan(2) if r.verdict == "no-sigma"]
    assert len(records) == 2
    assert all(r.Sigma is None and r.kron is None and r.lr is None for r in records)
    payload = records[0].to_json()
    assert payload["Sigma"] is None and payload["kron"] is None


def test_hypothesis_violations_rejected():
    with pytest.raises(DomainError, match="hypothesis"):
        verify_vanishing(5, (2,), (1,))  # 3 > 5/2
    with pytest.raises(DomainError, match="hypothesis"):
        verify_equality(4, (2, 1), ())  # 3 > 4/2
    with pytest.raises(DomainError):
        verify_equality(7, (4,), ())  # 8 > 7: the completed first row is too short


def test_sweep_is_deterministic_and_clean_through_n_6():
    first = [r.to_json() for r in sweep(6)]
    second = [r.to_json() for r in sweep(6)]
    assert first == second
    text_a = "\n".join(json.dumps(x, sort_keys=True) for x in first)
    text_b = "\n".join(json.dumps(x, sort_keys=True) for x in second)
    assert text_a == text_b
    assert all(x["verdict"] != "violation" for x in first)


def test_sweep_n_max_1_emits_single_trivial_record():
    records = list(sweep(1))
    assert len(records) == 1
    r = records[0]
    assert r.n == 1 and r.lam == () and r.omega == ()
    assert r.sigma == () and r.Sigma == (1,)
    assert r.kron == 1 and r.lr == 1 and r.verdict == "equality-ok"


def test_records_past_the_default_n_cap():
    # Library functions take no caps: n = 15 is computed, not refused.
    records = verify_vanishing(15, (1,), (1,))
    assert records and all(r.verdict == "vanishing-ok" for r in records)


def test_sweep_modes_partition_the_stream():
    both = [r.to_json() for r in sweep(5)]
    vanish = [r.to_json() for r in sweep(5, mode="vanishing")]
    equal = [r.to_json() for r in sweep(5, mode="equality")]
    assert len(both) == len(vanish) + len(equal)
    assert all(x["sigma"] == BELOW_THRESHOLD for x in vanish)
    assert all(x["sigma"] != BELOW_THRESHOLD for x in equal)
    with pytest.raises(DomainError):
        list(sweep(3, mode="all"))


def test_equality_record_count_matches_attachable_targets():
    # Every small sigma appears exactly once; those with a valid completion
    # carry a Sigma, the rest are no-sigma rows.
    for n in (4, 6, 7):
        for lam, omega in (((1,), (1,)), ((2,), ()), ((1, 1), (1,))):
            if 2 * (size(lam) + size(omega)) > n:
                continue
            records = verify_equality(n, lam, omega)
            total = size(lam) + size(omega)
            assert len(records) == len(partitions_of(total))
            with_sigma = [r for r in records if r.Sigma is not None]
            attachable = [
                s for s in partitions_of(total)
                if not s or n - total >= s[0]
            ]
            assert len(with_sigma) == len(attachable)
            assert {r.sigma for r in with_sigma} == set(attachable)


def test_boundary_scan_at_2_reports_two_no_sigma_rows():
    records = list(boundary_scan(2))
    assert [r.verdict for r in records] == ["no-sigma", "no-sigma"]
    assert all(r.lam == (1,) and r.omega == (1,) for r in records)


def test_boundary_scan_stays_outside_the_sweep_range():
    for n in (2, 3, 4, 5):
        for r in boundary_scan(n):
            assert 2 * (size(r.lam) + size(r.omega)) > n
            half = (n + 1) // 2
            assert size(r.lam) <= half and size(r.omega) <= half


def test_boundary_scan_includes_the_first_interesting_pair():
    records = list(boundary_scan(4))
    pairs = {(r.lam, r.omega) for r in records}
    assert ((1,), (2,)) in pairs


def test_summarize_counts():
    records = list(sweep(4))
    counts = summarize(records)
    assert counts["records"] == len(records)
    assert counts["violations"] == 0
    assert counts["records"] == (counts["vanishing_ok"] + counts["equality_ok"]
                                 + counts["no_sigma"])
