"""CrashSim end-to-end: seeded crash plans must recover a committed
prefix with a clean fsck.

Three layers of assurance, cheapest first:

* hand-picked plans covering each crash mode / policy / fault family
  deterministically;
* a Hypothesis property over *random* plans × all four sync policies ×
  random workloads (satellite 1 of the ISSUE);
* a fast subset of the CI crash sweep (the full ≥200-plan sweep runs as
  its own CI job via ``python -m repro.faults.drill crash``).
"""

from __future__ import annotations

import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import CrashSim, FaultPlan, FaultRule, drill, random_plan
from repro.faults.drill import (
    SEED_STRIDE,
    main,
    run_sweep,
    state_fingerprint,
    sweep_plans,
)
from repro.storage.journal import JOURNAL_NAME, SYNC_POLICIES

#: Base seed of the tier-1 smoke subset — the same seed CI's full sweep
#: uses, so the smoke plans are a strict prefix of the CI grid.
SMOKE_SEED = 20260806


def _run(plan):
    with tempfile.TemporaryDirectory(prefix="crashsim-test-") as root:
        return CrashSim(plan, root).run()


class TestFixedPlans:
    @pytest.mark.parametrize("policy", SYNC_POLICIES)
    def test_pure_crash_recovers(self, policy):
        plan = FaultPlan(seed=7, policy=policy, units=6, stop_at_unit=4)
        report = _run(plan)
        assert report.ok, report.summary()
        assert report.facts["completed_units"] == 4
        assert not report.facts["crashed_by_fault"]

    @pytest.mark.parametrize("policy", SYNC_POLICIES)
    def test_torn_write_recovers(self, policy):
        plan = FaultPlan(seed=11, policy=policy, units=8, rules=[
            FaultRule(site="journal.write_record", action="torn",
                      nth=5, torn_bytes=6),
        ])
        report = _run(plan)
        assert report.ok, report.summary()

    def test_lying_fsync_under_power_cut(self):
        # The adversarial pairing: a lying fsync claims durability while
        # the power cut only honors *real* fsyncs — recovery must still
        # land on a committed prefix (the lie just lowers the floor).
        plan = FaultPlan(seed=13, policy="commit", crash_mode="power",
                         units=8, rules=[
                             FaultRule(site="journal.fsync", action="skip",
                                       nth=2, count=None),
                         ])
        report = _run(plan)
        assert report.ok, report.summary()

    def test_fsync_error_crashes_and_recovers(self):
        plan = FaultPlan(seed=17, policy="always", units=10, rules=[
            FaultRule(site="journal.fsync", action="error", nth=4),
        ])
        report = _run(plan)
        assert report.ok, report.summary()
        assert report.facts["crashed_by_fault"]
        assert "journal.fsync:error#4" in report.fired

    def test_reports_are_deterministic(self):
        plan = random_plan(20260806)
        first, second = _run(plan), _run(plan)
        assert first.ok and second.ok
        assert first.fired == second.fired
        for fact in ("completed_units", "crashed_by_fault", "surviving_bytes",
                     "recovered_index", "durable_floor"):
            assert first.facts[fact] == second.facts[fact]

    def test_report_summary_is_reproduction_line(self):
        report = _run(FaultPlan(seed=23, policy="group", stop_at_unit=3))
        text = report.summary()
        assert "seed=23" in text
        assert "policy=group" in text
        assert "[ok]" in text


class TestFingerprint:
    def test_abort_restores_member_order(self):
        # The fingerprint compares exact images, member order included:
        # an abort puts a removed member back where it was, so the
        # rolled-back state fingerprints like the one before it.
        from repro import AttributeSpec, Database, SetOf
        from repro.txn import TransactionManager

        db = Database()
        db.make_class("P")
        db.make_class("S", attributes=[
            AttributeSpec("Members", domain=SetOf("P"), composite=True,
                          exclusive=False, dependent=True),
        ])
        a, b = db.make("P"), db.make("P")
        section = db.make("S")
        for member in (a, b):
            db.insert_into(section, "Members", member)
        before = state_fingerprint(db)
        tm = TransactionManager(db)
        txn = tm.begin()
        tm.remove(txn, section, "Members", a)
        tm.insert(txn, section, "Members", a)
        assert state_fingerprint(db) != before  # same members, new order
        tm.abort(txn)
        assert state_fingerprint(db) == before


class TestSweep:
    def test_seed_grid_round_robins_policies(self):
        plans = sweep_plans("crash", 100, 6)
        assert [plan.policy for plan in plans] == \
            list(SYNC_POLICIES) + list(SYNC_POLICIES[:2])
        assert [plan.seed for plan in plans] == \
            [100 + i * SEED_STRIDE for i in range(6)]

    def test_ci_plan_set_is_pinned(self):
        # The 200 plans CI runs from seed 20260806 are a fixed set: a
        # generator change that re-deals them silently drops every
        # regression seed the sweep has ever caught.
        assert [p.describe() for p in sweep_plans("crash", SMOKE_SEED, 8)] == [
            "seed=20260806 policy=always crash=power units=7/10 "
            "rules=[no-fault]",
            "seed=20360809 policy=commit crash=kill units=10/10 "
            "rules=[no-fault]",
            "seed=20460812 policy=group crash=kill units=10/12 "
            "rules=[no-fault]",
            "seed=20560815 policy=none crash=kill units=4/11 "
            "rules=[journal.write_record:error@39]",
            "seed=20660818 policy=always crash=power units=3/7 "
            "rules=[journal.fsync:skip@4+, journal.fsync:error@10]",
            "seed=20760821 policy=commit crash=power units=3/7 "
            "rules=[journal.fsync:error@4, journal.fsync:skip@10x2]",
            "seed=20860824 policy=group crash=kill units=3/12 "
            "rules=[no-fault]",
            "seed=20960827 policy=none crash=power units=2/7 "
            "rules=[journal.fsync:skip@2x2]",
        ]

    def test_smoke_subset_of_ci_sweep_is_clean(self):
        # Tier-1 smoke (satellite 5): the first 24 plans of the CI grid
        # — 6 per policy — must recover clean.  The full 200-plan run is
        # the dedicated CI job.
        failures = [r for r in run_sweep("crash", SMOKE_SEED, 24) if not r.ok]
        assert failures == [], [f.summary() for f in failures]

    def test_cli_reports_and_exits_zero(self, capsys):
        assert main(["crash", "--plans", "8", "--seed", str(SMOKE_SEED)]) == 0
        out = capsys.readouterr().out
        assert "crash sweep: 8/8 plans recovered clean" in out

    def test_cli_verbose_prints_every_plan(self, capsys):
        reports = run_sweep("crash", SMOKE_SEED, 4, verbose=True)
        assert all(r.ok for r in reports)
        assert capsys.readouterr().out.count("ok    ") == 4

    def test_cli_rejects_bad_plan_count(self):
        with pytest.raises(SystemExit) as usage:
            main(["crash", "--plans", "0"])
        assert usage.value.code == 2

    def test_cli_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit) as usage:
            main(["meteor", "--plans", "1"])
        assert usage.value.code == 2

    def test_cli_rejects_flags_the_scenario_cannot_honour(self):
        for argv in (["shard", "--policy", "commit"],
                     ["crash", "--record-traces", "traces"]):
            with pytest.raises(SystemExit) as usage:
                main(argv + ["--plans", "1"])
            assert usage.value.code == 2

    def test_failing_plan_exits_one_with_a_rerun_line(self, monkeypatch,
                                                      capsys):
        # Break the committed-prefix oracle: nothing recovery lands on
        # matches a captured boundary any more.
        from repro.faults import crashsim

        monkeypatch.setattr(crashsim, "last_match", lambda states, s: None)
        assert main(["crash", "--plans", "2", "--seed", str(SMOKE_SEED)]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL  crash seed=") == 2
        assert "not a committed prefix" in out
        assert ("rerun: python -m repro.faults.drill crash --plans 1 "
                f"--seed {SMOKE_SEED} --policy always") in out
        assert "crash sweep: 0/2 plans recovered clean" in out


class TestReproduction:
    """The failure line's command, pasted back, re-creates the plan."""

    @pytest.mark.parametrize("scenario", sorted(drill.SCENARIOS))
    def test_command_round_trips_through_the_cli_grammar(self, scenario):
        for plan in sweep_plans(scenario, 20260806, 9)[1::3]:
            command = drill.DrillReport(plan, scenario).command
            match = re.fullmatch(
                r"python -m repro\.faults\.drill (\w+) --plans 1 "
                r"--seed (\d+)(?: --policy (\w+))?", command,
            )
            assert match, command
            name, seed, policy = match.groups()
            (again,) = sweep_plans(name, int(seed), 1, policy)
            assert again.describe() == plan.describe()

    def test_hand_built_plan_has_no_command(self):
        plan = FaultPlan(seed=7, policy="commit", units=6, stop_at_unit=4)
        assert drill.DrillReport(plan, "crash").command is None

    def test_truncated_journal_falls_below_the_durable_floor(
            self, monkeypatch):
        # Lose everything past the checkpoint: the recovered state is
        # still a committed prefix, but one below what ``commit`` sync
        # had guaranteed — the floor oracle must say so.
        from repro.faults import crashsim

        def lossy_copy(store, scratch, cut=None):
            drill.crash_copy(store, scratch, lambda flushed: 0)
            return (store / JOURNAL_NAME).stat().st_size

        monkeypatch.setattr(crashsim, "crash_copy", lossy_copy)
        report = _run(FaultPlan(seed=7, policy="commit", units=6))
        assert not report.ok
        assert report.facts["recovered_index"] < report.facts["durable_floor"]
        assert re.search(r"durable state '.*' \(floor \d+\) lost: recovery "
                         r"landed on index \d+", report.problems[0])


class TestRandomPlansProperty:
    @settings(deadline=None, max_examples=12)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           policy=st.sampled_from(SYNC_POLICIES))
    def test_random_fault_plan_recovers_committed_prefix(self, seed, policy):
        # Satellite 1: random fault plans × every sync policy × random
        # workloads ⇒ committed-prefix recovery and zero fsck findings.
        report = _run(random_plan(seed, policy=policy))
        assert report.ok, report.summary()
        assert report.facts["fsck_clean"], report.facts["fsck_summary"]
