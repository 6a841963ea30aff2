"""Crash-consistency tests: fault injection, recovery, and the CrashSim sweep.

The exhaustive sweeps at the bottom are the tentpole: power is cut at
*every* write index of the reference workload (1-shard and 4-shard
fleets) and recovery must hold all three invariants — committed data
durable, torn groups atomic, zero PD residue after erasure — from
device bytes alone.
"""

import pytest

from repro import errors
from repro.core.active_data import AccessCredential
from repro.core.clock import Clock
from repro.core.crypto import Authority
from repro.core.membrane import membrane_for_type
from repro.kernel.machine import Machine, MachineConfig
from repro.kernel.subkernel import IODriverKernel, IORequest
from repro.obs import Telemetry
from repro.storage.block import BlockDevice
from repro.storage.crashsim import (
    CrashSim,
    name_needle,
    reference_type,
    ssn_needle,
)
from repro.storage.dbfs import DatabaseFS
from repro.storage.faults import FaultInjector, FaultPlan, FaultyBlockDevice
from repro.storage.journal import Journal
from repro.storage.query import StoreRequest
from repro.storage.shard import ShardedDBFS, shard_index

DED = AccessCredential(holder="crash-ded", is_ded=True)


# ---------------------------------------------------------------------------
# FaultyBlockDevice unit behaviour
# ---------------------------------------------------------------------------


class TestPowerLoss:
    def test_cut_after_n_writes(self):
        device = FaultyBlockDevice(
            block_count=16, block_size=32,
            plan=FaultPlan(power_cut_after_writes=2, torn_tail=False),
        )
        blocks = device.allocate_many(4)
        device.write(blocks[0], b"one")
        device.write(blocks[1], b"two")
        with pytest.raises(errors.PowerLossError):
            device.write(blocks[2], b"three")
        # The rail is down: every IO fails until power_on.
        with pytest.raises(errors.PowerLossError):
            device.read(blocks[0])
        with pytest.raises(errors.PowerLossError):
            device.write(blocks[3], b"late")
        device.power_on()
        assert device.read(blocks[0]) == b"one"
        # The interrupted write never reached the medium.
        assert device._blocks[blocks[2]] == b""
        assert device.injector.stats.power_cuts == 1
        assert device.injector.stats.lost_writes == 1

    def test_cut_write_poisons_page_cache(self):
        device = FaultyBlockDevice(
            block_count=16, block_size=32,
            plan=FaultPlan(power_cut_after_writes=1, torn_tail=False),
        )
        blocks = device.allocate_many(2)
        device.write(blocks[0], b"durable")
        with pytest.raises(errors.PowerLossError):
            device.write(blocks[1], b"volatile-only")
        device.power_on()
        # The write-through cache accepted the write the medium lost —
        # exactly what remount's drop_page_cache must discard.
        assert device.scan_cache(b"volatile-only") == [blocks[1]]
        assert device._blocks[blocks[1]] == b""
        device.drop_page_cache()
        assert device.scan_cache(b"volatile-only") == []

    def test_torn_write_leaves_prefix(self):
        device = FaultyBlockDevice(
            block_count=16, block_size=32,
            plan=FaultPlan(power_cut_after_writes=0, torn_tail=True, seed=3),
        )
        block = device.allocate()
        with pytest.raises(errors.PowerLossError):
            device.write(block, b"ABCDEFGH")
        torn = device._blocks[block]
        assert 0 < len(torn) < 8
        assert b"ABCDEFGH".startswith(torn)
        assert device.injector.stats.torn_writes == 1

    def test_shared_injector_is_a_single_rail(self):
        injector = FaultInjector(FaultPlan(power_cut_after_writes=1,
                                           torn_tail=False))
        left = FaultyBlockDevice(block_count=8, block_size=32,
                                 injector=injector)
        right = FaultyBlockDevice(block_count=8, block_size=32,
                                  injector=injector)
        b_left, b_right = left.allocate(), right.allocate()
        left.write(b_left, b"ok")
        with pytest.raises(errors.PowerLossError):
            right.write(b_right, b"boom")
        # The cut on the right device killed the left one too.
        with pytest.raises(errors.PowerLossError):
            left.read(b_left)
        injector.power_on()
        assert left.read(b_left) == b"ok"


class TestTransientFaults:
    def test_transient_write_fires_once_per_attempt(self):
        device = FaultyBlockDevice(
            block_count=16, block_size=32,
            plan=FaultPlan(transient_write_every=2),
        )
        block = device.allocate()
        device.write(block, b"first")        # write attempt 1: ok
        with pytest.raises(errors.TransientIOError):
            device.write(block, b"second")   # attempt 2: faulted
        device.write(block, b"second")       # attempt 3 (the retry): ok
        assert device.read(block) == b"second"
        assert device.injector.stats.transient_write_errors == 1

    def test_transient_read(self):
        device = FaultyBlockDevice(
            block_count=16, block_size=32,
            plan=FaultPlan(transient_read_every=2),
        )
        block = device.allocate()
        device.write(block, b"data")
        assert device.read(block) == b"data"
        with pytest.raises(errors.TransientIOError):
            device.read(block)
        assert device.read(block) == b"data"

    def test_bit_flip_corrupts_only_the_returned_copy(self):
        device = FaultyBlockDevice(
            block_count=16, block_size=32, page_cache_blocks=0,
            plan=FaultPlan(bit_flip_read_every=2, seed=9),
        )
        block = device.allocate()
        device.write(block, b"payload-bytes")
        clean = device.read(block)           # read 1: clean
        flipped = device.read(block)         # read 2: flipped
        assert clean == b"payload-bytes"
        assert flipped != clean
        assert len(flipped) == len(clean)
        # The medium itself is untouched.
        assert device._blocks[block] == b"payload-bytes"
        assert device.injector.stats.bit_flips == 1


# ---------------------------------------------------------------------------
# Journal superblock resilience
# ---------------------------------------------------------------------------


class TestDualSuperblock:
    def _journal_with_records(self):
        device = BlockDevice(block_count=256, block_size=64)
        journal = Journal(device, reserved_blocks=32)
        journal.begin()
        journal.log_write("/pd/x", b"payload")
        journal.commit()
        return device, journal

    def test_remount_survives_torn_primary(self):
        device, journal = self._journal_with_records()
        extent = journal.extent
        device.write(extent[0], b"JS\x03torn")  # torn prefix, wrong length
        recovered = Journal.remount(device, extent)
        targets = [r.target for r in recovered.records() if r.target]
        assert "/pd/x" in targets

    def test_remount_survives_torn_backup(self):
        device, journal = self._journal_with_records()
        extent = journal.extent
        device.write(extent[-1], b"\x00garbage")
        recovered = Journal.remount(device, extent)
        targets = [r.target for r in recovered.records() if r.target]
        assert "/pd/x" in targets

    def test_both_copies_corrupt_is_fatal(self):
        device, journal = self._journal_with_records()
        extent = journal.extent
        device.write(extent[0], b"xx")
        device.write(extent[-1], b"yy")
        with pytest.raises(errors.JournalError):
            Journal.remount(device, extent)

    def test_power_cut_during_superblock_update_is_recoverable(self):
        # Drive a real journal over a faulty device and cut power at
        # every single write index of a short run; remount must never
        # fail on superblock corruption.
        plain = BlockDevice(block_count=256, block_size=64)
        probe = Journal(plain, reserved_blocks=16)
        for i in range(4):
            probe.begin()
            probe.log_write(f"/pd/{i}", b"v" * 40)
            probe.commit()
        total_writes = plain.stats.writes
        for cut in range(total_writes):
            device = FaultyBlockDevice(
                block_count=256, block_size=64,
                plan=FaultPlan(power_cut_after_writes=cut),
            )
            try:
                journal = Journal(device, reserved_blocks=16)
            except errors.PowerLossError:
                # Power died during mkfs — no journal to recover.
                continue
            try:
                for i in range(4):
                    journal.begin()
                    journal.log_write(f"/pd/{i}", b"v" * 40)
                    journal.commit()
            except errors.PowerLossError:
                pass
            device.power_on()
            device.drop_page_cache()
            recovered = Journal.remount(device, journal.extent)
            # Every committed record that survived is intact and in order.
            sequences = [r.sequence for r in recovered.records()]
            assert sequences == sorted(sequences)


# ---------------------------------------------------------------------------
# NVMe driver retry path
# ---------------------------------------------------------------------------


class TestDriverRetry:
    def _flaky_driver(self, failures):
        state = {"calls": 0}

        def driver(request):
            state["calls"] += 1
            if state["calls"] <= failures:
                raise errors.TransientIOError("nvme: command timeout")
            return b"ok"

        return driver, state

    def test_transient_errors_are_absorbed(self):
        driver, state = self._flaky_driver(failures=2)
        clock = Clock()
        kernel = IODriverKernel("drv-nvme", "nvme", driver, clock=clock)
        assert kernel.serve(IORequest(op="read", target="blk:0")) == b"ok"
        assert state["calls"] == 3
        assert kernel.transient_errors == 2
        assert kernel.io_retries == 2
        assert kernel.retries_exhausted == 0
        # Backoff was charged to the simulated clock: 100us + 200us.
        assert clock.now() == pytest.approx(300e-6)

    def test_retry_budget_exhausted(self):
        driver, state = self._flaky_driver(failures=100)
        kernel = IODriverKernel(
            "drv-nvme", "nvme", driver, retry_limit=2, clock=Clock()
        )
        with pytest.raises(errors.TransientIOError):
            kernel.serve(IORequest(op="write", target="blk:1", payload=b"x"))
        assert state["calls"] == 3  # 1 attempt + 2 retries
        assert kernel.retries_exhausted == 1

    def test_power_loss_is_not_retried(self):
        def driver(request):
            raise errors.PowerLossError("rail down")

        kernel = IODriverKernel("drv-nvme", "nvme", driver, clock=Clock())
        with pytest.raises(errors.PowerLossError):
            kernel.serve(IORequest(op="read", target="blk:0"))
        assert kernel.io_retries == 0

    def test_telemetry_counters(self):
        driver, _ = self._flaky_driver(failures=1)
        telemetry = Telemetry()
        kernel = IODriverKernel(
            "drv-nvme", "nvme", driver, clock=Clock(), telemetry=telemetry
        )
        kernel.serve(IORequest(op="read", target="blk:0"))
        registry = telemetry.registry
        assert registry.counter("io.nvme.transient_errors").value == 1
        assert registry.counter("io.nvme.retries").value == 1
        assert registry.counter("io.nvme.exhausted").value == 0

    def test_machine_wires_retry_config(self):
        config = MachineConfig(io_retry_limit=5, io_retry_backoff_seconds=1e-3)
        machine = Machine(
            drivers={"nvme": lambda request: b""}, config=config
        ).boot()
        kernel = machine.driver_kernels["nvme"]
        assert kernel.retry_limit == 5
        assert kernel.backoff_seconds == 1e-3
        assert kernel.clock is machine.clock


# ---------------------------------------------------------------------------
# Volume roots
# ---------------------------------------------------------------------------


class TestVolumeRoots:
    @pytest.mark.parametrize(
        "role",
        ["subjects-root", "schema-root", "formats-root", "indexes-root"],
    )
    def test_missing_root_is_not_a_volume(self, role):
        """Every DBFS volume carries all four roots; lacking one, the
        remount refuses the volume instead of inventing the root."""
        fs = DatabaseFS()
        fs.create_type(reference_type(), DED)
        for number in fs.inodes.numbers():
            attrs = fs.inodes.get(number).attrs
            if attrs.get("role") == role:
                del attrs["role"]
        with pytest.raises(errors.DBFSError, match=role):
            DatabaseFS.remount_from_device(fs.device, fs.inodes)


# ---------------------------------------------------------------------------
# Degraded-shard isolation
# ---------------------------------------------------------------------------


class TestDegradedShards:
    def _fleet_with_data(self):
        authority = Authority(bits=512, seed=5)
        fleet = ShardedDBFS(
            shard_count=2,
            operator_key=authority.issue_operator_key("deg-op"),
            journal_blocks=64,
        )
        fleet.create_type(reference_type(), DED)
        # One subject per shard.
        subjects = {}
        i = 0
        while len(subjects) < 2:
            subject = f"subject-{i}"
            subjects.setdefault(shard_index(subject, 2), subject)
            i += 1
        uids = {}
        for index, subject in subjects.items():
            membrane = membrane_for_type(reference_type(), subject,
                                         created_at=0.0)
            ref = fleet.store(
                StoreRequest(
                    pd_type="crash_user",
                    record={"name": f"n{index}", "ssn": f"s{index}",
                            "year": 2000},
                    membrane_json=membrane.to_json(),
                ),
                DED,
            )
            uids[index] = ref.uid
        return fleet, subjects, uids

    def test_one_corrupt_shard_degrades_instead_of_killing_the_fleet(self):
        fleet, subjects, uids = self._fleet_with_data()
        victim = fleet._shards[1]
        extent = victim.journal.extent
        # Destroy both superblock copies of shard 1's journal.
        victim.device.write(extent[0], b"xx")
        victim.device.write(extent[-1], b"yy")
        recovered = ShardedDBFS.remount_from_devices(
            [shard.device for shard in fleet._shards],
            [shard.inodes for shard in fleet._shards],
        )
        assert set(recovered.degraded_shards) == {1}
        assert recovered.recovery_report["degraded"]
        # The healthy shard keeps serving reads and scatter-gather.
        assert recovered.all_uids() == [uids[0]]
        assert recovered.list_types() == ["crash_user"]
        # Anything routed at the degraded shard fails loudly.
        with pytest.raises(errors.ShardUnavailableError):
            recovered.get_membrane(uids[1], DED)
        with pytest.raises(errors.ShardUnavailableError):
            membrane = membrane_for_type(reference_type(), subjects[1],
                                         created_at=0.0)
            recovered.store(
                StoreRequest(
                    pd_type="crash_user",
                    record={"name": "x", "ssn": "y", "year": 1},
                    membrane_json=membrane.to_json(),
                ),
                DED,
            )
        # shard_stats reports the degradation instead of raising.
        stats = recovered.shard_stats()
        assert stats[1]["degraded"] is True

    def test_every_shard_degraded_fails_schema_reads(self):
        fleet, _, _ = self._fleet_with_data()
        for shard in fleet._shards:
            extent = shard.journal.extent
            shard.device.write(extent[0], b"xx")
            shard.device.write(extent[-1], b"yy")
        recovered = ShardedDBFS.remount_from_devices(
            [shard.device for shard in fleet._shards],
            [shard.inodes for shard in fleet._shards],
        )
        assert set(recovered.degraded_shards) == {0, 1}
        with pytest.raises(errors.ShardUnavailableError):
            recovered.list_types()


# ---------------------------------------------------------------------------
# CrashSim: the exhaustive power-cut sweeps
# ---------------------------------------------------------------------------


class TestCrashSweep:
    def _assert_sweep_passes(self, report):
        detail = "\n".join(
            f"cut={trial.cut_after} steps={trial.completed_steps} "
            f"failures={trial.failures}"
            for trial in report.failing_trials()
        )
        assert report.passed, f"crash sweep failed:\n{detail}"
        assert report.workload_writes > 0
        assert len(report.trials) == report.workload_writes

    def test_single_shard_every_write_index(self):
        self._assert_sweep_passes(CrashSim(shard_count=1).sweep())

    def test_four_shards_every_write_index(self):
        self._assert_sweep_passes(CrashSim(shard_count=4).sweep())

    def test_sweep_actually_crashes(self):
        report = CrashSim(shard_count=1).sweep()
        assert any(trial.crashed for trial in report.trials)
        # Early cuts crash before any step completes; late cuts let the
        # whole workload through — both ends are exercised.
        assert any(not trial.completed_steps for trial in report.trials)
        assert any(
            "erase:0" in trial.completed_steps for trial in report.trials
        )

    def test_rtbf_holds_through_mid_erasure_crashes(self):
        # The satellite invariant in isolation: for every cut landing
        # inside the erase step, recovery leaves zero residue of the
        # erased subject (medium, journal extent, page cache) or the
        # record intact — never a half-erased state.
        sim = CrashSim(shard_count=1)
        report = sim.sweep()
        mid_erase = [
            trial
            for trial in report.trials
            if "batch:2,3" in trial.completed_steps
            and "erase:0" not in trial.completed_steps
            and trial.crashed
        ]
        assert mid_erase, "no cut landed inside the erase step"
        for trial in mid_erase:
            assert trial.ok, trial.failures

    def test_recovery_reports_are_surfaced(self):
        sim = CrashSim(shard_count=1)
        report = sim.sweep(limit=5)
        for trial in report.trials:
            assert "records" in trial.recovery_report

    def test_erasure_needles_absent_after_full_workload_crash(self):
        # Cut at the very last write: the workload completed, subject 0
        # is erased; remount and scan everything for its needles.
        sim = CrashSim(shard_count=1)
        format_writes, total = sim.measure()
        trial = sim.run_trial(total - 1)
        assert trial.ok, trial.failures

    @pytest.mark.parametrize("shards", [1, 4])
    def test_ownership_oracle_flags_unowned_block(self, shards):
        # The oracle is live: a clean recovery passes it, and one
        # non-empty block no owner references fails it, by shard and
        # block number.
        sim = CrashSim(shard_count=shards)
        _, devices, fs = sim._build(FaultPlan(seed=sim.seed))
        progress, uids = [], {}
        sim.run_workload(fs, progress, uids)
        recovered = sim._remount(fs, devices)
        assert sim.check_invariants(recovered, devices, progress, uids) == []
        stray = devices[-1]
        stray.write(stray.block_count - 1, b"leftover bytes")
        assert sim.check_invariants(recovered, devices, progress, uids) == [
            f"unowned non-empty blocks after recovery on shard "
            f"{shards - 1}: [{stray.block_count - 1}]"
        ]
