"""Tests for the end-to-end integrity layer (repro.integrity).

Covers the ABFT checksum path on the functional kernels, the per-tile
digest seal on both weight formats, KV content tags, integrity
policies, the C-family lint, and the three-arm SDC harness — including
the acceptance regression: a corrupted-then-detected request must never
land in the completed bucket under a verifying policy.
"""

import json

import numpy as np
import pytest

from repro.analysis import (
    check_builtin_integrity_artifacts,
    lint_integrity_outcome,
    lint_integrity_policy,
)
from repro.core.tca_bme import encode
from repro.formats.tiled_csl import TiledCSLMatrix
from repro.integrity import (
    BROKEN_INTEGRITY_POLICIES,
    INTEGRITY_POLICIES,
    IntegrityConfig,
    IntegrityError,
    IntegrityPolicy,
    get_integrity_policy,
    integrity_report_json,
    output_colsum_gap,
    run_integrity,
    verification_cost_frac,
    verification_flops,
    verify_output,
    weight_checksum,
)
from repro.kernels import SpMMProblem, make_kernel
from repro.kernels.dispatch import KernelDispatcher
from repro.llm.kv_cache import KVBlockAllocator


def random_problem(m, k, n, sparsity=0.6, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, k)).astype(np.float16)
    w[rng.random((m, k)) < sparsity] = 0
    x = rng.standard_normal((k, n)).astype(np.float16)
    return w, x


class TestABFT:
    def test_clean_product_passes(self):
        w, x = random_problem(128, 96, 16, seed=1)
        c = weight_checksum(w)
        y = w.astype(np.float32) @ x.astype(np.float32)
        gap = verify_output(y, x, c)
        assert gap >= 0.0
        assert gap == output_colsum_gap(y, x, c)

    def test_empty_batch_passes(self):
        w, x = random_problem(128, 96, 0, seed=1)
        y = np.zeros((128, 0), dtype=np.float32)
        assert verify_output(y, x, weight_checksum(w)) == 0.0

    def test_corrupted_output_caught(self):
        w, x = random_problem(128, 96, 16, seed=2)
        c = weight_checksum(w)
        y = w.astype(np.float32) @ x.astype(np.float32)
        y[13, 5] += 0.5
        with pytest.raises(IntegrityError):
            verify_output(y, x, c)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_output_caught(self, value):
        w, x = random_problem(128, 96, 16, seed=2)
        c = weight_checksum(w)
        y = w.astype(np.float32) @ x.astype(np.float32)
        y[13, 5] = value
        with pytest.raises(IntegrityError, match="non-finite"):
            verify_output(y, x, c)

    def test_cost_model(self):
        m, k, n = 4096, 4096, 16
        assert verification_flops(m, k, n) == 2 * k * n + m * n
        frac = verification_cost_frac(m, k, n)
        assert 0.0 < frac < 0.01  # cheap relative to 2mkn


class TestFormatSeals:
    def test_tca_bme_seal_and_catch(self):
        w, x = random_problem(64, 64, 8, seed=3)
        enc = encode(w).seal()
        assert enc.sealed
        assert enc.corrupted_groups() == []
        enc.verify_digests()  # no raise
        enc.corrupt_group(0)
        assert enc.corrupted_groups() == [0]
        with pytest.raises(ValueError):
            enc.verify_digests()

    def test_tiled_csl_seal_and_catch(self):
        w, x = random_problem(64, 64, 8, seed=4)
        enc = TiledCSLMatrix.from_dense(w).seal()
        assert enc.sealed
        assert enc.corrupted_tiles() == []
        enc.corrupt_tile(0)
        assert enc.corrupted_tiles() == [0]
        with pytest.raises(ValueError):
            enc.verify_digests()

    def test_unsealed_verify_rejected(self):
        w, _ = random_problem(32, 32, 4, seed=5)
        with pytest.raises(ValueError):
            encode(w).corrupted_groups()


class TestKernelVerify:
    def test_spinfer_verify_clean(self):
        w, x = random_problem(128, 96, 16, seed=6)
        kernel = make_kernel("spinfer")
        enc = encode(w, kernel.tile_config).seal()
        out = kernel.run_encoded(enc, x, verify=True)
        ref = w.astype(np.float32) @ x.astype(np.float32)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3)

    def test_spinfer_unsealed_rejected(self):
        w, x = random_problem(64, 64, 8, seed=7)
        kernel = make_kernel("spinfer")
        with pytest.raises(IntegrityError):
            kernel.run_encoded(encode(w, kernel.tile_config), x, verify=True)

    def test_spinfer_catches_weight_corruption(self):
        w, x = random_problem(64, 64, 8, seed=8)
        kernel = make_kernel("spinfer")
        enc = encode(w, kernel.tile_config).seal()
        enc.corrupt_group(0)
        with pytest.raises(IntegrityError):
            kernel.run_encoded(enc, x, verify=True)
        # without verify the corrupted product is served silently
        out = kernel.run_encoded(enc, x, verify=False)
        ref = w.astype(np.float32) @ x.astype(np.float32)
        assert not np.allclose(out, ref, rtol=1e-3, atol=1e-3)

    def test_spinfer_nan_output_fails_closed(self, monkeypatch):
        # A decode fault that leaves the stored (digested) data intact
        # but puts a NaN into one decoded weight — and so into Y.
        import repro.kernels.spinfer as spinfer_mod

        real_decode = spinfer_mod.decode_matrix

        def nan_decode(*args, **kwargs):
            tiles, stats = real_decode(*args, **kwargs)
            tiles = tiles.copy()
            tiles.reshape(-1)[0] = np.nan
            return tiles, stats

        monkeypatch.setattr(spinfer_mod, "decode_matrix", nan_decode)
        w, x = random_problem(64, 64, 8, seed=10)
        kernel = make_kernel("spinfer")
        enc = encode(w, kernel.tile_config).seal()
        assert np.isnan(kernel.run_encoded(enc, x)).any()
        with pytest.raises(IntegrityError, match="non-finite"):
            kernel.run_encoded(enc, x, verify=True)

    def test_spinfer_nan_activation_fails_closed(self):
        w, x = random_problem(64, 64, 8, seed=11)
        x[3, 2] = np.nan
        kernel = make_kernel("spinfer")
        enc = encode(w, kernel.tile_config).seal()
        with pytest.raises(IntegrityError, match="non-finite"):
            kernel.run_encoded(enc, x, verify=True)

    def test_flash_llm_catches_weight_corruption(self):
        w, x = random_problem(64, 64, 8, seed=9)
        kernel = make_kernel("flash_llm")
        enc = TiledCSLMatrix.from_dense(w).seal()
        out = kernel.run_encoded(enc, x, verify=True)
        ref = w.astype(np.float32) @ x.astype(np.float32)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3)
        enc.corrupt_tile(0)
        with pytest.raises(IntegrityError):
            kernel.run_encoded(enc, x, verify=True)


class TestDispatchVerifyCost:
    def test_verify_mode_charges_check_time(self):
        problem = SpMMProblem(m=4096, k=4096, n=16, sparsity=0.6)
        plain = KernelDispatcher().select(problem)
        checked = KernelDispatcher(verify=True).select(problem)
        assert checked.profile.time_s > plain.profile.time_s
        ratio = checked.profile.time_s / plain.profile.time_s
        assert ratio == pytest.approx(
            1.0 + verification_cost_frac(problem.m, problem.k, problem.n)
        )


class TestKVTags:
    def test_pristine_and_corrupt_tags(self):
        alloc = KVBlockAllocator(total_blocks=32, block_size=16)
        alloc.allocate(seq_id=1, tokens=40)
        assert alloc.is_pristine(1)
        assert alloc.content_tag(1) == KVBlockAllocator.pristine_tag(40)
        alloc.corrupt_sequence(1)
        assert not alloc.is_pristine(1)
        assert alloc.content_tag(1) != KVBlockAllocator.pristine_tag(40)

    def test_fork_carries_payload_version(self):
        alloc = KVBlockAllocator(total_blocks=32, block_size=16)
        alloc.allocate(seq_id=1, tokens=20)
        alloc.corrupt_sequence(1)
        alloc.fork(parent_id=1, child_id=2)
        assert alloc.sequence(2).payload_version == 1


class TestPolicies:
    def test_registry_lookup(self):
        assert get_integrity_policy("verify").verify_kernels
        assert get_integrity_policy("quarantine").quarantine_after == 3
        with pytest.raises(ValueError):
            get_integrity_policy("nope")

    def test_off_policy_verifies_nothing(self):
        assert not INTEGRITY_POLICIES["off"].verifies_anything

    def test_validation(self):
        with pytest.raises(ValueError):
            IntegrityPolicy(name="bad", kernel_check_cost_frac=1.5)
        with pytest.raises(ValueError):
            IntegrityPolicy(name="bad", quarantine_after=0)


class TestIntegrityLint:
    def test_shipped_policies_clean(self):
        for name, policy in INTEGRITY_POLICIES.items():
            assert lint_integrity_policy(policy) == [], name

    def test_broken_policies_trip_documented_rules(self):
        for name, (policy, expected) in BROKEN_INTEGRITY_POLICIES.items():
            fired = {f.rule_id for f in lint_integrity_policy(policy)}
            assert set(expected) <= fired, name

    def test_outcome_audit_catches_served_corruption(self):
        class Stats:
            sdc_injected = 2
            sdc_detected = 2
            corrupted_completed = 1
            quarantines = 0
            verification_s = 0.1
            trace = None

        fired = {
            f.rule_id
            for f in lint_integrity_outcome(
                Stats(), INTEGRITY_POLICIES["verify"]
            )
        }
        assert "C002" in fired

    def test_builtin_sweep_static_portion_clean(self):
        report = check_builtin_integrity_artifacts(run_live=False)
        assert report.ok
        assert "C" in report.families
        assert report.checked >= 9  # 3 shipped + 5 broken + 2 probes


class TestHarness:
    @pytest.fixture(scope="class")
    def results(self):
        return run_integrity(IntegrityConfig().quick())

    def test_verify_on_catches_everything(self, results):
        # acceptance regression: a corrupted-then-detected request must
        # never land in the completed bucket, and detection is total
        for arm in ("verify-on", "quarantine"):
            for plan, stats in results[arm].items():
                assert stats.corrupted_completed == 0, (arm, plan)
                assert stats.sdc_detected == stats.sdc_injected, (arm, plan)

    def test_verify_off_serves_corruption(self, results):
        served = sum(
            s.corrupted_completed for s in results["verify-off"].values()
        )
        assert served > 0
        assert all(
            s.sdc_detected == 0 for s in results["verify-off"].values()
        )

    def test_quarantine_fires_and_still_completes(self, results):
        quarantines = sum(
            s.quarantines for s in results["quarantine"].values()
        )
        assert quarantines >= 1

    def test_verification_cost_is_modelled(self, results):
        cost = sum(s.verification_s for s in results["verify-on"].values())
        assert cost > 0.0
        assert all(
            s.verification_s == 0.0
            for s in results["verify-off"].values()
        )

    def test_report_headline_and_byte_identity(self):
        cfg = IntegrityConfig().quick()
        a = integrity_report_json(cfg)
        b = integrity_report_json(cfg)
        assert a == b  # byte-identical replay
        report = json.loads(a)
        assert report["schema"] == "repro-integrity/v1"
        head = report["headline"]
        assert head["detection_rate_verify_on"] >= 0.99
        assert head["false_negatives_verify_on"] == 0
        assert head["served_corrupted_verify_off"] > 0
        assert 0.0 < head["goodput_cost_frac"] < 0.10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegrityConfig(plans=("gpu-crash",))  # not an SDC plan


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
