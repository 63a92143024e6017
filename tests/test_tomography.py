import numpy as np
import pytest

from qutritsim.core import (
    DensityState,
    PureState,
    QuditIndexing,
    QuditOperator,
    haar_random_unitary,
    hadamard_matrix,
    random_density_matrix,
    shift_matrix,
    clock_matrix,
)
from qutritsim.readout import confusion_from_fidelities
from qutritsim.channels import depolarizing_channel
from qutritsim.scrambling import csum_matrix, scrambler_unitary
from qutritsim.tomography import (
    MeasurementSetting,
    TomographyError,
    TomographyRecord,
    all_settings,
    collect_records,
    mub_bases,
    process_fidelity,
    process_tomography,
    product_preparations,
    psd_project,
    ptm_of_unitary,
    ptm_restriction,
    sensing_matrix,
    state_tomography,
)


def unitary_channel(u):
    m = u.matrix if isinstance(u, QuditOperator) else u

    def channel(rho: DensityState) -> DensityState:
        return DensityState(m @ rho.matrix @ m.conj().T, rho.indexing, validate=False)

    return channel


class TestMubBases:
    def test_z_basis_is_computational(self):
        assert np.abs(mub_bases()[0] - np.eye(3)).max() == 0.0

    def test_x_basis_diagonalizes_shift(self):
        # eigendecomposition oracle: columns must be shift-operator
        # eigenvectors with eigenvalue w^j
        b = mub_bases()[1]
        x = shift_matrix()
        w = np.exp(2j * np.pi / 3)
        for j in range(3):
            assert np.abs(x @ b[:, j] - w**j * b[:, j]).max() < 1e-12

    def test_x_basis_spans_hadamard_columns(self):
        b = mub_bases()[1]
        h = hadamard_matrix()
        overlap = np.abs(b.conj().T @ h)
        # same basis as the Hadamard columns, up to order and phase
        assert np.abs(np.sort(overlap, axis=0)[-1] - 1.0).max() < 1e-12

    def test_higher_bases_diagonalize_xz_powers(self):
        x, z = shift_matrix(), clock_matrix()
        w = np.exp(2j * np.pi / 3)
        for k in (1, 2):
            op = x @ np.linalg.matrix_power(z, k)
            b = mub_bases()[k + 1]
            for j in range(3):
                assert np.abs(op @ b[:, j] - w**j * b[:, j]).max() < 1e-12

    def test_all_pairs_mutually_unbiased(self):
        bases = mub_bases()
        for i in range(4):
            assert np.abs(bases[i].conj().T @ bases[i] - np.eye(3)).max() < 1e-12
            for j in range(4):
                if i == j:
                    continue
                overlaps = np.abs(bases[i].conj().T @ bases[j]) ** 2
                assert np.abs(overlaps - 1.0 / 3.0).max() < 1e-12

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            mub_bases(4)


class TestStateTomography:
    def test_sensing_rank_complete(self):
        a = sensing_matrix(all_settings(2), 2)
        assert np.linalg.matrix_rank(a, tol=1e-10) == 81

    def test_incomplete_settings_raise(self):
        settings = [MeasurementSetting((0, 0)), MeasurementSetting((1, 1))]
        from qutritsim.tomography import TomographyRecord

        records = [
            TomographyRecord(s.bases, None, 0, 0, probabilities=np.ones(9) / 9.0)
            for s in settings
        ]
        with pytest.raises(TomographyError):
            state_tomography(records, None, n=2)

    def test_sensing_matrix_and_rank_are_cached_read_only(self):
        from qutritsim import tomography

        settings = tuple(all_settings(2))
        a, rank = tomography._sensing(settings, 2, 3)
        assert rank == 81 and not a.flags.writeable
        assert np.array_equal(a, sensing_matrix(list(settings), 2))
        assert tomography._sensing(tuple(all_settings(2)), 2, 3)[0] is a
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
        # a rank-deficient list stays a named error on every call, cached or not
        records = [TomographyRecord((0, 0), None, 0, 0, probabilities=np.ones(9) / 9.0)]
        for _ in range(2):
            with pytest.raises(TomographyError, match="rank 9 < 81"):
                state_tomography(records, None, n=2)

    def test_ground_state_exact(self):
        rho = PureState.basis((0,)).density()
        records = collect_records(rho)
        rec = state_tomography(records, None, n=1)
        assert np.abs(rec.matrix - rho.matrix).max() < 1e-10

    def test_epr_round_trip(self):
        epr = PureState.from_amplitudes([1, 0, 0, 0, 1, 0, 0, 0, 1])
        records = collect_records(epr.density())
        rec = state_tomography(records, None, n=2)
        fid = np.real(epr.amplitudes.conj() @ rec.matrix @ epr.amplitudes)
        assert abs(fid - 1.0) < 1e-8

    def test_random_mixed_states_round_trip(self, rng):
        for _ in range(10):
            rho = DensityState.from_matrix(random_density_matrix(9, rng), n=2)
            rec = state_tomography(collect_records(rho), None, n=2)
            td = 0.5 * np.abs(np.linalg.eigvalsh(rec.matrix - rho.matrix)).sum()
            assert td < 1e-8

    def test_round_trip_through_confusion(self, rng):
        mats = np.array(
            [confusion_from_fidelities([0.97, 0.94, 0.9]), confusion_from_fidelities([0.98, 0.95, 0.93])]
        )
        rho = DensityState.from_matrix(random_density_matrix(9, rng), n=2)
        records = collect_records(rho, confusion=mats)
        rec = state_tomography(records, mats, n=2)
        assert np.abs(rec.matrix - rho.matrix).max() < 1e-8

    def test_psd_projection_idempotent_trace_preserving(self, rng):
        m = random_density_matrix(9, rng) - 0.02 * np.eye(9)
        m = m / np.trace(m).real
        p1 = psd_project(m)
        p2 = psd_project(p1)
        assert np.abs(p1 - p2).max() < 1e-12
        assert abs(np.trace(p1).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(p1).min() > -1e-14

    def test_shot_consistency_median_error_decreases(self):
        rho = DensityState.from_matrix(random_density_matrix(3, np.random.default_rng(17)), n=1)
        medians = []
        for shots in (1000, 10000, 100000):
            errs = []
            for seed in range(20):
                records = collect_records(rho, shots=shots, seed=seed)
                rec = state_tomography(records, None, n=1)
                errs.append(np.abs(rec.matrix - rho.matrix).max())
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]


class TestRecordSerialization:
    def test_jsonl_round_trip_sampled(self, rng):
        from qutritsim.tomography import records_from_jsonl, records_to_jsonl

        rho = DensityState.from_matrix(random_density_matrix(9, rng), n=2)
        records = collect_records(rho, shots=500, seed=4)
        text = records_to_jsonl(records)
        again = records_from_jsonl(text)
        assert [r.setting for r in again] == [r.setting for r in records]
        assert [r.counts for r in again] == [r.counts for r in records]
        rec_a = state_tomography(records, None, n=2)
        rec_b = state_tomography(again, None, n=2)
        assert np.abs(rec_a.matrix - rec_b.matrix).max() < 1e-14

    def test_empty_record_raises_named_error(self):
        from qutritsim.tomography import TomographyRecord

        for counts in ({}, {"0": 0, "2": 0}):
            with pytest.raises(TomographyError):
                TomographyRecord((0,), counts, 0, 0).frequencies(n=1)

    def test_matrix_export_round_trip(self, rng):
        from qutritsim.tomography import matrix_from_json_obj, matrix_to_json_obj

        m = random_density_matrix(9, rng)
        again = matrix_from_json_obj(matrix_to_json_obj(m))
        assert np.abs(again - m).max() == 0.0


class TestProcessTomography:
    def test_preparation_set_spans(self):
        preps = product_preparations(2)
        mat = np.array([p.reshape(-1) for p in preps])
        assert np.linalg.matrix_rank(mat, tol=1e-10) == 81

    def test_identity_channel_gives_identity_ptm(self):
        ptm = process_tomography(unitary_channel(QuditOperator(np.eye(9), QuditIndexing(3, 2))), n=2)
        assert np.abs(ptm.matrix - np.eye(81)).max() < 1e-8

    def test_scrambler_matches_analytic_conjugation(self):
        us = scrambler_unitary()
        ptm = process_tomography(unitary_channel(us), n=2)
        ana = ptm_of_unitary(us)
        assert np.abs(ptm.matrix - ana.matrix).max() < 1e-8

    def test_scrambler_z_column_lands_on_two_site_pauli(self):
        us = scrambler_unitary()
        ptm = ptm_of_unitary(us)
        labels = list(ptm.labels)
        col = labels.index(_label(((0, 1), (0, 0))))  # Z (x) I
        row = labels.index(_label(((0, 1), (0, 2))))  # Z (x) Z^2
        column = ptm.matrix[:, col]
        assert abs(abs(column[row]) - 1.0) < 1e-12
        others = np.delete(np.abs(column), row)
        assert others.max() < 1e-12

    def test_csum_commutant_columns(self):
        # only Z-type on the control and X-type on the target stay local
        ptm = ptm_of_unitary(csum_matrix(True))
        block, rows, cols = ptm_restriction(ptm)
        local_rows = [i for i, lab in enumerate(rows) if lab.weight() == 1]
        survivors = set()
        for j, lab in enumerate(cols):
            if np.abs(block[local_rows, j]).max() > 1e-10:
                survivors.add(str(lab))
        assert survivors == {"Z*I", "Z2*I", "I*X", "I*X2"}

    def test_unit_column_norms_for_unitary(self):
        ptm = ptm_of_unitary(scrambler_unitary())
        norms = np.linalg.norm(ptm.matrix, axis=0)
        assert np.abs(norms - 1.0).max() < 1e-8

    def test_trace_preservation_flag(self):
        ptm = ptm_of_unitary(csum_matrix(True))
        assert ptm.is_trace_preserving()

    def test_shot_mode_reconstruction(self):
        us = scrambler_unitary()
        ptm = process_tomography(unitary_channel(us), n=2, shots=400, seed=1)
        ana = ptm_of_unitary(us)
        # crude statistics still identify the dominant transfer structure
        big = np.abs(ana.matrix) > 0.5
        assert np.abs(ptm.matrix[big]).min() > 0.5


def _label(exps):
    from qutritsim.core import PauliLabel

    return PauliLabel(exps)


class TestPtmRestriction:
    def test_identity_restriction_unit_entries(self):
        ptm = ptm_of_unitary(QuditOperator(np.eye(9), QuditIndexing(3, 2)))
        block, rows, cols = ptm_restriction(ptm)
        assert block.shape == (80, 16)
        for j, lab in enumerate(cols):
            i = rows.index(lab)
            assert abs(block[i, j] - 1.0) < 1e-12
            assert np.abs(np.delete(block[:, j], i)).max() < 1e-12

    def test_scrambler_columns_fully_two_site(self):
        ptm = ptm_of_unitary(scrambler_unitary())
        block, rows, cols = ptm_restriction(ptm)
        local_rows = [i for i, lab in enumerate(rows) if lab.weight() == 1]
        assert np.abs(block[local_rows, :]).max() < 1e-10

    def test_local_unitary_columns_stay_local(self, rng):
        u = QuditOperator(
            np.kron(haar_random_unitary(3, rng), haar_random_unitary(3, rng)), QuditIndexing(3, 2)
        )
        block, rows, cols = ptm_restriction(ptm_of_unitary(u))
        two_site_rows = [i for i, lab in enumerate(rows) if lab.weight() == 2]
        assert np.abs(block[two_site_rows, :]).max() < 1e-10

    def test_column_ordering(self):
        ptm = ptm_of_unitary(scrambler_unitary())
        _, _, cols = ptm_restriction(ptm)
        assert str(cols[0]) == "Z*I"  # site-1 group first, lexicographic (a, b)
        assert str(cols[8]) == "I*Z"
        assert all(lab.exponents[1] == (0, 0) for lab in cols[:8])
        assert all(lab.exponents[0] == (0, 0) for lab in cols[8:])


class TestProcessFidelity:
    def test_ideal_is_one(self):
        us = scrambler_unitary()
        ptm = ptm_of_unitary(us)
        assert process_fidelity(ptm, us) == pytest.approx(1.0, abs=1e-10)

    def test_fully_depolarizing(self):
        dep = depolarizing_channel(9)

        def channel(rho):
            return DensityState(dep.apply_matrix(rho.matrix), rho.indexing, validate=False)

        ptm = process_tomography(channel, n=2)
        fe = process_fidelity(ptm, scrambler_unitary())
        assert fe == pytest.approx(1.0 / 81.0, abs=1e-10)

    def test_noisy_compiled_scrambler_in_band(self, device):
        from qutritsim.teleport import ScramblerSpec, compiled_scrambler_channel

        channel = compiled_scrambler_channel(
            ScramblerSpec("maximally_scrambling"), device, noise_scale=1.0
        )
        ptm = process_tomography(channel, n=2)
        fe = process_fidelity(ptm, scrambler_unitary())
        assert 0.75 < fe < 0.95  # reported, not asserted against hardware

    def test_non_trace_preserving_warns(self):
        from qutritsim.tomography import ProcessMatrix

        ptm = ptm_of_unitary(scrambler_unitary())
        broken = ProcessMatrix(ptm.matrix * 0.9, ptm.labels)
        with pytest.warns(UserWarning):
            process_fidelity(broken, scrambler_unitary())
