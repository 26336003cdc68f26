"""Cross-module property-based tests (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arithmetic.slicing import Slicing, enumerate_slicings
from repro.core.center_offset import (
    CenterOffsetEncoder,
    WeightEncoding,
    optimal_center,
    optimal_centers,
)
from repro.core.dynamic_input import (
    InputSlicePlan,
    SpeculationMode,
    extract_input_slice,
)
from repro.core.executor import PimLayerConfig, PimLayerExecutor
from repro.nn.layers import Linear, TensorQuant

slicing_strategy = st.sampled_from(
    [Slicing((4, 4)), Slicing((4, 2, 2)), Slicing((2, 2, 2, 2)), Slicing((3, 3, 2))]
)

code_matrix_strategy = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: np.random.default_rng(seed).integers(0, 256, size=(24, 3))
)


class TestEncodingProperties:
    @given(code_matrix_strategy, slicing_strategy)
    @settings(max_examples=25, deadline=None)
    def test_center_offset_encoding_roundtrips(self, codes, slicing):
        encoder = CenterOffsetEncoder(slicing, WeightEncoding.CENTER_OFFSET)
        encoded = encoder.encode(codes)
        assert np.array_equal(encoded.reconstruct_codes(), codes)

    @given(code_matrix_strategy, slicing_strategy)
    @settings(max_examples=25, deadline=None)
    def test_unsigned_encoding_roundtrips(self, codes, slicing):
        encoder = CenterOffsetEncoder(slicing, WeightEncoding.UNSIGNED)
        encoded = encoder.encode(codes)
        assert np.array_equal(encoded.reconstruct_codes(), codes)

    @given(code_matrix_strategy, slicing_strategy)
    @settings(max_examples=25, deadline=None)
    def test_slice_values_respect_device_range(self, codes, slicing):
        encoded = CenterOffsetEncoder(slicing).encode(codes)
        for i, width in enumerate(slicing.widths):
            assert encoded.positive_slices[i].max() < (1 << width)
            assert encoded.negative_slices[i].max() < (1 << width)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_optimal_center_never_worse_than_midpoint(self, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 256, size=128)
        slicing = Slicing((4, 2, 2))
        from repro.core.center_offset import _slice_column_cost

        center = optimal_center(codes, slicing)
        assert _slice_column_cost(codes - center, slicing, 4.0) <= _slice_column_cost(
            codes - 128, slicing, 4.0
        )


@st.composite
def filter_code_matrices(draw):
    """``(rows, filters)`` codes: uniform, narrow (ties likely) or constant."""
    rows = draw(st.integers(min_value=1, max_value=600))
    filters = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "narrow", "constant"]))
    if kind == "uniform":
        return rng.integers(0, 256, size=(rows, filters))
    low = draw(st.integers(min_value=0, max_value=255))
    if kind == "narrow":
        high = min(low + draw(st.integers(min_value=1, max_value=3)), 256)
        return rng.integers(low, high, size=(rows, filters))
    return np.full((rows, filters), low)


candidate_arrays = st.none() | st.lists(
    st.integers(min_value=-16, max_value=271), min_size=1, max_size=12, unique=True
).map(np.array)


class TestCenterSearchProperties:
    """The histogram-GEMM Eq. 2 search vs the elementwise definition."""

    @given(
        filter_code_matrices(),
        st.sampled_from(enumerate_slicings(8, 4)),
        candidate_arrays,
    )
    @settings(max_examples=60, deadline=None)
    def test_histogram_search_matches_elementwise_argmin(
        self, codes, slicing, candidates
    ):
        from repro.core.center_offset import CENTER_CANDIDATES, _slice_column_cost

        cands = CENTER_CANDIDATES if candidates is None else candidates
        offsets = codes.T[np.newaxis, :, :] - cands[:, np.newaxis, np.newaxis]
        costs = _slice_column_cost(offsets, slicing, 4.0)  # (candidates, filters)
        expected = cands[np.argmin(costs, axis=0)]
        centers = optimal_centers(codes, slicing, candidates=candidates)
        assert centers.dtype == np.int64
        assert np.array_equal(centers, expected)


class TestInputPlanProperties:
    @given(
        st.sampled_from([Slicing((4, 2, 2)), Slicing((2, 2, 2, 2)), Slicing((4, 4))])
    )
    @settings(max_examples=20, deadline=None)
    def test_speculative_plans_cover_all_bits_once(self, spec_slicing):
        plan = InputSlicePlan.build(speculative_slicing=spec_slicing)
        spec_bits = set()
        recovery_bits = set()
        for phase in plan.phases:
            bits = set(range(phase.shift, phase.shift + phase.width))
            if phase.kind == "speculative":
                assert not (spec_bits & bits)
                spec_bits |= bits
            else:
                assert not (recovery_bits & bits)
                recovery_bits |= bits
        assert spec_bits == set(range(8))
        assert recovery_bits == set(range(8))

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_serial_slices_reassemble_inputs(self, values):
        plan = InputSlicePlan.build(mode=SpeculationMode.BIT_SERIAL)
        arr = np.asarray(values)
        total = sum(extract_input_slice(arr, p) << p.shift for p in plan.phases)
        assert np.array_equal(total, arr)


class TestExecutorProperties:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([s for s in enumerate_slicings(8, 4) if s.n_slices <= 4]),
    )
    @settings(max_examples=15, deadline=None)
    def test_wide_adc_execution_is_exact_for_any_slicing(self, seed, slicing):
        rng = np.random.default_rng(seed)
        layer = Linear("prop_fc", rng.normal(0, 0.2, size=(3, 12)), fuse_relu=True)
        inputs = np.abs(rng.normal(0, 1, size=(12, 12)))
        layer.calibrate(inputs, layer.forward_float(inputs))
        patches = layer.input_quant.quantize(inputs)
        executor = PimLayerExecutor(
            layer, PimLayerConfig(adc_bits=16, weight_slicing=slicing)
        )
        assert np.allclose(executor.matmul(patches), patches @ layer.weight_codes)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_narrow_adc_error_is_bounded_by_saturation_distance(self, seed):
        rng = np.random.default_rng(seed)
        layer = Linear("prop_fc2", rng.normal(0, 0.15, size=(4, 16)), fuse_relu=True)
        inputs = np.abs(rng.normal(0, 1, size=(8, 16)))
        layer.calibrate(inputs, layer.forward_float(inputs))
        patches = layer.input_quant.quantize(inputs)
        executor = PimLayerExecutor(layer, PimLayerConfig(adc_bits=7))
        approx = executor.matmul(patches)
        exact = patches @ layer.weight_codes
        # The executor can only under-estimate magnitudes (saturation clamps
        # toward the ADC bounds); errors never exceed the exact magnitude.
        assert np.all(np.abs(approx) <= np.abs(exact) + 64 * 255)


class TestTensorQuantProperties:
    @given(
        st.floats(min_value=0.001, max_value=5.0),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=40, deadline=None)
    def test_quantize_is_idempotent_on_grid(self, scale, zero_point):
        quant = TensorQuant(scale=scale, zero_point=zero_point)
        codes = np.arange(0, 256, 15)
        values = quant.dequantize(codes)
        assert np.array_equal(quant.quantize(values), codes)


class TestCompiledPlanPhaseProperties:
    """The compiled plan's index tables vs the reference slice extraction.

    :class:`~repro.runtime.plan.CompiledLayerPlan` freezes phase extraction
    into narrow-dtype shift/mask tables; extraction driven by them must
    reproduce :func:`~repro.runtime.phases.extract_phase_tensor` and the
    stacked int64 :func:`extract_input_slice` element for element, for every
    slicing and speculation mode and for codes wider than ``input_bits`` (the
    narrow cast drops only bits no phase reads), or the planned fast path
    silently feeds wrong DAC values.
    """

    phase_slicing_strategy = st.sampled_from(
        [Slicing((4, 2, 2)), Slicing((4, 4)), Slicing((2, 2, 2, 2)), Slicing((3, 3, 2))]
    )
    mode_strategy = st.sampled_from(
        [SpeculationMode.SPECULATIVE, SpeculationMode.BIT_SERIAL]
    )

    @staticmethod
    def _build_plan(mode, slicing):
        if mode is SpeculationMode.BIT_SERIAL:
            return InputSlicePlan.build(mode=mode, serial_slicing=slicing)
        return InputSlicePlan.build(mode=mode, speculative_slicing=slicing)

    @given(
        st.integers(min_value=0, max_value=10_000),
        phase_slicing_strategy,
        mode_strategy,
    )
    @settings(max_examples=20, deadline=None)
    def test_compiled_tables_match_extract_phase_tensor(self, seed, slicing, mode):
        from repro.runtime.phases import extract_phase_tensor, slice_phases
        from repro.runtime.plan import CompiledLayerPlan
        from repro.runtime.vectorized import VectorizedLayerExecutor

        rng = np.random.default_rng(seed)
        layer = Linear("prop_plan_fc", rng.normal(0, 0.15, size=(4, 12)))
        inputs = np.abs(rng.normal(0, 1, size=(6, 12)))
        layer.calibrate(inputs, layer.forward_float(inputs))
        config = (
            PimLayerConfig(speculation=mode, serial_input_slicing=slicing)
            if mode is SpeculationMode.BIT_SERIAL
            else PimLayerConfig(speculation=mode, speculative_input_slicing=slicing)
        )
        compiled = CompiledLayerPlan.from_executor(
            VectorizedLayerExecutor(layer, config)
        )
        codes = rng.integers(0, 1 << 12, size=(6, 12))
        expected = np.stack(
            [extract_input_slice(codes, phase) for phase in compiled.input_plan.phases]
        )
        tabled = slice_phases(codes, compiled.phase_shifts, compiled.phase_masks)
        assert tabled.dtype == np.uint8
        assert np.array_equal(tabled, expected)
        extracted = extract_phase_tensor(codes, compiled.input_plan)
        assert np.array_equal(extracted, expected)

    @given(
        st.integers(min_value=0, max_value=10_000),
        phase_slicing_strategy,
        mode_strategy,
    )
    @settings(max_examples=20, deadline=None)
    def test_tables_match_per_phase_slice_extraction(self, seed, slicing, mode):
        plan = self._build_plan(mode, slicing)
        codes = np.random.default_rng(seed).integers(0, 256, size=(5, 9))
        shifts = np.array([phase.shift for phase in plan.phases], dtype=np.int64)
        masks = np.array(
            [(1 << phase.width) - 1 for phase in plan.phases], dtype=np.int64
        )
        tabled = (codes[np.newaxis, :, :] >> shifts[:, None, None]) & (
            masks[:, None, None]
        )
        stacked = np.stack([extract_input_slice(codes, phase) for phase in plan.phases])
        assert np.array_equal(tabled, stacked)
        # Every input bit is consumed exactly once by the plan's phases
        # (recovery phases re-read speculative bits, which double-counts by
        # design in speculative mode).
        if mode is SpeculationMode.BIT_SERIAL:
            reassembled = (tabled << shifts[:, None, None]).sum(axis=0)
            assert np.array_equal(reassembled, codes)


class TestPlannedExecutorProperties:
    """Default-built vectorized executors vs the per-phase oracle.

    A default :class:`~repro.runtime.VectorizedLayerExecutor` compiles its
    plan at construction and, for noiseless layers, runs the planned
    whole-tensor kernel with float32 GEMMs wherever they are provably
    exact, narrow ``uint8`` phase extraction and per-code pulse counting.
    None of that may move a bit of the output or of any statistics counter,
    for any configuration -- including codes wider than ``input_bits``,
    whose extra high bits no phase reads (a 6-bit schedule with 12-bit codes
    pins the input-bit mask of the exact product), and wide layers whose
    several row chunks may mix float32 and float64 exact products.
    """

    @staticmethod
    def _config(mode, input_slicing, rows, adc_bits, encoding, weight_slicing):
        kwargs = dict(
            crossbar_rows=rows,
            adc_bits=adc_bits,
            adc_signed=encoding.uses_centers,
            weight_encoding=encoding,
            weight_slicing=weight_slicing,
            speculation=mode,
            input_bits=input_slicing.total_bits,
        )
        if mode is SpeculationMode.BIT_SERIAL:
            return PimLayerConfig(serial_input_slicing=input_slicing, **kwargs)
        return PimLayerConfig(speculative_input_slicing=input_slicing, **kwargs)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        mode=st.sampled_from(list(SpeculationMode)),
        input_slicing=st.sampled_from(
            [
                Slicing((4, 2, 2)),
                Slicing((4, 4)),
                Slicing((2, 2, 2, 2)),
                Slicing((1,) * 8),
                Slicing((4, 2)),
            ]
        ),
        rows=st.sampled_from([3, 7, 16, 512]),
        adc_bits=st.integers(min_value=3, max_value=9),
        encoding=st.sampled_from(list(WeightEncoding)),
        weight_slicing=st.sampled_from(
            [Slicing((4, 2, 2)), Slicing((4, 4)), Slicing((2, 2, 2, 2))]
        ),
        code_bits=st.sampled_from([8, 12]),
        signed=st.booleans(),
        wide=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_default_executor_matches_oracle_bit_for_bit(
        self,
        seed,
        mode,
        input_slicing,
        rows,
        adc_bits,
        encoding,
        weight_slicing,
        code_bits,
        signed,
        wide,
    ):
        from repro.runtime import VectorizedLayerExecutor, extract_phase_tensor
        from tests.test_runtime_engine import assert_stats_equal

        rng = np.random.default_rng(seed)
        n_in = rng.integers(513, 1100) if wide else rng.integers(1, 40)
        n_out, m = rng.integers(1, 12), rng.integers(1, 9)
        layer = Linear("prop_exec_fc", rng.normal(0, 0.15, size=(n_out, n_in)))
        inputs = np.abs(rng.normal(0, 1, size=(8, n_in)))
        layer.calibrate(inputs, layer.forward_float(inputs))
        config = self._config(
            mode, input_slicing, rows, adc_bits, encoding, weight_slicing
        )
        codes = rng.integers(0, 1 << code_bits, size=(m, n_in))
        if signed:
            codes = codes * rng.choice([-1, 1], size=codes.shape)

        executor = VectorizedLayerExecutor(layer, config, weight_cache=None)
        reference = PimLayerExecutor(layer, config)
        plan = executor.layer_plan
        assert plan.float32 and plan.fast_path_eligible
        outputs = executor.matmul(codes)
        assert outputs.tobytes() == reference.matmul(codes).tobytes()
        assert_stats_equal(executor.stats, reference.stats)

        # The per-code pulse table is the phase tensor's sum for every code.
        magnitudes = np.abs(codes)
        per_row = extract_phase_tensor(magnitudes, plan.input_plan).sum(
            axis=(0, 1), dtype=np.int64
        )
        tabled = plan.pulse_table[magnitudes.astype(np.uint8)].sum(axis=0)
        assert np.array_equal(tabled, per_row)
