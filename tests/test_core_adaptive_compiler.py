"""Tests for Adaptive Weight Slicing, the compiler and the accelerator model."""

import numpy as np
import pytest

from repro.analog.noise import GaussianColumnNoise
from repro.arithmetic.slicing import Slicing
from repro.core.accelerator import RaellaAccelerator
from repro.core.adaptive_slicing import (
    AdaptiveSlicingConfig,
    choose_weight_slicing,
    layer_output_error,
    quantized_layer_outputs,
)
from repro.core.compiler import RaellaCompiler, RaellaCompilerConfig
from repro.core.executor import PimLayerConfig, PimLayerExecutor
from repro.hw.architecture import ISAAC_ARCH, RAELLA_ARCH
from repro.hw.energy import COMPONENT_KEYS, EnergyBreakdown, EnergyModel
from repro.telemetry.cost import CostModel


@pytest.fixture
def fast_adaptive_config() -> AdaptiveSlicingConfig:
    return AdaptiveSlicingConfig(max_test_patches=48)


@pytest.fixture
def fast_compiler_config(fast_adaptive_config) -> RaellaCompilerConfig:
    return RaellaCompilerConfig(adaptive=fast_adaptive_config, n_test_inputs=2)


class TestAdaptiveSlicingConfig:
    def test_candidate_count(self, fast_adaptive_config):
        assert len(fast_adaptive_config.candidate_slicings) == 108

    def test_most_conservative_slicing(self, fast_adaptive_config):
        assert fast_adaptive_config.most_conservative_slicing == Slicing((1,) * 8)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            AdaptiveSlicingConfig(error_budget=-1.0)

    def test_rejects_bad_patch_budget(self):
        with pytest.raises(ValueError):
            AdaptiveSlicingConfig(max_test_patches=0)


class TestErrorMeasurement:
    def test_quantized_outputs_shape(self, tiny_linear_layer, tiny_patches):
        out = quantized_layer_outputs(tiny_linear_layer, tiny_patches)
        assert out.shape == (tiny_patches.shape[0], tiny_linear_layer.out_features)

    def test_exact_execution_has_zero_error(self, tiny_linear_layer, tiny_patches):
        error = layer_output_error(
            tiny_linear_layer, tiny_patches, PimLayerConfig(adc_bits=16)
        )
        assert error == 0.0

    def test_error_grows_as_adc_narrows(self, tiny_linear_layer, tiny_patches):
        wide = layer_output_error(
            tiny_linear_layer, tiny_patches, PimLayerConfig(adc_bits=9)
        )
        narrow = layer_output_error(
            tiny_linear_layer, tiny_patches, PimLayerConfig(adc_bits=4)
        )
        assert narrow >= wide


    def test_error_of_pim_outputs_off_expected_does_not_wrap(
        self, tiny_linear_layer, tiny_patches
    ):
        # A 3-bit signed ADC clips offset column sums on both rails, so PIM
        # outputs land below the exact codes and above them; on uint8 codes
        # ``expected - actual`` would wrap around for the latter.
        config = PimLayerConfig(adc_bits=3)
        expected = quantized_layer_outputs(tiny_linear_layer, tiny_patches)
        actual = quantized_layer_outputs(
            tiny_linear_layer,
            tiny_patches,
            pim_matmul=PimLayerExecutor(tiny_linear_layer, config),
        )
        assert expected.dtype == actual.dtype == np.uint8
        expected, actual = expected.astype(np.int64), actual.astype(np.int64)
        assert np.any(actual < expected)
        assert np.any(actual > expected)
        nonzero = expected != 0
        reference = np.mean(np.abs(expected - actual)[nonzero])
        error = layer_output_error(tiny_linear_layer, tiny_patches, config)
        assert error == reference


class TestChooseWeightSlicing:
    def test_picks_fewest_slices_under_budget(
        self, tiny_linear_layer, tiny_patches, fast_adaptive_config
    ):
        choice = choose_weight_slicing(
            tiny_linear_layer, tiny_patches, config=fast_adaptive_config
        )
        assert choice.within_budget
        # A 24-row filter never saturates a 7b ADC, so the densest slicing wins.
        assert choice.slicing == Slicing((4, 4))

    def test_last_layer_is_conservative(
        self, tiny_linear_layer, tiny_patches, fast_adaptive_config
    ):
        choice = choose_weight_slicing(
            tiny_linear_layer,
            tiny_patches,
            config=fast_adaptive_config,
            is_last_layer=True,
        )
        assert choice.slicing == Slicing((1,) * 8)

    def test_tight_budget_forces_more_slices(self, rng):
        from repro.nn.layers import Linear
        from repro.nn.synthetic import synthetic_linear_weights

        weights = synthetic_linear_weights(4, 320, rng, std=0.08, mean_spread=0.02)
        layer = Linear("wide", weights, fuse_relu=True)
        inputs = np.abs(rng.normal(0, 1.0, size=(24, 320)))
        layer.calibrate(inputs, layer.forward_float(inputs))
        patches = layer.input_quant.quantize(inputs)
        loose = choose_weight_slicing(
            layer,
            patches,
            AdaptiveSlicingConfig(error_budget=10.0, max_test_patches=24),
        )
        tight = choose_weight_slicing(
            layer,
            patches,
            AdaptiveSlicingConfig(error_budget=0.02, max_test_patches=24),
        )
        assert tight.slicing.n_slices >= loose.slicing.n_slices

    def test_noise_aware_search_uses_more_slices(self, rng):
        from repro.nn.layers import Linear
        from repro.nn.synthetic import synthetic_linear_weights

        weights = synthetic_linear_weights(4, 256, rng, std=0.08)
        layer = Linear("noisy", weights, fuse_relu=True)
        inputs = np.abs(rng.normal(0, 1.0, size=(24, 256)))
        layer.calibrate(inputs, layer.forward_float(inputs))
        patches = layer.input_quant.quantize(inputs)
        config = AdaptiveSlicingConfig(max_test_patches=24, error_budget=0.05)
        clean = choose_weight_slicing(layer, patches, config)
        noisy = choose_weight_slicing(
            layer, patches, config, noise=GaussianColumnNoise(0.12, seed=0)
        )
        assert noisy.slicing.n_slices >= clean.slicing.n_slices

    def test_exhaustive_and_early_stop_agree(self, tiny_linear_layer, tiny_patches):
        early = choose_weight_slicing(
            tiny_linear_layer,
            tiny_patches,
            AdaptiveSlicingConfig(max_test_patches=32, group_early_stop=True),
        )
        full = choose_weight_slicing(
            tiny_linear_layer,
            tiny_patches,
            AdaptiveSlicingConfig(max_test_patches=32, group_early_stop=False),
        )
        assert early.slicing.n_slices == full.slicing.n_slices

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "seeded_noise"])
    def test_every_trial_error_equals_the_per_phase_oracle(self, noisy, rng):
        """The search's trials run the vectorized executor; each recorded
        error must be the per-phase executor's error for that candidate."""
        from repro.core.dynamic_input import SpeculationMode
        from repro.nn.layers import Linear
        from repro.nn.synthetic import synthetic_linear_weights

        weights = synthetic_linear_weights(4, 320, rng, std=0.08, mean_spread=0.02)
        layer = Linear("wide", weights, fuse_relu=True)
        inputs = np.abs(rng.normal(0, 1.0, size=(24, 320)))
        layer.calibrate(inputs, layer.forward_float(inputs))
        patches = layer.input_quant.quantize(inputs)
        config = AdaptiveSlicingConfig(error_budget=0.02, max_test_patches=24)

        def noise():
            return GaussianColumnNoise(0.08, seed=3) if noisy else None

        choice = choose_weight_slicing(layer, patches, config, noise=noise())
        # Replay the trials in search order on oracles sharing one fresh
        # noise model, so seeded draws line up candidate by candidate.
        search_config = PimLayerConfig(
            speculation=SpeculationMode.BIT_SERIAL,
            serial_input_slicing=None,
            device_bits=config.device_bits,
        )
        expected = quantized_layer_outputs(layer, patches).astype(np.int64)
        nonzero = expected != 0
        oracle_noise = noise()
        oracle_errors = []
        for slicing, _ in choice.evaluated:
            oracle = PimLayerExecutor(
                layer,
                search_config.with_changes(weight_slicing=slicing),
                noise=oracle_noise,
            )
            actual = quantized_layer_outputs(layer, patches, pim_matmul=oracle)
            diff = np.abs(expected - actual.astype(np.int64))
            oracle_errors.append(float(np.mean(diff[nonzero])))
        assert len(choice.evaluated) > 1
        assert any(error > 0 for error in oracle_errors)
        assert [error for _, error in choice.evaluated] == oracle_errors


class TestCompiler:
    def test_compile_produces_executor_per_layer(
        self, tiny_mlp_model, fast_compiler_config
    ):
        program = RaellaCompiler(fast_compiler_config).compile(tiny_mlp_model)
        assert set(program.layers) == {"fc1", "fc2"}

    def test_last_layer_uses_conservative_slicing(
        self, tiny_mlp_model, fast_compiler_config
    ):
        program = RaellaCompiler(fast_compiler_config).compile(tiny_mlp_model)
        assert program.layers["fc2"].choice.slicing == Slicing((1,) * 8)

    def test_compiled_program_runs_close_to_exact(
        self, tiny_mlp_model, fast_compiler_config, rng
    ):
        program = RaellaCompiler(fast_compiler_config).compile(tiny_mlp_model)
        x = np.abs(rng.normal(0, 1, size=(8, 16)))
        exact_out = tiny_mlp_model.forward_quantized(x)
        pim_out = program.run(x)
        scale = max(np.abs(exact_out).max(), 1e-6)
        assert np.abs(exact_out - pim_out).mean() / scale < 0.1

    def test_adaptive_disabled_uses_fixed_slicing(self, tiny_mlp_model):
        config = RaellaCompilerConfig(adaptive_slicing_enabled=False, n_test_inputs=2)
        program = RaellaCompiler(config).compile(tiny_mlp_model)
        for compiled in program.layers.values():
            assert compiled.choice.slicing == config.pim.weight_slicing

    def test_uncalibrated_model_rejected(self, rng):
        from repro.nn.layers import Linear
        from repro.nn.model import QuantizedModel
        from repro.nn.synthetic import synthetic_linear_weights

        model = QuantizedModel(
            "raw", [Linear("fc", synthetic_linear_weights(2, 4, rng))], input_shape=(4,)
        )
        with pytest.raises(ValueError):
            RaellaCompiler().compile(model)

    def test_statistics_aggregation_and_reset(
        self, tiny_mlp_model, fast_compiler_config, rng
    ):
        program = RaellaCompiler(fast_compiler_config).compile(tiny_mlp_model)
        program.reset_statistics()
        program.run(np.abs(rng.normal(0, 1, size=(4, 16))))
        total = program.aggregate_statistics()
        assert total.macs == 4 * tiny_mlp_model.total_macs()
        program.reset_statistics()
        assert program.aggregate_statistics().macs == 0

    def test_slicing_summary_keys(self, tiny_mlp_model, fast_compiler_config):
        program = RaellaCompiler(fast_compiler_config).compile(tiny_mlp_model)
        assert set(program.slicing_summary()) == {"fc1", "fc2"}

    def test_pim_matmul_rejects_unknown_layer(
        self, tiny_mlp_model, fast_compiler_config, rng
    ):
        from repro.nn.layers import Linear
        from repro.nn.synthetic import synthetic_linear_weights

        program = RaellaCompiler(fast_compiler_config).compile(tiny_mlp_model)
        stranger = Linear("stranger", synthetic_linear_weights(2, 4, rng))
        with pytest.raises(KeyError):
            program.pim_matmul(np.zeros((1, 4), dtype=int), stranger)


class TestAccelerator:
    def test_run_produces_report(self, tiny_mlp_model, fast_compiler_config, rng):
        program = RaellaCompiler(fast_compiler_config).compile(tiny_mlp_model)
        accelerator = RaellaAccelerator()
        report = accelerator.run(program, np.abs(rng.normal(0, 1, size=(4, 16))))
        assert report.energy.total_pj > 0
        assert report.converts_per_mac > 0
        assert "fc1" in report.per_layer_statistics
        assert isinstance(report.summary(), str)

    def test_summary_states_samples_and_energy_per_sample(
        self, tiny_mlp_model, fast_compiler_config, rng
    ):
        program = RaellaCompiler(fast_compiler_config).compile(tiny_mlp_model)
        report = RaellaAccelerator().run(
            program, np.abs(rng.normal(0, 1, size=(4, 16)))
        )
        per_sample = report.energy.total_uj / 4
        assert (
            f"{report.energy.total_uj:.3f} uJ for 4 samples "
            f"({per_sample:.3f} uJ/sample)"
        ) in report.summary()

    @pytest.mark.parametrize("arch", [RAELLA_ARCH, ISAAC_ARCH], ids=lambda a: a.name)
    @pytest.mark.parametrize("signed", [False, True], ids=["tiny_mlp", "signed_mlp"])
    def test_run_prices_through_the_one_price_list(
        self, arch, signed, tiny_mlp_model, fast_compiler_config, rng, monkeypatch
    ):
        from repro.nn.layers import Linear
        from repro.nn.model import QuantizedModel
        from repro.nn.synthetic import synthetic_linear_weights

        if signed:
            fc1 = Linear(
                "sfc1", synthetic_linear_weights(12, 16, rng), signed_input=True
            )
            fc2 = Linear("sfc2", synthetic_linear_weights(4, 12, rng))
            model = QuantizedModel(
                "signed_mlp", [fc1, fc2], input_shape=(16,), signed_input=True
            )
            model.calibrate(rng.normal(0, 1, size=(32, 16)))
            inputs = rng.normal(0, 1, size=(3, 16))
        else:
            model = tiny_mlp_model
            inputs = np.abs(rng.normal(0, 1, size=(3, 16)))
        n = len(inputs)
        program = RaellaCompiler(fast_compiler_config).compile(model)

        priced = {}
        layer_energy = EnergyModel.layer_energy

        def spy(self, actions):
            priced[actions.layer.name] = layer_energy(self, actions)
            return priced[actions.layer.name]

        monkeypatch.setattr(EnergyModel, "layer_energy", spy)
        report = RaellaAccelerator(arch).run(program, inputs)
        monkeypatch.undo()

        assert set(report.energy.components_pj) == set(COMPONENT_KEYS)
        assert list(priced) == [layer.name for layer in model.matmul_layers()]
        cost = CostModel.from_model(model, arch)
        lib = arch.components
        total = EnergyBreakdown(name="expected")
        for name, breakdown in priced.items():
            got = breakdown.components_pj
            modeled = cost.layer_cost(name).energy.components_pj
            for key in (
                "column_periphery",
                "center_processing",
                "input_buffer",
                "edram",
                "router",
                "quantization",
            ):
                assert got[key] == modeled[key], (name, key)
            stats = report.per_layer_statistics[name]
            device = 2**program.layers[name].executor.config.device_bits - 1
            converts = stats.total_adc_converts
            measured = {
                "adc": converts * lib.adc_energy_pj(arch.adc_bits),
                "crossbar": stats.crossbar_activity
                / device
                * lib.reram_energy_per_device_pulse_pj,
                "dac": stats.input_pulses * lib.dac_energy_per_pulse_pj,
                "digital": converts * lib.shift_add_energy_pj,
                "psum_buffer": converts * 3.0 * lib.sram_energy_per_byte_pj,
            }
            assert converts > 0 and stats.crossbar_activity > 0
            for key, value in measured.items():
                assert got[key] * n == pytest.approx(value, rel=1e-12), (name, key)
            total.add(breakdown)
        for key in COMPONENT_KEYS:
            assert report.energy.components_pj[key] == pytest.approx(
                total.components_pj[key] * n, rel=1e-12
            )

    def test_run_rejects_a_model_the_cost_tables_cannot_describe(
        self, valid_pad_conv_model, fast_compiler_config, rng
    ):
        program = RaellaCompiler(fast_compiler_config).compile(valid_pad_conv_model)
        with pytest.raises(ValueError, match="same-padding"):
            RaellaAccelerator().run(program, np.abs(rng.normal(0, 1, (1, 3, 8, 8))))

    def test_evaluate_shapes(self):
        from repro.nn.zoo import model_shapes

        accelerator = RaellaAccelerator()
        energy, throughput = accelerator.evaluate_shapes(model_shapes("shufflenetv2"))
        assert energy.total_uj > 0
        assert throughput.throughput_samples_per_s > 0
