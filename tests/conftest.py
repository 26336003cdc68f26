"""Shared fixtures for the RAELLA reproduction test suite.

Fixtures are deliberately tiny (a few dozen rows / filters) so the whole suite
runs quickly while still exercising every code path of the functional
simulator and cost models.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.nn.layers import Conv2d, GlobalAvgPool, Linear
from repro.nn.model import QuantizedModel
from repro.nn.synthetic import synthetic_conv_weights, synthetic_linear_weights
from repro.runtime.procpool import _unlink_block


def _shared_memory_blocks() -> set[str]:
    """Names of live ``multiprocessing.shared_memory`` blocks (``psm_*``).

    The shared-memory transport in :mod:`repro.runtime.procpool` backs every
    worker request/reply with ``/dev/shm`` blocks; a leak outlives the
    process that mapped it and eats machine memory until reboot.  On
    platforms without a visible ``/dev/shm`` this degrades to an empty set
    (the process-leak check still applies).
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return set()
    return {name for name in entries if name.startswith("psm_")}


def _serve_threads(known: set[threading.Thread]) -> list[threading.Thread]:
    """Live ``serve-`` threads (server workers) beyond ``known``."""
    return [
        thread
        for thread in threading.enumerate()
        if thread not in known
        and thread.is_alive()
        and thread.name.startswith("serve-")
    ]


def _event_loop_threads(known: set[threading.Thread]) -> list[threading.Thread]:
    """Threads (beyond ``known``) currently running an asyncio event loop.

    Detected by walking each thread's live stack for asyncio's
    ``run_forever`` frame -- no cooperation needed from the leaking test.
    """
    frames = sys._current_frames()
    leaked = []
    for thread in threading.enumerate():
        if thread in known or not thread.is_alive():
            continue
        frame = frames.get(thread.ident)
        while frame is not None:
            code = frame.f_code
            if code.co_name in ("run_forever", "run_until_complete") and (
                code.co_filename.endswith("base_events.py")
            ):
                leaked.append(thread)
                break
            frame = frame.f_back
    return leaked


@pytest.fixture(autouse=True)
def no_leaked_worker_processes():
    """Resource hygiene: no leaked processes, shared memory, event loops or
    server workers.

    Process-backed engines (:mod:`repro.runtime.procpool`) spawn one child
    per hosted model plus shared-memory transport blocks, the asyncio
    front door (:mod:`repro.serve.aio`) runs under event loops, and a
    started :class:`~repro.serve.InferenceServer` keeps its ``serve-``
    worker threads until ``stop()``; a test that forgets to close any of
    them leaves state that outlives the test and poisons later ones.
    Leftovers are reclaimed where possible so the failure does not cascade,
    then the test fails.
    """
    shm_before = _shared_memory_blocks()
    threads_before = set(threading.enumerate())
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join(timeout=5)
    # Give async teardowns a short grace window: closing an event loop (or
    # a killed worker's resource cleanup) can lag the test body by a tick.
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        leaked_shm = _shared_memory_blocks() - shm_before
        loops = _event_loop_threads(threads_before)
        workers = _serve_threads(threads_before)
        if not leaked_shm and not loops and not workers:
            break
        time.sleep(0.05)
    leaked_shm = _shared_memory_blocks() - shm_before
    loops = _event_loop_threads(threads_before)
    workers = _serve_threads(threads_before)
    for name in leaked_shm:  # reclaim so one failure does not cascade
        try:
            _unlink_block(name)  # empty blocks included
        except OSError:
            pass
    assert not leaked, f"test leaked worker processes: {leaked}"
    assert not leaked_shm, f"test leaked shared-memory blocks: {sorted(leaked_shm)}"
    assert not loops, f"test leaked running event loops on threads: {loops}"
    assert not workers, f"test leaked server worker threads: {workers}"


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_linear_layer(rng) -> Linear:
    """A calibrated linear layer with 24 inputs and 6 outputs."""
    weights = synthetic_linear_weights(6, 24, rng, std=0.2, mean_spread=0.05)
    layer = Linear("tiny_fc", weights, bias=rng.normal(0, 0.1, size=6), fuse_relu=True)
    inputs = np.abs(rng.normal(0.0, 1.0, size=(32, 24)))
    outputs = layer.forward_float(inputs)
    layer.calibrate(inputs, outputs)
    return layer


@pytest.fixture
def tiny_patches(rng, tiny_linear_layer) -> np.ndarray:
    """Input code patches for the tiny linear layer."""
    inputs = np.abs(rng.normal(0.0, 1.0, size=(48, 24)))
    return tiny_linear_layer.input_quant.quantize(inputs)


@pytest.fixture
def tiny_conv_model(rng) -> QuantizedModel:
    """A two-conv calibrated model on 8x8 RGB inputs."""
    conv1 = Conv2d(
        "c1", synthetic_conv_weights(4, 3, 3, rng, std=0.3), stride=1, padding=1
    )
    conv2 = Conv2d(
        "c2", synthetic_conv_weights(6, 4, 3, rng, std=0.3), stride=2, padding=1
    )
    head = Linear("fc", synthetic_linear_weights(5, 6, rng, std=0.3))
    model = QuantizedModel(
        "tiny_conv", [conv1, conv2, GlobalAvgPool(), head], input_shape=(3, 8, 8)
    )
    calibration = np.abs(rng.normal(0.0, 1.0, size=(4, 3, 8, 8)))
    model.calibrate(calibration)
    return model


@pytest.fixture
def valid_pad_conv_model(rng) -> QuantizedModel:
    """A calibrated model whose ``padding=0`` conv the cost tables cannot
    describe: its 6x6 output breaks their same-padding assumption."""
    conv = Conv2d("valid_conv", synthetic_conv_weights(4, 3, 3, rng), padding=0)
    head = Linear("fc", synthetic_linear_weights(5, 4, rng))
    model = QuantizedModel(
        "valid_pad", [conv, GlobalAvgPool(), head], input_shape=(3, 8, 8)
    )
    model.calibrate(np.abs(rng.normal(0, 1, size=(4, 3, 8, 8))))
    return model


@pytest.fixture
def tiny_mlp_model(rng) -> QuantizedModel:
    """A two-layer calibrated MLP on 16 features."""
    fc1 = Linear("fc1", synthetic_linear_weights(12, 16, rng, std=0.25), fuse_relu=True)
    fc2 = Linear("fc2", synthetic_linear_weights(4, 12, rng, std=0.25))
    model = QuantizedModel("tiny_mlp", [fc1, fc2], input_shape=(16,))
    model.calibrate(np.abs(rng.normal(0.0, 1.0, size=(32, 16))))
    return model
