"""Shared fixtures for the test suite.

Everything here is deliberately tiny (a handful of classes, 16x16 images, a
three-convolution backbone) so the full suite runs in well under a minute on
CPU while still exercising every code path of the library.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import ArrayDataset, DataLoader, cifar10_surrogate, fmnist_surrogate
from repro.models import vgg_tiny
from repro.mime import MimeNetwork


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden JSON snapshots under tests/golden/ "
        "instead of asserting against them (review the diff before committing)",
    )


@pytest.fixture(scope="session")
def update_golden(request: pytest.FixtureRequest) -> bool:
    """True when the run should rewrite golden files (``--update-golden``)."""
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_task():
    """A small 3-class RGB child-task surrogate at 16x16."""
    return cifar10_surrogate(scale=0.3, backbone_size=16, samples_per_class=20, seed=11)


@pytest.fixture(scope="session")
def tiny_grey_task():
    """A small greyscale child-task surrogate adapted to the RGB backbone."""
    return fmnist_surrogate(scale=0.3, backbone_size=16, samples_per_class=20, seed=12)


@pytest.fixture()
def tiny_backbone():
    """A freshly initialised miniature VGG backbone for 16x16 RGB inputs."""
    return vgg_tiny(num_classes=6, input_size=16, in_channels=3, rng=np.random.default_rng(0))


@pytest.fixture()
def tiny_mime(tiny_backbone, tiny_task):
    """A MimeNetwork with one registered task, ready for training/inference."""
    network = MimeNetwork(tiny_backbone)
    network.add_task(tiny_task.name, tiny_task.num_classes, rng=np.random.default_rng(3))
    return network


@pytest.fixture()
def tiny_loader(tiny_task):
    return DataLoader(tiny_task.train, batch_size=16, shuffle=True, rng=np.random.default_rng(5))


@pytest.fixture()
def small_dataset(rng):
    """A raw ArrayDataset for loader/split tests."""
    images = rng.normal(size=(40, 3, 8, 8))
    labels = rng.integers(0, 4, size=40)
    return ArrayDataset(images, labels, name="unit", num_classes=4)


def reference_conv(kernel, x: np.ndarray, task) -> np.ndarray:
    """Monolithic lowering of a conv kernel: the bit-exact reference of ``blocked``.

    One full-batch im2col panel (``copy_window_strips`` over a zero-padded
    copy of the NHWC input), one GEMM with ``weight_t`` (``np.matmul``, padded
    to sgemm height below 8 rows like every engine GEMM), ``+ bias``, then
    the task's threshold mask.  Allocates everything fresh (the GEMM padding
    in a throwaway pool), so it shares no workspace with the kernel under
    test.
    """
    from repro.engine.kernels import WorkspacePool, copy_window_strips, matmul_rowsafe

    n = x.shape[0]
    c_in, h, w = kernel.in_shape
    c_out, h_out, w_out = kernel.out_shape
    k, s, p = kernel.kernel_size, kernel.stride, kernel.padding
    src = np.zeros((n, h + 2 * p, w + 2 * p, c_in), kernel.weight_t.dtype)
    src[:, p : p + h, p : p + w] = x
    cols = np.empty((n * h_out * w_out, k * k * c_in), src.dtype)
    copy_window_strips(cols, src, n, h_out, w_out, k, s, c_in)
    gemm = matmul_rowsafe(cols, kernel.weight_t, WorkspacePool()) + kernel.bias
    out = gemm.reshape(n, h_out * w_out, c_out)
    if kernel.mask is not None:
        out *= out >= task.thresholds[kernel.mask.slot]
    return out.reshape(n, h_out, w_out, c_out)


def numeric_gradient(fn, array: np.ndarray, epsilon: float = 1e-5) -> np.ndarray:
    """Central-difference numerical gradient of a scalar function of ``array``."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = fn()
        flat[index] = original - epsilon
        minus = fn()
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return grad
