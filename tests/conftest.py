import numpy as np
import pytest

from robust_recon.model import ScannerConfig, VoxelGrid, simulate_system_matrix


@pytest.fixture(scope="session")
def scanner_1d():
    return ScannerConfig(
        drive_frequencies_khz=(25.0,),
        drive_amplitudes_mt=(12.0,),
        gradient_t_per_m=(1.0,),
        period_ms=1.0,
        samples_per_period=256,
    )


@pytest.fixture(scope="session")
def grid_1d():
    return VoxelGrid((5, 1, 1), (1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def system_1d(scanner_1d, grid_1d):
    return simulate_system_matrix(scanner_1d, grid_1d)


@pytest.fixture(scope="session")
def scanner_2d():
    # 16:17 drive on a shortened sample count keeps simulation fast
    return ScannerConfig(samples_per_period=256)


@pytest.fixture(scope="session")
def grid_2d():
    return VoxelGrid((8, 8, 1), (1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def system_2d(scanner_2d, grid_2d):
    return simulate_system_matrix(scanner_2d, grid_2d)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
