"""From raw spectra to a reduced real linear system.

Steps, in pipeline order: restrict to a frequency band, estimate the
per-scan background by interpolating the enclosing empty scans, score every
component by its signal-to-background ratio, threshold the scores, subtract
the background, optionally whiten rows by the inverse empty-scan std, split
complex components into real/imaginary row pairs, and scale the stacked
system to unit operator norm.

Row order is canonical throughout: coil-major, then selected frequency
index, with the real row immediately before the imaginary row of each
component.

The step functions are the plain formulas on full arrays. reduce_scans
runs the whole chain, as the pipeline does: it takes only the band's run of
bins of the calibration scans (the pipeline reads no other bins of them),
corrects that band in place and builds the reduced matrix inside its
buffer, and gives the bits of the steps composed, in the same bin numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acquisition import background_mean
from .errors import NumericalError

__all__ = [
    "FrequencySelection",
    "ReducedSystem",
    "band_pass",
    "interp_backgrounds",
    "snr_scores",
    "select_frequencies",
    "subtract_background",
    "calibration_system_matrix",
    "whitening_weights",
    "power_iteration_norm",
    "assemble_reduced_system",
    "reduce_scans",
]

# calibration scans per block of reduce_scans' one pass, rounded down to
# whole brackets, at least one
_SCORE_BLOCK = 64


def band_pass(freq_count: int, period_ms: float, b1_khz: float, b2_khz: float) -> np.ndarray:
    """Indices j with b1 <= j/period <= b2, ascending: one run of
    consecutive bins, possibly empty. b2 may be infinite."""
    if freq_count < 1 or period_ms <= 0:
        raise ValueError("freq_count and period must be positive")
    if b1_khz < 0 or not b1_khz < b2_khz:
        raise ValueError("band edges must satisfy 0 <= b1 < b2")
    f = np.arange(freq_count) / period_ms
    return np.nonzero((f >= b1_khz) & (f <= b2_khz))[0]


def interp_backgrounds(scans: np.ndarray, calibration_count: int,
                       scans_per_bracket: int) -> np.ndarray:
    """Background estimates for calibration scans 0..calibration_count-1
    from the empty scans (count, coils, freqs), stacked to (calibration_count,
    coils, freqs).

    Calibration scan i lives in bracket b = i // Q between empty scans b and
    b+1 and gets mu = kappa * scans[b] + (1 - kappa) * scans[b+1] with
    kappa = (i mod Q)/(Q - 1): equidistant within the bracket, kappa = 0 for
    the bracket's first scan. Built bracket by bracket into the result, so
    no full-size temporary is made.
    """
    q = int(scans_per_bracket)
    if q < 2:
        raise ValueError("scans_per_bracket must be >= 2")
    if calibration_count < 0:
        raise ValueError("calibration_count must be nonnegative")
    if calibration_count > 0 and (calibration_count - 1) // q + 1 >= scans.shape[0]:
        raise ValueError("calibration count beyond the empty-scan schedule")
    kappa = np.arange(q) / (q - 1)
    out = np.empty((calibration_count,) + scans.shape[1:], dtype=np.complex128)
    for b, lo in enumerate(range(0, calibration_count, q)):
        rows = out[lo:lo + q]
        k = kappa[:rows.shape[0], None, None]
        np.multiply(k, scans[b], out=rows)
        rows += (1.0 - k) * scans[b + 1]
    return out


def snr_scores(calib_scans, interp_bg: np.ndarray, empty_scans: np.ndarray,
               band_indices: np.ndarray) -> np.ndarray:
    """Signal-to-background score per (coil, in-band component).

    Numerator: mean over calibration scans of the magnitude of the
    background-corrected component. Denominator: mean magnitude of the
    empty-scan deviations from their own mean. A zero denominator yields
    +inf (a component with no background noise is perfectly reliable).
    Both means add the scans in turn, in scan order, then divide by the
    count, whatever the array layout; interp_bg may be a broadcast view.
    """
    calib = np.asarray(calib_scans, dtype=np.complex128)
    interp_bg = np.asarray(interp_bg, dtype=np.complex128)
    if calib.shape[0] == 0 or len(empty_scans) == 0:
        raise ValueError("empty calibration or empty-scan set")
    if interp_bg.shape != calib.shape:
        raise ValueError("interpolated backgrounds must match the calibration scans")
    band_indices = np.asarray(band_indices, dtype=np.int64)
    num = sum(np.abs(scan[:, band_indices] - bg[:, band_indices])
              for scan, bg in zip(calib, interp_bg)) / calib.shape[0]
    return _score_ratio(num, empty_scans, band_indices)


def _score_ratio(num: np.ndarray, empty_scans: np.ndarray, band) -> np.ndarray:
    """snr_scores from its numerator (coils, components), the components'
    bins selected by band, a slice or an index array. The denominator adds
    each empty scan's deviation magnitudes in turn, so no band-sized array
    of every scan is made."""
    mu = background_mean(empty_scans)[:, band]
    den = sum(np.abs(scan[:, band] - mu) for scan in empty_scans) / empty_scans.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)


@dataclass
class FrequencySelection:
    """Thresholded component choice: per coil, the retained frequency indices."""

    selected: list

    @property
    def coils(self) -> int:
        return len(self.selected)

    @property
    def row_count(self) -> int:
        """Rows of the reduced real system: a real/imag pair per component."""
        return 2 * sum(len(s) for s in self.selected)


def select_frequencies(scores: np.ndarray, tau: float,
                       band_indices: np.ndarray) -> FrequencySelection:
    """Keep, per coil, the in-band components whose score reaches tau."""
    scores = np.asarray(scores, dtype=np.float64)
    band_indices = np.asarray(band_indices, dtype=np.int64)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if scores.ndim != 2 or scores.shape[1] != band_indices.size:
        raise ValueError("scores must align with the band indices")
    return FrequencySelection([band_indices[row >= tau] for row in scores])


def subtract_background(spectrum: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Componentwise background subtraction; shapes must match."""
    spectrum = np.asarray(spectrum)
    background = np.asarray(background)
    if spectrum.shape != background.shape:
        raise ValueError("measurement and background shapes differ")
    return spectrum - background


def calibration_system_matrix(calib_scans, interp_bg: np.ndarray,
                              concentration: float) -> np.ndarray:
    """System-matrix estimate from calibration scans: background-corrected
    per-voxel spectra divided by the calibration concentration, (coils,
    freqs, voxels), a transposed view of one new (voxels, coils, freqs)
    array. interp_bg may be a broadcast view."""
    calib = np.asarray(calib_scans, dtype=np.complex128)
    if concentration <= 0:
        raise ValueError("calibration concentration must be positive")
    if np.asarray(interp_bg).shape != calib.shape:
        raise ValueError("interpolated backgrounds must match the calibration scans")
    corrected = calib - interp_bg
    corrected /= concentration
    return np.transpose(corrected, (1, 2, 0))


def whitening_weights(empty_scans: np.ndarray, selection: FrequencySelection) -> np.ndarray:
    """Inverse empty-scan std per retained row in canonical row order,
    floored at 1e-8 times the largest retained std so near-constant
    components cannot blow up."""
    stds = []
    for c, sel in enumerate(selection.selected):
        block = empty_scans[:, c, sel]
        std = np.empty((2, sel.size))
        std[0] = block.real.std(axis=0, ddof=1)
        std[1] = block.imag.std(axis=0, ddof=1)
        stds.append(std.T.ravel())  # (re, im) interleaved per component
    flat = np.concatenate(stds) if stds else np.empty(0)
    if flat.size == 0:
        raise ValueError("empty selection")
    max_std = flat.max()
    if max_std == 0.0:
        raise NumericalError("all retained components are constant across empty scans")
    return 1.0 / np.maximum(flat, 1e-8 * max_std)


def power_iteration_norm(a: np.ndarray, tol: float = 1e-6, max_iter: int = 500) -> float:
    """Spectral norm estimate by power iteration on A^T A.

    Deterministic start vector. Stops once the Rayleigh quotient is
    certified to lie within tol of the top eigenvalue, using the
    eigen-residual together with a gap estimate from the residual decay (a
    plain change-based stop can halt far from the true norm when the
    spectral gap is small). Raises NumericalError if max_iter is exhausted
    or the Rayleigh quotient is not finite (A holds NaN or inf).
    """
    a = np.asarray(a, dtype=np.float64)
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(a.shape[1])
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return 0.0
    v /= norm
    res_prev = np.inf
    for k in range(max_iter):
        w = a.T @ (a @ v)
        lam = float(v @ w)
        if not np.isfinite(lam):
            raise NumericalError("power iteration: non-finite Rayleigh quotient")
        if lam <= 0.0:
            return 0.0
        res = float(np.linalg.norm(w - lam * v))
        if res <= 1e-12 * lam:
            # at the rounding floor the eigenvalue error is below res itself
            return float(np.sqrt(lam))
        rho = res / res_prev
        # certify |lam - lam_max| <= tol * lam via res^2 / gap with the gap
        # estimated from the residual decay ratio; needs one prior residual
        if k >= 1 and rho < 1.0 and res * res <= 0.5 * tol * lam * lam * (1.0 - rho):
            return float(np.sqrt(lam))
        res_prev = res
        v = w / np.linalg.norm(w)
    raise NumericalError("power iteration did not converge")


@dataclass
class ReducedSystem:
    """Real linear system A x = y after selection, splitting and scaling.

    ``row_index`` maps each row to (coil, frequency index, part) with part
    0 = real, 1 = imaginary; ``scale`` is the operator norm divided out of
    (A, y); ``whitened`` records whether rows were weighted first. A NaN or
    infinite entry in A or y raises NumericalError.
    """

    A: np.ndarray
    y: np.ndarray
    row_index: np.ndarray | None = None
    scale: float = 1.0
    whitened: bool = False

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.A.ndim != 2 or self.y.shape != (self.A.shape[0],):
            raise ValueError("A must be (n, m) with matching y")
        # min and max carry any NaN or infinity through, with no boolean copy of A
        if not all(np.isfinite(v.min(initial=0.0)) and np.isfinite(v.max(initial=0.0))
                   for v in (self.A, self.y)):
            raise NumericalError("reduced system holds non-finite values")
        if self.row_index is not None:
            self.row_index = np.asarray(self.row_index, dtype=np.int64)
            if self.row_index.shape != (self.A.shape[0], 3):
                raise ValueError("row_index must be (n, 3)")

    @property
    def rows(self) -> int:
        return self.A.shape[0]

    @property
    def voxels(self) -> int:
        return self.A.shape[1]


def assemble_reduced_system(system: np.ndarray, y_spectrum: np.ndarray,
                            selection: FrequencySelection,
                            weights: np.ndarray | None = None) -> ReducedSystem:
    """Stack selected components into real row pairs and normalize.

    ``system`` is a (coils, freqs, voxels) complex array; ``y_spectrum`` the
    background-subtracted measurement. The selected components are gathered
    into A in one step. Optional whitening weights (one per row, as
    whitening_weights returns them) multiply rows and data entries before
    the operator norm of the stacked matrix is estimated and divided out of
    both A and y.
    """
    data = np.asarray(system, dtype=np.complex128)
    if data.ndim != 3:
        raise ValueError("system matrix must have shape (coils, freqs, voxels)")
    y_spectrum = np.asarray(y_spectrum, dtype=np.complex128)
    if y_spectrum.shape != data.shape[:2]:
        raise ValueError("measurement spectrum does not match the system matrix")
    n = selection.row_count
    if n == 0:
        raise ValueError("empty selection: no components retained")
    coil, freq = _components(selection)
    a = np.empty((n, data.shape[2]))
    a[0::2] = data.real[coil, freq]
    a[1::2] = data.imag[coil, freq]
    return _normalized_system(a, y_spectrum, coil, freq, weights)


def _components(selection: FrequencySelection) -> tuple[np.ndarray, np.ndarray]:
    """One (coil, frequency) pair per retained component, in row order."""
    coil = np.repeat(np.arange(selection.coils), [s.size for s in selection.selected])
    return coil, np.concatenate(selection.selected)


def _normalized_system(a: np.ndarray, y_spectrum: np.ndarray, coil: np.ndarray,
                       freq: np.ndarray, weights) -> ReducedSystem:
    """The rest of assemble_reduced_system once A holds the real row pairs of
    the components (coil[k], freq[k]) of y_spectrum: y, the row index, the
    weights and the operator norm, all applied to A in place."""
    n = a.shape[0]
    y = np.empty(n)
    y[0::2] = y_spectrum.real[coil, freq]
    y[1::2] = y_spectrum.imag[coil, freq]
    row_index = np.stack([np.repeat(coil, 2), np.repeat(freq, 2), np.tile([0, 1], n // 2)],
                         axis=1)
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError("whitening weights do not match the selection")
        a *= w[:, None]
        y *= w
    scale = power_iteration_norm(a)
    if not np.isfinite(scale) or scale <= 0.0:
        raise NumericalError("reduced system has no usable operator norm")
    a /= scale
    y /= scale
    return ReducedSystem(a, y, row_index, scale, weights is not None)


def reduce_scans(calib_band: np.ndarray, empty_scans: np.ndarray, spectrum: np.ndarray,
                 scans_per_bracket: int, band: np.ndarray, tau: float, concentration: float,
                 whiten: bool = False) -> tuple[ReducedSystem, FrequencySelection]:
    """Raw scans to the reduced system and its selection: bit for bit the
    steps above composed on the full arrays (whitening_weights if whiten),
    on any number of coils, computed on the band's run of bins only (band
    as band_pass returns it). Both SNR means add the scans in turn, as
    snr_scores does.

    calib_band is the band of the calibration scans with the scan axis
    last, calib[:, :, band].transpose(1, 2, 0): a C-contiguous (coils,
    band size, voxels) complex128 array, as read_verified(..., bins=)
    returns it. It is overwritten, and A is built inside it: the returned
    A is a view of the buffer's first bytes, so preprocess holds no second
    matrix. empty_scans (count, coils, freqs) and spectrum (coils, freqs)
    span every bin, and the scores, the selection, y, the weights and the
    row_index use their bin numbers, as the steps above do. Raises
    ValueError when no component reaches tau.
    """
    if calib_band.dtype != np.complex128 or not calib_band.flags.c_contiguous:
        raise ValueError("calib_band must be a C-contiguous complex128 array; "
                         "it is overwritten")
    if concentration <= 0:
        raise ValueError("calibration concentration must be positive")
    first = int(band[0]) if len(band) else 0
    bins = slice(first, first + len(band))
    if not np.array_equal(band, np.arange(empty_scans.shape[2])[bins]):
        raise ValueError("the band must be one run of consecutive bins of the spectra")
    if calib_band.shape[1] != len(band):
        raise ValueError("calib_band must hold the band's bins only")
    q = int(scans_per_bracket)
    if q < 2:
        raise ValueError("scans_per_bracket must be >= 2")
    empties = empty_scans[:, :, bins]
    m = calib_band.shape[2]
    # one pass over whole brackets: subtract the background, add each scan's
    # magnitudes to the SNR numerator in scan order as snr_scores does, then
    # divide by the concentration
    step = q * max(1, _SCORE_BLOCK // q)
    num = np.zeros(calib_band.shape[:2])
    for lo in range(0, m, step):
        block = calib_band[:, :, lo:lo + step]
        block -= interp_backgrounds(empties[lo // q:(lo + step) // q + 1], block.shape[2],
                                    q).transpose(1, 2, 0)
        for scan in np.abs(block).transpose(2, 0, 1):
            num += scan
        block /= concentration
    num /= m
    selection = select_frequencies(_score_ratio(num, empty_scans, bins), tau, band)
    if selection.row_count == 0:
        raise ValueError(f"no components reach tau={tau:g}, nothing to reconstruct from")
    y = subtract_background(spectrum, background_mean(empty_scans))
    weights = whitening_weights(empty_scans, selection) if whiten else None
    # component k lies in band row r = coil * len(band) + freq - first >= k;
    # its row pair of A takes the bytes of band row k; one row of scratch
    # makes the move safe where the two overlap
    coil, freq = _components(selection)
    rows = calib_band.reshape(-1, m)
    a = calib_band.reshape(-1).view(np.float64)[:selection.row_count * m].reshape(-1, m)
    scratch = np.empty(m, dtype=np.complex128)
    for k, r in enumerate(coil * len(band) + freq - first):
        scratch[:] = rows[r]
        a[2 * k] = scratch.real
        a[2 * k + 1] = scratch.imag
    return _normalized_system(a, y, coil, freq, weights), selection
