"""Small dense linear algebra on top of the kernels: Hermiticity and
unitarity guards, degenerate-cluster grouping of spectra, unitary logs and
exponentials, polar factors, and circle arithmetic.

Everything here is exact-arithmetic linear algebra; no physics. Matrices
are plain complex ndarrays, single or stacked (..., n, n).
"""

import numpy as np

from . import _kernels
from ._kernels import _adjoint
from .errors import (
    BranchCutError,
    HermiticityError,
    RankDeficiencyError,
    SkewHermiticityError,
    UnitarityError,
)

TWO_PI = 2.0 * np.pi
# an eigenphase closer than this to the log branch cut at pi is refused
BRANCH_MARGIN = 1e-6
# a polar factor needs a smallest singular value above this
SMIN_FLOOR = 1e-12


def mod_2pi(x):
    """Wrap angles into [0, 2*pi)."""
    # np.mod(-tiny, 2*pi) rounds up to exactly 2*pi; keep the range
    # half-open
    y = np.mod(x, TWO_PI)
    return np.where(y >= TWO_PI, 0.0, y)[()]


def circular_distance(a, b):
    """Shortest distance between two angles on the circle."""
    d = np.mod(np.asarray(a, dtype=float) - b, TWO_PI)
    return np.minimum(d, TWO_PI - d)


def hermitian_defect(m):
    """max |M - M^H| over a matrix or a stack (..., n, n), 0 for an empty
    one, NaN if any entry is NaN.

    |M - M^H| is symmetric, so a stack is read entry by entry over i <= j
    from same-shape strided views, without a conjugated transposed copy;
    one np.max over the entries' maxima lets a NaN through.
    """
    m = np.asarray(m)
    if not m.size:
        return 0.0
    if m.ndim > 2:
        n = m.shape[-1]
        return np.max([np.max(np.abs(m[..., i, j] - np.conj(m[..., j, i])))
                       for i in range(n) for j in range(i, n)])
    return np.max(np.abs(m - np.swapaxes(m.conj(), -1, -2)))


def require_hermitian(m, tol=1e-10, name="matrix"):
    """Return m, a matrix or a stack (..., n, n), or raise HermiticityError
    if its hermitian_defect exceeds tol; NaN is refused."""
    m = np.asarray(m)
    defect = hermitian_defect(m)
    if not defect <= tol:
        raise HermiticityError(
            f"{name} is not Hermitian: max |M - M^H| = {defect:.3e} > {tol:.1e}"
        )
    return m


# the one orthonormality guard: m is a matrix or a stack (..., n, n), or a
# frame or a stack of frames (..., n, K) whose columns must be orthonormal
def require_unitary(m, tol=1e-10, name="matrix"):
    m = np.asarray(m)
    defect = np.max(np.abs(_kernels._gram(m, m) - np.eye(m.shape[-1])))
    if not defect <= tol:
        raise UnitarityError(
            f"{name} is not unitary: max |M^H M - I| = {defect:.3e} > {tol:.1e}"
        )
    return m


def group_degenerate(w, rel_tol=1e-8):
    """Slices of (ascending) eigenvalues equal up to rel_tol * scale."""
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        return []
    scale = max(1.0, float(np.max(np.abs(w))))
    cut = rel_tol * scale
    groups = []
    start = 0
    for i in range(1, w.size):
        if w[i] - w[i - 1] > cut:
            groups.append(slice(start, i))
            start = i
    groups.append(slice(start, w.size))
    return groups


def _first_structure_break(ws, rel_tol=1e-8):
    """First row of a stack of ascending spectra (M, n) whose degenerate
    clusters differ from those of row 0, or None.

    Row by row this is the split rule of group_degenerate, so a row breaks
    exactly when its group sizes differ from those of row 0. A row
    ascends, so its largest |w| is at one of its ends, and the split
    pattern is compared one gap at a time on (M,) columns: numpy runs
    reductions along a short row axis slowly.
    """
    ws = np.asarray(ws, dtype=float)
    scale = np.maximum(np.abs(ws[:, 0]), np.abs(ws[:, -1]))
    cut = rel_tol * np.maximum(scale, 1.0, out=scale)
    broken = np.zeros(ws.shape[0], bool)
    for i in range(ws.shape[1] - 1):
        split = ws[:, i + 1] - ws[:, i] > cut
        broken |= split != split[0]
    broken = np.flatnonzero(broken)
    return int(broken[0]) if broken.size else None


def unitary_exp(a, tol=1e-10):
    """exp(A) for skew-Hermitian A, or for each matrix of a stack
    (..., n, n), unitary to rounding (see _kernels._expm_herm).

    The skew-Hermiticity check covers the whole stack: one offending
    matrix refuses the call. |A + A^H| is |H - H^H| for H = -i A, exactly,
    so the check is hermitian_defect of H, which reads a stack over
    i <= j without a copy.
    """
    h = -1j * np.asarray(a, dtype=np.complex128)
    defect = hermitian_defect(h)
    if not defect <= tol:
        raise SkewHermiticityError(
            f"matrix is not skew-Hermitian: max |A + A^H| = {defect:.3e} > {tol:.1e}"
        )
    h = (h + _adjoint(h)) / 2
    return _kernels._expm_herm(h, -1.0)


def unitary_eigenphases(u):
    """Sorted eigenphases of a unitary matrix, each in (-pi, pi]."""
    u = require_unitary(np.asarray(u, dtype=np.complex128), tol=1e-8)
    return np.sort(np.angle(np.linalg.eigvals(u)))


def _diagonalize_unitary(u):
    # One Hermitian eigensolve of the Cayley transform C = i(I-W)(I+W)^-1
    # of W = e^{-i phi} U, whose eigenvalues tan(alpha/2) map the
    # eigenphases alpha of W one to one onto the line. The shift puts the
    # cut alpha = +-pi in the middle of the widest gap between the
    # eigenphases of U, so I+W is never close to singular and C stays
    # well conditioned. Unlike the cos or sin part of U alone, C keeps
    # near-degenerate phase pairs apart linearly in their gap anywhere on
    # the circle. Works on one matrix or a stack.
    n = u.shape[-1]
    rough = np.sort(np.angle(np.linalg.eigvals(u)), axis=-1)
    gaps = np.diff(rough, axis=-1, append=rough[..., :1] + TWO_PI)
    widest = np.argmax(gaps, axis=-1)[..., None]
    phi = np.take_along_axis(rough + gaps / 2, widest, axis=-1) + np.pi
    w = np.exp(-1j * phi)[..., None] * u
    eye = np.eye(n)
    c = 1j * np.linalg.solve(eye + w, eye - w)
    t, v = np.linalg.eigh((c + _adjoint(c)) / 2)
    d = np.exp(1j * phi) * (1 + 1j * t) / (1 - 1j * t)
    return d, v


def _log_unitary2(u):
    # Closed-form log of a stack of 2 x 2 unitaries. With
    # alpha = arg(det U) / 2 in (-pi/2, pi/2], V = e^{-i alpha} U is in
    # SU(2): V = cos(theta) I + K with K the traceless skew-Hermitian part
    # and |K|_F = sqrt(2) sin(theta), so the eigenphases of U are
    # alpha +- theta, wrapped into (-pi, pi] one by one. On the eigenvector
    # of K with eigenvalue +-i sin(theta),
    # i (phi_+ + phi_-) / 2 + (phi_+ - phi_-) / (2 sin(theta)) K
    # is i phi_+-, so that is the principal log anywhere on the circle.
    alpha = np.angle(u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0]) / 2
    v = np.exp(-1j * alpha)[..., None, None] * u
    kz = (v[..., 0, 0].imag - v[..., 1, 1].imag) / 2
    kx = (v[..., 0, 1] - np.conj(v[..., 1, 0])) / 2
    sin = np.hypot(kz, np.abs(kx))
    theta = np.arctan2(sin, (v[..., 0, 0].real + v[..., 1, 1].real) / 2)
    x = np.stack([alpha + theta, alpha - theta], axis=-1)
    # one 2*pi shift where needed; phases already in range stay exact, since
    # a round trip through pi - x would put every small phase on the grid
    # of ulp(pi) and bias sums of many of them
    phases = np.where(x > np.pi, x - TWO_PI, np.where(x <= -np.pi, x + TWO_PI, x))
    mean = (phases[..., 0] + phases[..., 1]) / 2
    half = (phases[..., 0] - phases[..., 1]) / 2
    coef = np.divide(half, sin, out=np.ones_like(sin), where=sin > 0)
    log = np.empty(u.shape, np.complex128)
    log[..., 0, 0] = 1j * (mean + coef * kz)
    log[..., 1, 1] = 1j * (mean - coef * kz)
    log[..., 0, 1] = coef * kx
    log[..., 1, 0] = -np.conj(log[..., 0, 1])
    return phases, log


def _log_unitary_eig(u):
    # Eigenphases and log through one Hermitian eigensolve, any size.
    d, v = _diagonalize_unitary(u)
    resid = np.max(np.abs(u @ v - v * d[..., None, :]))
    if not resid <= 1e-7:
        raise UnitarityError(
            f"unitary diagonalization failed: eigen residual {resid:.3e}"
        )
    theta = np.angle(d)
    log = (v * (1j * theta)[..., None, :]) @ _adjoint(v)
    return theta, (log - _adjoint(log)) / 2


def matrix_log_unitary(u):
    """Principal skew-Hermitian logarithm of a unitary matrix, or of each
    matrix of a stack (..., n, n).

    Eigenphases land in (-pi, pi]. An eigenphase within BRANCH_MARGIN of the
    cut at pi is refused, because a phase straddling the cut makes the
    branch choice arbitrary. 2 x 2 matrices take a closed form
    (_log_unitary2), larger ones a Hermitian eigensolve (_log_unitary_eig).
    """
    u = require_unitary(np.asarray(u, dtype=np.complex128), tol=1e-8, name="log argument")
    theta, log = (_log_unitary2 if u.shape[-1] == 2 else _log_unitary_eig)(u)
    near = np.pi - np.abs(theta)
    k = np.unravel_index(np.argmin(near), near.shape)
    if not near[k] >= BRANCH_MARGIN:
        where = f" of matrix {[int(i) for i in k[:-1]]}" if u.ndim > 2 else ""
        raise BranchCutError(
            f"eigenphase {theta[k]:+.9f} of eigenvalue {np.exp(1j * theta[k]):.9f}"
            f"{where} lies within {BRANCH_MARGIN:.1e} of the log branch cut at pi"
        )
    return log


def polar_unitary(m):
    """Closest unitary to m (the polar factor).

    Rank deficiency makes the factor non-unique, so a smallest singular
    value at or below SMIN_FLOOR raises instead of silently picking one.
    """
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"polar factor needs a square matrix, got {m.shape}")
    u, smin = _kernels.polar_unitary(m)
    if not smin > SMIN_FLOOR:
        raise RankDeficiencyError(
            f"matrix is numerically rank deficient: smallest singular value "
            f"{smin:.3e} <= {SMIN_FLOOR:.1e}"
        )
    return u
