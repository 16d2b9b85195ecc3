"""Model catalog: a spin half in a constant field and the two-band ring
blocks (static, rotating, and the action-angle variant on the torus).

Each model bundles a Hamiltonian family, an exactly conserved partner
operator family, closed-form eigenframe paths of that partner, and the
analytic phase references the numerics are checked against.

Conventions: hbar = 1, time-periodic families H(t + T) = H(t), frames are
(dim, nvec) column stacks. Ring blocks act on the two bare ring modes that
the spin coupling mixes; block index n >= 0 labels the pair.
"""

import math
import numbers

import numpy as np

from . import _kernels
from ._kernels import _adjoint
from .errors import DegenerateMixingError
from .linalg import TWO_PI, require_hermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
ID2 = np.eye(2, dtype=np.complex128)


class OperatorFamily:
    """Periodic Hermitian matrix family t -> H(t).

    sampler maps a time array (M,) to the stack of matrices (M, dim, dim).
    The declared period is part of the contract: it must be finite and
    positive, and H(0) and H(period) must agree to 1e-10 relative, checked
    once at construction. trig_family, constant_family and
    rotating_family also set terms, the last two also rotation.
    """

    # set by trig_family, constant_family and rotating_family alone
    _terms = None
    # set by constant_family and rotating_family alone
    _rotation = None
    # set by assemble_blocks alone
    _hermitian = False

    def __init__(self, dim, period, sampler, label="family"):
        period = float(period)
        if not (math.isfinite(period) and period > 0.0):
            raise ValueError(f"period must be finite and positive, got {period}")
        self.dim = int(dim)
        self.period = period
        self.label = label
        self._sampler = sampler
        h0, hT = self.sample([0.0, self.period])
        if h0.shape != (self.dim, self.dim):
            raise ValueError(f"sampler returned shape {h0.shape}, expected {(dim, dim)}")
        require_hermitian(h0, tol=1e-10, name=f"{label} sample")
        scale = max(1.0, float(np.max(np.abs(h0))))
        defect = float(np.max(np.abs(hT - h0)))
        if not defect <= 1e-10 * scale:
            raise ValueError(
                f"{label} is not periodic over the declared period: "
                f"max |H(T) - H(0)| = {defect:.3e}"
            )

    def __call__(self, t):
        return self.sample([float(t)])[0]

    @property
    def terms(self):
        """(coefficients, omega): ((C0, C1, C2), omega) of a trig_family,
        ((C0,), 0.0) of a constant_family, read-only and exactly
        Hermitian; None for a plain sampler or an assemble_blocks sum."""
        return self._terms

    @property
    def rotation(self):
        """(H0, G) of a rotating_family, H(t) = R(t) H0 R(t)^H with
        R(t) = e^{-i G t}, whose propagator is R(t) e^{-i (H0 - G) t};
        (C0, None) of a constant_family, the case G = 0. Read-only and
        exactly Hermitian; None for any other family."""
        return self._rotation

    @property
    def hermitian(self):
        """True if every sample at a finite time is Hermitian bit for bit
        and finite (trig_family refuses a time at which omega t
        overflows): the family was built by trig_family or
        constant_family, or by assemble_blocks from such families. False
        for a plain sampler, whose samples are checked where they are
        used."""
        return self._hermitian or self._terms is not None

    def sample(self, times):
        times = np.asarray(times, dtype=float)
        return np.ascontiguousarray(self._sampler(times), dtype=np.complex128)


def _coefficient(c, name):
    """The exact Hermitian part of a coefficient matrix that is Hermitian
    to 1e-10, as a read-only copy, so that a later edit of the caller's
    array cannot reach the checked family: C bit for bit if C is exactly
    Hermitian, else C/2 + C^H/2, which cannot overflow."""
    c = require_hermitian(np.asarray(c, dtype=np.complex128), name=name)
    ch = _adjoint(c)
    c = c.copy() if np.array_equal(c, ch) else c / 2 + ch / 2
    c.flags.writeable = False
    return c


def _weights(terms, ts, label):
    """The real (M,) weights cos(omega t), sin(omega t) of the terms after
    C0 at the times ts, none for a constant family. An overflowed omega t
    is refused with ValueError: cos and sin of inf are NaN."""
    if len(terms[0]) == 1:
        return ()
    with np.errstate(over="ignore"):  # refused below
        wt = terms[1] * ts
    if not np.all(np.isfinite(wt)):
        raise ValueError(f"{label}: omega t is not finite at a sampled time")
    return np.cos(wt), np.sin(wt)


def _built_family(coefficients, omega, period, label):
    """The family with terms (coefficients, omega), exactly Hermitian
    with a finite sum of |C|. Its sampler writes each part of entry
    i <= j as C0's plus the nonzero later ones times their weights, in
    the order C0 + cos C1 + sin C2, and entry (j, i) as the conjugate."""
    with np.errstate(over="ignore"):  # an overflow is what is refused
        bound = sum(np.abs(c) for c in coefficients)
    if not np.all(np.isfinite(bound)):
        raise ValueError(f"{label}: the sum of the coefficients' |C| is not finite")
    terms = (tuple(coefficients), float(omega))
    n = coefficients[0].shape[0]
    plan = [(p, i, j, [float((c.real, c.imag)[p][i, j]) for c in coefficients])
            for p in (0, 1) for i in range(n) for j in range(i, n)]

    def many(ts):
        ws = _weights(terms, ts, label)
        out = np.empty(ts.shape + (n, n), np.complex128)
        parts = (out.real, out.imag)
        for p, i, j, vals in plan:
            e = parts[p][..., i, j]
            e[...] = vals[0]
            for w, v in zip(ws, vals[1:]):
                if v:
                    e += w * v
            if i < j:
                (np.negative if p else np.positive)(e, out=parts[p][..., j, i])
        return out

    family = OperatorFamily(n, period, many, label=label)
    family._terms = terms
    return family


def trig_family(c0, c1, c2, omega, period=None, label="family"):
    """H(t) = C0 + cos(omega t) C1 + sin(omega t) C2 with vector sampling.

    The family's terms are (C0, C1, C2) and omega. Each sample is
    Hermitian bit for bit: the coefficients are exactly Hermitian, and
    each entry is formed once, its mirror as the conjugate."""
    c0, c1, c2 = _coefficient(c0, "C0"), _coefficient(c1, "C1"), _coefficient(c2, "C2")
    if not math.isfinite(omega):
        raise ValueError(f"frequency must be finite, got {omega}")
    if period is None:
        if omega == 0.0:
            raise ValueError("a constant family needs an explicit period")
        period = TWO_PI / abs(omega)
    return _built_family((c0, c1, c2), omega, period, label)


def constant_family(c0, period, label="family"):
    """H(t) = C0, declared constant: aa_phase reads its one term C0 and
    evolve its rotation (C0, None) in place of samples."""
    c0 = _coefficient(c0, "C0")
    family = _built_family((c0,), 0.0, period, label)
    family._rotation = (c0, None)
    return family


# the tolerances of rotating_family: a frequency matches 0 or omega to
# 1e-10 of omega, and an entry of H0 in G's eigenbasis below 1e-12 of
# max |H0| is rounding, whatever its frequency
_RATE_TOL = 1e-10
_ENTRY_TOL = 1e-12


def rotating_family(h0, g, period, label="family"):
    """H(t) = R(t) H0 R(t)^H with R(t) = e^{-i G t}: H0 turned rigidly by
    the generator G, with the exact propagator R(t) e^{-i (H0 - G) t}
    (Lewis and Riesenfeld, J. Math. Phys. 10, 1458 (1969)), which evolve
    takes from rotation = (H0, G).

    In G's eigenbasis (G's own basis if G is diagonal, else ascending)
    entry (j, k) of H0 turns as e^{-i (g_j - g_k) t}, and every entry
    must turn at 0 or -+omega with |omega| = 2 pi / period, omega read
    from G's spectrum. The first turning entry above the diagonal turns
    as e^{i omega t}, which fixes omega's sign. The terms are C0 (the
    entries at rest), C1 (the turning entries) and C2 (i times those at
    e^{i omega t}, -i times those at e^{-i omega t}), each taken back to
    the given basis, so that H(t) = C0 + cos(omega t) C1 + sin(omega t) C2
    is sampled and read by aa_phase as a trig_family. A second harmonic
    or any other frequency is refused with ValueError, as are a
    non-finite entry and a period that is not finite and positive; a
    non-Hermitian H0 or G raises HermiticityError."""
    period = float(period)
    if not (math.isfinite(period) and period > 0.0):
        raise ValueError(f"period must be finite and positive, got {period}")
    h0, g = np.asarray(h0, dtype=np.complex128), np.asarray(g, dtype=np.complex128)
    for name, m in (("H0", h0), ("G", g)):
        if not np.all(np.isfinite(m)):
            raise ValueError(f"{label}: {name} has a non-finite entry")
    if h0.ndim != 2 or h0.shape != g.shape:
        raise ValueError(f"H0 {h0.shape} and G {g.shape} must be square of one shape")
    h0, g = _coefficient(h0, "H0"), _coefficient(g, "G")
    diagonal = not np.any(g - np.diag(np.diag(g)))
    if diagonal:
        rates, a = np.diag(g).real, h0
    else:
        rates, v = np.linalg.eigh(g)
        a = _adjoint(v) @ h0 @ v
    rate, tol = TWO_PI / period, _RATE_TOL * TWO_PI / period
    with np.errstate(over="ignore"):  # an infinite rate is refused below
        d = rates[:, None] - rates[None, :]
        at_rest = np.abs(d) <= tol
        turning = ~at_rest & (np.abs(a) > _ENTRY_TOL * np.max(np.abs(h0)))
        omega = rate
        if turning.any():
            j, k = np.argwhere(np.triu(turning))[0]
            omega = -d[j, k]
            if not abs(abs(omega) - rate) <= tol:
                raise ValueError(
                    f"{label}: entry ({j}, {k}) of H0 turns at {abs(omega):.6g}, "
                    f"not at 2 pi / period = {rate:.6g}"
                )
        up, down = np.abs(d + omega) <= tol, np.abs(d - omega) <= tol
    stray = turning & ~(up | down)
    if stray.any():
        j, k = np.argwhere(stray)[0]
        raise ValueError(
            f"{label}: entry ({j}, {k}) of H0 turns at {abs(d[j, k]):.6g}, "
            f"not at 0 or omega = {abs(omega):.6g}; a second harmonic is not "
            "a rigid rotation at one frequency"
        )
    ia = 1j * a
    coefficients = [np.where(at_rest, a, 0), np.where(up | down, a, 0),
                    np.where(up, ia, np.where(down, -ia, 0))]
    if not diagonal:
        coefficients = [v @ c @ _adjoint(v) for c in coefficients]
    coefficients = [_coefficient(c, f"C{i}") for i, c in enumerate(coefficients)]
    family = _built_family(coefficients, omega, period, label)
    family._rotation = (h0, g)
    return family


def _cone_frame(theta, omega, t):
    # Eigenframe of a cone precessing at rate omega about the z axis with
    # half-opening angle theta. Columns: the +1 and the -1 eigenvector.
    ct, st = math.cos(theta), math.sin(theta)
    ph = np.exp(1j * omega * np.asarray(t, dtype=float))
    f = np.empty(np.shape(t) + (2, 2), dtype=np.complex128)
    f[..., 0, 0] = ct
    f[..., 1, 0] = ph * st
    f[..., 0, 1] = st / ph
    f[..., 1, 1] = -ct
    return f


def _frame_state(model, branch, t=0.0):
    """The state of one branch at time t: its column of the model's
    frame_batch, '+' (or 0) first."""
    return model.frame_batch(t)[:, _branch_column(branch)]


class SpinHalf:
    """Spin half in a constant field along z.

    The conserved partner is a unit cone tilted by 2*theta, precessing at
    the field frequency. Its eigenframes pick up Berry phases
    pi*(1 +- cos(2*theta)) per turn while the total phase stays pi.
    """

    formulas = {
        "berry_plus": "pi*(1 + cos(2*theta))",
        "berry_minus": "pi*(1 - cos(2*theta))",
        "dynamic_plus": "-pi*cos(2*theta)",
        "dynamic_minus": "+pi*cos(2*theta)",
        "total": "pi",
    }

    def __init__(self, theta=math.pi / 6, omega_s=1.0):
        self.theta = _finite("theta", theta)
        self.omega_s = _finite("omega_s", omega_s)
        if self.omega_s <= 0.0:
            raise ValueError(f"field frequency must be positive, got {omega_s}")
        self.period = TWO_PI / self.omega_s
        self.hamiltonian = constant_family(
            0.5 * self.omega_s * SIGMA_Z, self.period, label="spin field"
        )
        c2, s2 = math.cos(2 * self.theta), math.sin(2 * self.theta)
        self.invariant = trig_family(
            c2 * SIGMA_Z, s2 * SIGMA_X, s2 * SIGMA_Y, self.omega_s, label="spin cone"
        )
        self.references = {
            "berry_plus": math.pi * (1.0 + c2),
            "berry_minus": math.pi * (1.0 - c2),
            "dynamic_plus": -math.pi * c2,
            "dynamic_minus": math.pi * c2,
            "total": math.pi,
        }

    def frame_batch(self, times):
        """Both cone eigenvectors at each time, shape times.shape + (2, 2)."""
        return _cone_frame(self.theta, self.omega_s, np.asarray(times, dtype=float))

    state = _frame_state


def _finite(name, value):
    """value as a float; refused by name with ValueError unless finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _branch_column(branch):
    if branch in ("+", 0):
        return 0
    if branch in ("-", 1):
        return 1
    raise ValueError(f"branch must be '+' or '-', got {branch!r}")


def ring_parameters(n, eps, chi, omega=None):
    """The attributes every ring block shares, as a dict: n, eps, chi,
    the bare gap g and coupling delta, their quadrature s (the band
    splitting) and the mixing angle theta_mix; given omega, also omega,
    kappa = omega (n + 1/2) and the splitting rate omega_ns = kappa s.
    Refused by name with ValueError: an n that is not a non-negative
    integer, a non-finite eps, chi or omega, an omega <= 0. A vanishing s
    merges the bands, a model error: DegenerateMixingError."""
    if not (isinstance(n, numbers.Integral) and n >= 0):
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    p = {"n": int(n), "eps": _finite("eps", eps), "chi": _finite("chi", chi)}
    if omega is not None:
        p["omega"] = _finite("omega", omega)
        if not p["omega"] > 0.0:
            raise ValueError(f"omega must be positive, got {omega}")
    eps, chi = p["eps"], p["chi"]
    delta = eps * math.cos(chi)
    g = 1.0 - eps * math.sin(chi)
    s_sq = delta * delta + g * g
    if not s_sq > 1e-12:
        raise DegenerateMixingError(
            f"band coupling vanishes at eps={eps}, chi={chi}: "
            "the two bands merge and the mixing angle is undefined"
        )
    s = math.sqrt(s_sq)
    p.update(delta=delta, g=g, s=s, theta_mix=0.5 * math.atan2(-delta, -g))
    if omega is not None:
        kappa = p["omega"] * (p["n"] + 0.5)
        p.update(kappa=kappa, omega_ns=kappa * s)
    return p


def _band_frame(block, theta):
    """Instantaneous band vectors of a ring block at winding phase theta,
    upper first."""
    cm, sm = math.cos(block.theta_mix), math.sin(block.theta_mix)
    ph = np.exp(-1j * np.asarray(theta, dtype=float))
    f = np.empty(np.shape(theta) + (2, 2), dtype=np.complex128)
    f[..., 0, 0] = cm
    f[..., 1, 0] = ph * sm
    f[..., 0, 1] = -sm
    f[..., 1, 1] = ph * cm
    return f


def coupling_matrix(delta, g, theta=0.0):
    """The 2x2 band-coupling matrix at winding phase theta."""
    e = np.exp(1j * theta)
    return np.array([[g, delta * e], [delta / e, -g]], dtype=np.complex128)


class StaticRingBlock:
    """One 2x2 block of the static ring, H = Omega * L^2.

    L has split eigenvalues (n + 1/2) -+ s/2, so H is nondegenerate and
    the exactly conserved cone precesses at the level splitting
    2*Omega*(n + 1/2)*s. The cone half-angle is a free parameter; the
    Berry phases per cycle are pi*(1 +- cos(2*cone)).

    The conserved operator is offset by 4n so that direct sums of blocks
    keep disjoint spectra {4n - 1, 4n + 1}.
    """

    formulas = {
        "berry_plus": "pi*(1 + cos(2*cone))",
        "berry_minus": "pi*(1 - cos(2*cone))",
        "e_plus": "omega*((n + 1/2) + s/2)**2",
        "e_minus": "omega*((n + 1/2) - s/2)**2",
    }

    def __init__(self, n=0, cone=math.pi / 6, omega=1.0, eps=0.5, chi=math.pi / 3):
        vars(self).update(ring_parameters(n, eps, chi, omega))
        self.cone = _finite("cone", cone)
        half = self.n + 0.5
        self.splitting = 2.0 * self.omega_ns
        self.period = math.pi / self.omega_ns
        self.e_plus = self.omega * (half + 0.5 * self.s) ** 2
        self.e_minus = self.omega * (half - 0.5 * self.s) ** 2

        ell = half * ID2 - 0.5 * coupling_matrix(self.delta, self.g)
        self.hamiltonian = constant_family(
            self.omega * (ell @ ell), self.period, label=f"static ring block n={self.n}"
        )

        # Band basis: columns are the upper and lower band vectors. Real
        # rotation, so primed Paulis are plain congruences.
        cm, sm = math.cos(self.theta_mix), math.sin(self.theta_mix)
        self.band_basis = np.array([[cm, -sm], [sm, cm]], dtype=np.complex128)
        b = self.band_basis
        sz = b @ SIGMA_Z @ b.conj().T
        sx = b @ SIGMA_X @ b.conj().T
        sy = b @ SIGMA_Y @ b.conj().T
        c2, s2 = math.cos(2 * self.cone), math.sin(2 * self.cone)
        self.invariant = trig_family(
            4.0 * self.n * ID2 + c2 * sz,
            s2 * sx,
            s2 * sy,
            self.splitting,
            label=f"static ring cone n={self.n}",
        )
        self.references = {
            "berry_plus": math.pi * (1.0 + c2),
            "berry_minus": math.pi * (1.0 - c2),
            "e_plus": self.e_plus,
            "e_minus": self.e_minus,
            "splitting": self.splitting,
            "invariant_levels": (4.0 * self.n + 1.0, 4.0 * self.n - 1.0),
        }

    def frame_batch(self, times):
        cones = _cone_frame(self.cone, self.splitting, np.asarray(times, dtype=float))
        return _kernels._matmul(self.band_basis, cones)

    state = _frame_state


class RotatingRingBlock:
    """One 2x2 block of the ring with a rotating coupling phase.

    Block angular momentum is (n + 1/2) times the identity: exactly
    conserved and doubly degenerate, so the natural frame carries both
    band vectors and the holonomy is a 2x2 phase matrix. Over one turn
    its eigenvalues are 0 and 2*pi, hence a trivial loop unitary even
    though the phase matrix itself is not zero.
    """

    formulas = {
        "gamma_eigenvalues": "(0, 2*pi)",
        "adiabatic_plus": "pi*(1 - cos(2*mix))",
        "adiabatic_minus": "pi*(1 + cos(2*mix))",
    }

    def __init__(self, n=0, omega=1.0, eps=0.5, chi=math.pi / 3, omega_o=1.0):
        vars(self).update(ring_parameters(n, eps, chi, omega))
        if not math.isfinite(omega_o):
            raise ValueError(f"frequency must be finite, got {omega_o}")
        if omega_o == 0.0:
            raise ValueError("rotation frequency must be nonzero; use StaticRingBlock instead")
        self.omega_o = float(omega_o)
        half = self.n + 0.5
        self.c0 = self.omega * (half * half + 0.25 * self.s * self.s)
        self.period = TWO_PI / abs(self.omega_o)
        self.e_plus = self.c0 + self.kappa * self.s
        self.e_minus = self.c0 - self.kappa * self.s

        # H(0), turned by G = -omega_o sigma_z / 2 into the coupling phase
        # e^{i omega_o t}: the terms C0 = c0 - kappa g sigma_z,
        # C1 = -kappa delta sigma_x, C2 = kappa delta sigma_y, omega_o
        self.hamiltonian = rotating_family(
            (self.c0 * ID2 - self.kappa * self.g * SIGMA_Z)
            + (-self.kappa * self.delta * SIGMA_X),
            -0.5 * self.omega_o * SIGMA_Z,
            self.period,
            label=f"rotating ring block n={self.n}",
        )
        self.invariant = constant_family(
            half * ID2, self.period, label=f"ring angular momentum n={self.n}"
        )

        cm, sm = math.cos(self.theta_mix), math.sin(self.theta_mix)
        self.gamma_ref = TWO_PI * np.array(
            [[sm * sm, sm * cm], [sm * cm, cm * cm]], dtype=np.complex128
        )
        c2 = math.cos(2 * self.theta_mix)
        self.references = {
            "gamma_eigenvalues": (0.0, TWO_PI),
            "adiabatic_plus": math.pi * (1.0 - c2),
            "adiabatic_minus": math.pi * (1.0 + c2),
            "e_plus": self.e_plus,
            "e_minus": self.e_minus,
        }

    band_frame = _band_frame

    def frame_batch(self, times):
        return self.band_frame(self.omega_o * np.asarray(times, dtype=float))

    state = _frame_state


class ActionRingBlock:
    """Action operator of one ring block as a function of the winding
    phase, plus the matching wavefunctions on the angle grid, sampled as
    unit vectors.

    The operator (n + 1/2) - M(theta)/2 has theta-independent eigenvalues
    n + (1 +- s)/2; transporting its eigenfunctions once around the torus
    direction gives phases pi*(1 -+ cos(2*mix)), upper branch first.
    """

    formulas = {
        "torus_plus": "pi*(1 - cos(2*mix))",
        "torus_minus": "pi*(1 + cos(2*mix))",
        "action_levels": "(n + (1 + s)/2, n + (1 - s)/2)",
    }

    def __init__(self, n=0, eps=0.5, chi=math.pi / 3, n_phi=64):
        vars(self).update(ring_parameters(n, eps, chi))
        if n_phi < 4:
            raise ValueError(f"need n_phi >= 4, got n_phi={n_phi}")
        self.n_phi = int(n_phi)
        self.action_plus = self.n + 0.5 * (1.0 + self.s)
        self.action_minus = self.n + 0.5 * (1.0 - self.s)
        self.phi_grid = TWO_PI * np.arange(self.n_phi) / self.n_phi
        c2 = math.cos(2 * self.theta_mix)
        self.references = {
            "torus_plus": math.pi * (1.0 - c2),
            "torus_minus": math.pi * (1.0 + c2),
            "connection_plus": 0.5 * (1.0 - c2),
            "connection_minus": 0.5 * (1.0 + c2),
            "action_levels": (self.action_plus, self.action_minus),
        }

    def operator(self, theta):
        return (self.n + 0.5) * ID2 - 0.5 * coupling_matrix(self.delta, self.g, theta)

    band_frame = _band_frame

    def torus_state(self, branch, theta):
        """Spinor wavefunction samples on the angle grid at winding phase
        theta, a scalar or an array: shape theta.shape + (n_phi, 2).

        Each sample is unit when flattened: both components carry the
        grid weight 1/sqrt(n_phi), and modes n and n+1 are exactly
        orthonormal on any grid with n_phi > |n| + 1 points. A large
        stack is written in two halves of its theta rows at once
        (_kernels._split_rows).
        """
        col = _branch_column(branch)
        cm, sm = math.cos(self.theta_mix), math.sin(self.theta_mix)
        a, b = (cm, sm) if col == 0 else (-sm, cm)
        w = 1.0 / math.sqrt(self.n_phi)
        theta = np.asarray(theta, dtype=float)
        out = np.empty(theta.shape + (self.n_phi, 2), dtype=np.complex128)
        upper = (a * w) * np.exp(1j * self.n * self.phi_grid)
        # the lower component is the outer product e^{-i theta} x
        # b e^{i(n+1) phi}: one exp per winding sample and per grid point,
        # not one per pair
        turn = np.exp(-1j * theta).reshape(-1, 1)
        lower = (b * w) * np.exp(1j * (self.n + 1) * self.phi_grid)
        rows = out.reshape((turn.shape[0], self.n_phi, 2), copy=False)

        def write(lo, hi):
            rows[lo:hi, :, 0] = upper
            np.multiply(turn[lo:hi], lower, out=rows[lo:hi, :, 1])

        _kernels._split_rows(write, turn.shape[0], out.nbytes)
        return out


def assemble_blocks(families, period=None, label="direct sum"):
    """Direct sum of operator families on a shared time axis; hermitian
    when every block is, since the blocks off the diagonal are exact
    zeros."""
    families = list(families)
    if not families:
        raise ValueError("need at least one family")
    if period is None:
        period = families[0].period
    dims = [f.dim for f in families]
    total = sum(dims)
    offs = np.concatenate(([0], np.cumsum(dims)))

    def many(ts):
        h = np.zeros((ts.size, total, total), dtype=np.complex128)
        for f, a, b in zip(families, offs[:-1], offs[1:]):
            h[:, a:b, a:b] = f.sample(ts)
        return h

    family = OperatorFamily(total, period, many, label=label)
    family._hermitian = all(f.hermitian for f in families)
    return family
