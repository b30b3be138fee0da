"""Two-stage collective attacks on the qutrit round trip.

An attack is a pair of isometries: `forward` acts while the qutrit travels
to the receiver (3 -> 3*d_f, appending an ancilla of dimension d_f) and
`reverse` acts on the way back (3*d_f -> 3*d_f*d_r, appending a second
ancilla).  All output indices are row-major with the qutrit most
significant, so block j of an output vector is the eavesdropper record
attached to the qutrit being found in state |j>.

The canonical symmetric attack is a generalized-Pauli twirl in each
direction, which realizes the ternary symmetric channel
rho -> (1-3Q) rho + Q I exactly.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .linalg import (OMEGA, basis_vectors, gaussian_matrix, haar_isometry,
                     isometries_from_gaussian, sequential_sum)

ISOMETRY_TOL = 1e-12

#: Largest per-pair flip probability of the analytic scenarios: the twirl
#: weight 1 - 8Q/3 of the error-free pattern stays nonnegative up to 3/8.
Q_MAX = 0.375


def _integer_at_least(name: str, value, least: int) -> int:
    """value as an int; a ValueError names it unless it is an integer
    >= least, a numpy integer included, but not a bool."""
    try:
        number = operator.index(value)   # refuses floats, even integral ones
    except TypeError:
        number = least - 1
    # bool is a subclass of int
    if isinstance(value, bool) or number < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return number


def _check_isometries(name: str, m: np.ndarray) -> None:
    """Reject a stack (..., rows, cols) of stages unless every m^H m is the
    identity within ISOMETRY_TOL."""
    # a non-finite entry gives a NaN deviation, which fails the test
    with np.errstate(invalid="ignore"):
        dev = np.max(np.abs(m.conj().swapaxes(-1, -2) @ m
                            - np.eye(m.shape[-1])))
    if not dev <= ISOMETRY_TOL:
        raise ValueError(f"{name} stage is not an isometry")


def _json_document(text: str, names: tuple) -> dict:
    """The JSON object in text; a ValueError names the first missing field."""
    doc = json.loads(text)
    for name in names:
        if not (isinstance(doc, dict) and name in doc):
            raise ValueError(f"JSON document has no field {name!r}")
    return doc


def _json_numbers(doc: dict, name: str, shape: tuple) -> np.ndarray:
    """doc[name], nested JSON lists of numbers of the given shape, as a float
    array; a ValueError names the field if it has another form."""
    def fits(value, dims):
        if not dims:
            return type(value) in (int, float)  # not bool, a subclass of int
        return (isinstance(value, list) and len(value) == dims[0]
                and all(fits(v, dims[1:]) for v in value))
    if not fits(doc[name], shape):
        raise ValueError(f"{name} must be a JSON array of numbers of "
                         f"shape {shape}")
    return np.array(doc[name], dtype=float)


#: The allowed values of each convention flag, the default first, in the
#: order that ChannelScenario.flags() and the threshold JSON print them.
CONVENTIONS = {
    "variant": ("phi1", "phi2"),
    "model": ("dependent", "independent"),
    "basis_noise_convention": ("per-pair", "total"),
    "joint_weighting": ("as-printed", "normalized"),
    "p_mode": ("as-printed", "corrected"),
}


def check_conventions(**values) -> None:
    """Reject a name that is not in CONVENTIONS, and a value that is not in
    CONVENTIONS[name], for each name=value."""
    for name, value in values.items():
        if name not in CONVENTIONS:
            raise ValueError(f"unknown convention flag {name!r}, expected one of "
                             + ", ".join(CONVENTIONS))
        if value not in CONVENTIONS[name]:
            raise ValueError(f"unknown {name} {value!r}, expected one of "
                             + ", ".join(CONVENTIONS[name]))


@dataclass(frozen=True)
class ChannelScenario:
    """Noise scenario for the analytic key-rate evaluation.

    q is the per-pair flip probability of the ternary symmetric channel in
    each direction.  `model` picks how the alternative-basis (T or K) noise
    relates to q, `variant` picks the alternative basis, and the remaining
    flags select formula conventions; CONVENTIONS lists each flag's values.
    """

    q: float
    model: str = "dependent"
    variant: str = "phi1"
    basis_noise_convention: str = "per-pair"
    joint_weighting: str = "as-printed"
    p_mode: str = "as-printed"

    def __post_init__(self):
        if not 0.0 <= self.q <= Q_MAX:
            raise ValueError(f"q={self.q} outside [0, 3/8]")
        check_conventions(**self.flags())

    def flags(self) -> dict:
        return {name: getattr(self, name) for name in CONVENTIONS}


def alternative_basis_error(q, model: str, basis_noise_convention: str):
    """Per-pair alternative-basis error probability at noise q (scalar or array)."""
    value = q if model == "dependent" else 2.0 * q * (2.0 - 3.0 * q)
    if basis_noise_convention == "total":
        value = value / 2.0
    return value


def ternary_channel_apply(rho: np.ndarray, q: float) -> np.ndarray:
    """Ternary symmetric channel rho -> (1-3q) rho + q I, for q in [0, 3/8]."""
    if not 0.0 <= q <= Q_MAX:
        raise ValueError(f"channel parameter {q} outside [0, 3/8]")
    rho = np.asarray(rho, dtype=complex)
    return (1.0 - 3.0 * q) * rho + q * np.eye(3)


def twirl_weights(q: float) -> np.ndarray:
    """3x3 weights over shift/clock error patterns realizing the channel."""
    if not 0.0 <= q <= Q_MAX:
        raise ValueError(f"twirl weight would be negative for q={q}")
    w = np.full((3, 3), q / 3.0)
    w[0, 0] = 1.0 - 8.0 * q / 3.0
    return w


def pauli_twirl_isometry(q: float) -> np.ndarray:
    """Dilation |psi> -> sum_ab sqrt(w_ab) (X^a Z^b |psi>) x |ab>, (27 x 3).

    X is the shift |i> -> |i+1 mod 3> and Z the clock |i> -> omega^i |i>,
    so X^a Z^b |i> = z_b[i] |i+a>.  Tracing out the 9-dimensional ancilla
    reproduces ternary_channel_apply.
    """
    w = twirl_weights(q)
    z1 = np.array([1.0, OMEGA, OMEGA**2], dtype=complex)
    # z_2 is the product z1 * z1 that the matrix square Z @ Z forms
    z = np.stack([np.ones(3, dtype=complex), z1, z1 * z1])
    i = np.arange(3)
    v = np.zeros((3, 3, 3, 3), dtype=complex)   # [out, a, b, in]
    for a in range(3):
        for b in range(3):
            v[(i + a) % 3, a, b, i] += np.sqrt(w[a, b]) * z[b]
    return v.reshape(27, 3)


def pauli_twirl_attack(q_forward: float, q_reverse: float) -> AttackModel:
    """Symmetric two-stage attack: a Pauli twirl in each direction."""
    fw = pauli_twirl_isometry(q_forward)            # (27, 3), d_f = 9
    # the reverse twirl dilates the qutrit and passes the forward ancilla
    # through, [qout, af, ab, qin, af]; += onto zeros stores -0.0 as +0.0
    rv = np.zeros((3, 9, 9, 3, 9), dtype=complex)
    af = np.arange(9)
    rv[:, af, :, :, af] += pauli_twirl_isometry(q_reverse).reshape(3, 9, 3)
    return AttackModel(fw, rv.reshape(243, 27))


def identity_attack() -> AttackModel:
    """No-op attack (d_f = d_r = 1)."""
    eye = np.eye(3, dtype=complex)
    return AttackModel(eye, eye)


def random_attack(d_f: int, d_r: int, seed: int) -> AttackModel:
    """Haar-random two-stage attack; seed is required for reproducibility.

    d_f and d_r are integers >= 1 and seed any integer >= 0, numpy integers
    included, but not bools; each is checked before any draw.
    """
    d_f, d_r = _integer_at_least("d_f", d_f, 1), _integer_at_least("d_r", d_r, 1)
    rng = np.random.default_rng(_integer_at_least("seed", seed, 0))
    return AttackModel(haar_isometry(3 * d_f, 3, rng),
                       haar_isometry(3 * d_f * d_r, 3 * d_f, rng))


#: Most bytes of Gaussian input that random_attack_stacks factors in one
#: QR call.
_QR_STACK_BYTES = 256 * 1024


def random_attack_stacks(d_f: int, d_r: int, seeds) -> Iterator[AttackModel]:
    """Haar-random two-stage attacks of one shape, one per seed, as
    AttackModel stacks of n consecutive seeds, stages (n, 3*d_f, 3) and
    (n, 3*d_f*d_r, 3*d_f), with the bits of random_attack(d_f, d_r, seed).

    Each seed's generator draws the forward stage's Gaussian matrix, then
    the reverse stage's, as random_attack draws them.  The matrices of each
    stage are factored in one stacked QR call per stack, of at most
    _QR_STACK_BYTES of input, which gives every attack the bits of its own
    per-matrix calls.  The dimensions and seeds are checked as random_attack
    checks them.
    """
    d_f, d_r = _integer_at_least("d_f", d_f, 1), _integer_at_least("d_r", d_r, 1)
    fw_shape, rv_shape = (3 * d_f, 3), (3 * d_f * d_r, 3 * d_f)
    # 16-byte entries; the reverse stage is the larger
    per_call = max(1, _QR_STACK_BYTES // (16 * math.prod(rv_shape)))
    seeds = iter(seeds)
    while chunk := list(itertools.islice(seeds, per_call)):
        fw_z, rv_z = [], []
        for seed in chunk:
            rng = np.random.default_rng(_integer_at_least("seed", seed, 0))
            fw_z.append(gaussian_matrix(*fw_shape, rng))
            rv_z.append(gaussian_matrix(*rv_shape, rng))
        yield AttackModel(isometries_from_gaussian(np.array(fw_z)),
                          isometries_from_gaussian(np.array(rv_z)))


def _basis_change_coefficients(basis_id: str) -> np.ndarray:
    """Coefficients (9, 9) that express the round-trip records on the T or
    K basis.

    If V|i,0> = sum_j |j, f_{3i+j}> on the canonical basis, then on a basis
    with kets b_i the same operator reads V|b_i,0> = sum_j |b_j, v_{3i+j}>
    with v_{3i+j} = sum_{a,c} B[a,i] conj(B[c,j]) f_{3a+c}; entry
    [3a+c, 3i+j] is that coefficient.
    """
    b = basis_vectors(basis_id)
    # scalar products: a broadcast array product rounds differently
    return np.array([[b[a, i] * np.conj(b[c, j])
                      for i in range(3) for j in range(3)]
                     for a in range(3) for c in range(3)])


_T_CHANGE = _basis_change_coefficients("T")
_K_CHANGE = _basis_change_coefficients("K")


def _family(build):
    """A family of AttackModel: built by `build` on first read, then kept
    read-only, so no write can make it stale."""
    @functools.wraps(build)
    def family(self):
        array = build(self)
        array.flags.writeable = False
        return array
    return functools.cached_property(family)


@dataclass(frozen=True, eq=False)
class AttackModel:
    """Eve's two-stage attack, or a stack of attacks of one shape: the
    forward stages (..., 3*d_f, 3) and reverse stages (..., 3*d_f*d_r,
    3*d_f), with equal leading axes, and the record families of each.

    d_f and d_r are read off the stage shapes.  The model checks that every
    stage is an isometry and keeps read-only copies of the stages it is
    given, so neither they nor its families can change.  Equality is
    identity.

    Each family is built the first time it is read and kept read-only; it
    gains the stages' leading axes, and each attack of a stack gets the
    bits of its own families.  Each record is a vector along the last axis;
    D = d_f * d_r.

    e       (9, d_f)      e[3i+j]: forward record when |i> was sent and |j>
                          arrives.
    ekij    (3, 3, 9, D)  ekij[k, i, j]: record after the reverse stage
                          maps |i, e_j> onto |k> (j indexes e, so
                          0 <= j < 9).
    records (3, 3, 3, D)  records[i, j, k] = ekij[k, j, 3i+j]: the records
                          of the canonical measure-and-resend rounds (sent
                          |i>, receiver found |j>, sender finds |k>).
    f       (9, D)        f[3i+j]: records of the composed round trip
                          V|i,0>.
    g       (9, D)        g[3i+j]: same, expressed on the T basis.
    h       (9, D)        h[3i+j]: same, expressed on the K basis.
    """

    forward: np.ndarray = field(repr=False)
    reverse: np.ndarray = field(repr=False)

    def __post_init__(self):
        fw, rv = self.forward, self.reverse
        if fw.ndim < 2 or fw.shape[-1] != 3 or fw.shape[-2] % 3:
            raise ValueError(f"forward shape {fw.shape} is not (..., 3*d_f, 3)")
        cols = fw.shape[-2]
        if (rv.ndim != fw.ndim or rv.shape[:-2] != fw.shape[:-2]
                or rv.shape[-1] != cols or rv.shape[-2] % cols):
            raise ValueError(f"reverse shape {rv.shape} is not (..., 3*d_f*d_r, "
                             f"3*d_f) with forward shape {fw.shape}")
        _check_isometries("forward", fw)
        _check_isometries("reverse", rv)
        for name, stage in (("forward", fw), ("reverse", rv)):
            stage = stage.copy(order="K")
            stage.flags.writeable = False
            object.__setattr__(self, name, stage)

    @property
    def d_f(self) -> int:
        return self.forward.shape[-2] // 3

    @property
    def d_r(self) -> int:
        return self.reverse.shape[-2] // self.reverse.shape[-1]

    @property
    def _stack(self) -> tuple:
        return self.forward.shape[:-2]

    @_family
    def e(self) -> np.ndarray:
        return self.forward.swapaxes(-1, -2).reshape(
            self._stack + (9, self.d_f))

    @_family
    def f(self) -> np.ndarray:
        dim = self.reverse.shape[-2] // 3
        return (self.reverse @ self.forward).swapaxes(-1, -2).reshape(
            self._stack + (9, dim))

    @_family
    def g(self) -> np.ndarray:
        return self._on_basis(_T_CHANGE)

    @_family
    def h(self) -> np.ndarray:
        return self._on_basis(_K_CHANGE)

    def _on_basis(self, change: np.ndarray) -> np.ndarray:
        """f expressed on the basis of the coefficients `change`."""
        k = len(self._stack)   # record axes count from k on
        # a sequential sum over a leading (a, c) axis, whose terms are laid
        # out in C order: numpy's pairwise sums would round differently
        return sequential_sum(np.multiply(
            change.reshape((9,) + (1,) * k + (9, 1)),
            self.f.transpose(k, *range(k), k + 1)[..., None, :], order="C"))

    def _reverse_images(self, vin: np.ndarray) -> np.ndarray:
        """The reverse stage applied to each input vector (..., n, 3*d_f)
        of vin, one matrix-vector product per input (an einsum would round
        differently), as (..., n, 3, D)."""
        stack, n = self._stack, vin.shape[-2]
        out = np.matmul(self.reverse[..., None, :, :],
                        vin.reshape(stack + (n, vin.shape[-1], 1)))
        return out.reshape(stack + (n, 3, self.reverse.shape[-2] // 3))

    @_family
    def ekij(self) -> np.ndarray:
        stack, k = self._stack, len(self._stack)
        # vin[i, j] = |i> x e_j
        vin = np.zeros(stack + (3, 9, 3, self.e.shape[-1]), dtype=complex)
        for i in range(3):
            vin[..., i, :, i, :] = self.e
        out = self._reverse_images(vin.reshape(stack + (27, -1)))
        return out.reshape(stack + (3, 9) + out.shape[-2:]).transpose(
            *range(k), k + 2, k, k + 1, k + 3)

    @_family
    def records(self) -> np.ndarray:
        stack = self._stack
        # vin[i, j] = |j> x e_{3i+j}: the 9 inputs of ekij that rounds of
        # the canonical basis measure
        vin = np.zeros(stack + (3, 3, 3, self.e.shape[-1]), dtype=complex)
        j = np.arange(3)
        vin[..., :, j, j, :] = self.e.reshape(stack + (3, 3, -1))
        return self._reverse_images(vin.reshape(stack + (9, -1))).reshape(
            stack + (3, 3, 3, -1))

    def to_json(self) -> str:
        _one_attack(self)
        def pairs(m):
            return [[float(z.real), float(z.imag)] for z in m.ravel()]
        return json.dumps({"d_f": self.d_f, "d_r": self.d_r,
                           "forward": pairs(self.forward),
                           "reverse": pairs(self.reverse)})

    @classmethod
    def from_json(cls, text: str) -> "AttackModel":
        doc = _json_document(text, ("d_f", "d_r", "forward", "reverse"))
        for name in ("d_f", "d_r"):
            # a JSON number with a fraction or exponent loads as float, and
            # true/false as bool, a subclass of int
            if type(doc[name]) is not int or doc[name] < 1:
                raise ValueError(f"{name} must be a JSON integer >= 1, "
                                 f"got {doc[name]!r}")
        d_f, d_r = doc["d_f"], doc["d_r"]
        # entries are [re, im] pairs; a C-ordered pair viewed as complex is
        # the complex(re, im) of its two floats
        fw = _json_numbers(doc, "forward", (9 * d_f, 2)).view(complex)
        rv = _json_numbers(doc, "reverse", (9 * d_f * d_f * d_r, 2)).view(complex)
        return cls(fw.reshape(3 * d_f, 3), rv.reshape(3 * d_f * d_r, 3 * d_f))


def _one_attack(attack: AttackModel) -> AttackModel:
    """attack, which every function of a single attack passes through
    first; a stack of attacks raises."""
    if attack._stack:
        raise ValueError("expected the record families of one attack, "
                         f"got a stack of shape {attack._stack}")
    return attack


def vector_families(attack: AttackModel) -> AttackModel:
    """The record families of an attack: the AttackModel itself, which
    builds each on its first read."""
    return attack
