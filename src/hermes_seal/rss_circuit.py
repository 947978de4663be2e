"""Safe-stopping-distance case study: RSS formula, safety predicate, and the
corresponding R1CS instantiation.

The circuit enforces, over scaled integers (rows at production widths):
  1. the object class equals the stop-sign ID (1 row, asserted),
  2. is_detected  = (Pr >= theta),  16-bit comparison (35 rows),
  3. is_distant   = (d_current >= d_safe),  32-bit comparison (100 rows),
  4. SAFE = OR(NOT(is_detected), is_distant) (1 row),
  5. the commitment domain tag equals the fixed application constant
     (1 row),
  6. the public commitment c equals the in-circuit sponge over
     (tag, Pr, bbox, position, speed, yaw, timestamp, nonce, blinder):
     7 permutations, 878 rows; the tag enters as that constant, so round
     0 of the first permutation cubes only Pr.
With one binding row for each of the 8 public wires that carry no logic
(see below), that is exactly 1024 rows, the whole radix-2 domain: one
more row doubles the quotient's transforms and product and C's MSM terms
over H, and `tests/test_rss.py` pins the count.

The safe distance itself is computed off-circuit (it involves real division)
and enters as a public input; the circuit only checks the comparison.

Note an intentional asymmetry inherited from the rule definition: the
native predicate `evaluate_predicate` returns SAFE only when the object is
*both* detected and distant, while the circuit treats "not detected" as
vacuously safe.  The two agree whenever Pr >= theta; the divergence below
threshold is documented behavior, not a bug.

Public wires that carry no logic (stop-sign position, scaling factors,
weather) still get a binding row each so the proof commits to their values.
"""

from __future__ import annotations

import dataclasses
import secrets

from .commitment import commit, open_commitment, sponge_gadget
from .field import (NONCE_BYTES, PrimeModulus, RSS_COMMIT_DOMAIN,
                    RSS_SIGN_DOMAIN, TEST_FIELD, nonce_to_field, scale)
from .r1cs import CircuitBuilder, CircuitDescriptor

__all__ = [
    "RssParams",
    "RssScenario",
    "RssPublicInputs",
    "RssWitness",
    "RssCircuit",
    "rss_safe_distance",
    "evaluate_predicate",
    "build_rss_circuit",
    "make_rss_inputs",
    "nonce_to_field",
    "parse_scenario",
    "format_scenario",
    "STOP_SIGN_ID",
    "RHO_DIST",
    "PROB_BITS",
    "DIST_BITS",
    "RSS_CIRCUIT",
]

STOP_SIGN_ID = 11
RHO_DIST = 100       # distances quantized to centimeters
PROB_BITS = 16       # comparator width for scaled probabilities
DIST_BITS = 32       # comparator width for scaled distances


@dataclasses.dataclass
class RssParams:
    """Inputs to the safe-distance formula (stationary front object)."""
    v: float                  # rear/ego speed, m/s
    t_rec: float = 1.0        # reaction time, s
    mu: float = 0.75          # road friction coefficient
    g: float = 9.81           # gravity, m/s^2
    beta_min: float = None    # min braking (defaults to mu*g)

    def __post_init__(self):
        for name in ("v", "t_rec", "mu", "g"):
            if getattr(self, name) < 0:
                raise ValueError(f"RSS parameter {name} must be non-negative")
        if self.beta_min is None:
            self.beta_min = self.mu * self.g
        if self.beta_min <= 0:
            raise ValueError("minimum braking capacity must be positive")


def rss_safe_distance(params: RssParams) -> float:
    """Reduced safe distance for a stationary front object and no
    acceleration: v*t_rec + v^2 / (2*mu*g)."""
    if params.beta_min <= 0:
        raise ValueError("minimum braking capacity must be positive")
    return params.v * params.t_rec + params.v ** 2 / (2 * params.beta_min)


def evaluate_predicate(pr: int, theta: int, d_current: int, d_safe: int) -> int:
    """The native safety rule over scaled integers: SAFE iff the object is
    detected above threshold AND the current distance is at least safe."""
    return 1 if (pr >= theta and d_current >= d_safe) else 0


WITNESS_ORDER = ["Pr", "b0", "b1", "b2", "b3", "phi_V", "lambda_V",
                 "v", "psi", "s_sec"]


@dataclasses.dataclass
class RssPublicInputs:
    """Scaled instance values, in circuit public-input order."""
    delta_commit: int
    ID: int
    d_S: int
    d_S_current: int
    phi_S: int
    lambda_S: int
    rho_prob: int
    rho_geo: int
    rho_psi: int
    T: int
    nu: int
    c: int = 0          # filled once the commitment is computed
    w_cloud: int = 0
    w_precip: int = 0
    w_fog: int = 0
    SAFE: int = 0


# public wires in allocation order (the witness prefix after the 1-wire)
PUBLIC_ORDER = [f.name for f in dataclasses.fields(RssPublicInputs)]


@dataclasses.dataclass
class RssWitness:
    """Scaled private values."""
    Pr: int
    b: tuple            # four bounding-box coordinates
    phi_V: int
    lambda_V: int
    v: int
    psi: int
    s_sec: int

    def __post_init__(self):
        if len(self.b) != 4:
            raise ValueError("bounding box must have 4 coordinates")
        x1, y1, x2, y2 = self.b
        if x1 > x2 or y1 > y2:
            raise ValueError("bounding box coordinates out of order")

    def as_dict(self):
        vals = [self.Pr, *self.b, self.phi_V, self.lambda_V, self.v,
                self.psi, self.s_sec]
        return dict(zip(WITNESS_ORDER, vals))


class RssCircuit:
    """Built circuit plus wire handles; immutable after construction."""

    def __init__(self, cs, wires, theta: int):
        self.cs = cs
        self.wires = wires
        self.theta = theta

    def generate_witness(self, publics: RssPublicInputs, witness: RssWitness):
        values = {**vars(publics), **witness.as_dict()}
        return self.cs.generate_witness(
            {self.wires[name]: v for name, v in values.items()})


def build_rss_circuit(theta: float = 0.75, rho_prob: int = 100,
                      prob_bits: int = PROB_BITS,
                      dist_bits: int = DIST_BITS,
                      include_commitment: bool = True) -> RssCircuit:
    """Compile the safety predicate into a padded constraint system over F_q.

    `theta` is the real-valued detection threshold; it is scaled by
    rho_prob and baked into the constraints (proving keys bind it), as is
    the object class `STOP_SIGN_ID`.

    `prob_bits`/`dist_bits` shrink the comparators for exhaustive
    cross-checking at reduced widths; `include_commitment=False` drops the
    sponge stage (used by fast fixtures where only the predicate logic and
    package plumbing matter).  Production keys use the defaults.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be within [0, 1], got {theta}")
    theta_scaled = round(theta * rho_prob)
    if not 0 <= theta_scaled < (1 << prob_bits):
        raise ValueError("scaled threshold out of comparator range")
    b = CircuitBuilder()
    wires = {name: b.alloc_public(name) for name in PUBLIC_ORDER}
    for name in WITNESS_ORDER:
        wires[name] = b.alloc_private(name)

    # 1. object class check
    b.assert_equal(wires["ID"], b.lc(STOP_SIGN_ID), "assert_stop_sign")
    # 2. threshold logic; SAFE = OR(x, y) of two bits as x*y = x + y - SAFE
    is_detected = b.gadget_geq(wires["Pr"], b.lc(theta_scaled), prob_bits,
                               "is_detected")
    is_distant = b.gadget_geq(wires["d_S_current"], wires["d_S"], dist_bits,
                              "is_distant")
    not_detected = b.gadget_not(is_detected)
    b.enforce(not_detected, is_distant,
              not_detected + b.lc(is_distant) - b.lc(wires["SAFE"]),
              "bind_safe_output")
    # 3. context binding
    b.assert_equal(wires["delta_commit"], b.lc(RSS_COMMIT_DOMAIN),
                   "assert_commit_domain")
    unbound = ["phi_S", "lambda_S", "rho_prob", "rho_geo", "rho_psi",
               "w_cloud", "w_precip", "w_fog"]
    if include_commitment:
        # the tag enters as the constant assert_commit_domain pins
        # delta_commit to, so round 0's S-box on it folds away
        sponge_inputs = [b.lc(RSS_COMMIT_DOMAIN), wires["Pr"],
                         wires["b0"], wires["b1"], wires["b2"], wires["b3"],
                         wires["phi_V"], wires["lambda_V"], wires["v"],
                         wires["psi"], wires["T"], wires["nu"],
                         wires["s_sec"]]
        sponge_gadget(b, sponge_inputs, wires["c"], "bind_commitment")
    else:
        unbound += ["T", "nu", "c"]
    # 4. bind otherwise-unconstrained public wires into the proof
    for name in unbound:
        b.enforce(wires[name], b.lc(0), b.lc(0), f"bind_{name}")

    return RssCircuit(b.finalize(), wires, theta_scaled)


@dataclasses.dataclass
class RssScenario:
    """Real-valued description of one driving moment."""
    speed_mps: float = 13.41
    distance_m: float = 30.0
    probability: float = 0.80
    object_id: int = STOP_SIGN_ID
    t_rec: float = 1.0
    mu: float = 0.75
    g: float = 9.81
    phi_v: float = 37.7749
    lambda_v: float = -122.4194
    phi_s: float = 37.7751
    lambda_s: float = -122.4190
    yaw: float = 0.12
    bbox: tuple = (120, 80, 260, 210)
    w_cloud: float = 0.1
    w_precip: float = 0.0
    w_fog: float = 0.0
    timestamp: int = 0
    rho_prob: int = 100
    rho_geo: int = 1_000_000
    rho_psi: int = 100


def make_rss_inputs(scenario: RssScenario, nonce: bytes = None,
                    s_sec: int = None, circuit: RssCircuit = None,
                    field: PrimeModulus = TEST_FIELD):
    """Scale a real scenario into (publics, witness); computes d_S off-circuit
    and fills SAFE from the circuit's own semantics."""
    nonce = nonce if nonce is not None else secrets.token_bytes(NONCE_BYTES)
    s_sec = s_sec if s_sec is not None else secrets.randbits(128) % field.p
    params = RssParams(v=scenario.speed_mps, t_rec=scenario.t_rec,
                       mu=scenario.mu, g=scenario.g)
    d_safe = rss_safe_distance(params)
    pr_scaled = scale(scenario.probability, scenario.rho_prob, field)
    d_s_scaled = scale(d_safe, RHO_DIST, field)
    d_cur_scaled = scale(scenario.distance_m, RHO_DIST, field)
    if pr_scaled >= (1 << PROB_BITS):
        raise ValueError("scaled probability out of comparator range")
    if d_s_scaled >= (1 << DIST_BITS) or d_cur_scaled >= (1 << DIST_BITS):
        raise ValueError("scaled distance out of comparator range")
    witness = RssWitness(
        Pr=pr_scaled,
        b=tuple(int(x) for x in scenario.bbox),
        phi_V=scale(scenario.phi_v, scenario.rho_geo, field),
        lambda_V=scale(scenario.lambda_v, scenario.rho_geo, field),
        v=scale(scenario.speed_mps, RHO_DIST, field),
        psi=scale(scenario.yaw, scenario.rho_psi, field),
        s_sec=s_sec,
    )
    theta_scaled = (circuit.theta if circuit is not None
                    else round(0.75 * scenario.rho_prob))
    safe = 1 if (pr_scaled < theta_scaled or d_cur_scaled >= d_s_scaled) else 0
    publics = RssPublicInputs(
        delta_commit=RSS_COMMIT_DOMAIN,
        ID=scenario.object_id,
        d_S=d_s_scaled,
        d_S_current=d_cur_scaled,
        phi_S=scale(scenario.phi_s, scenario.rho_geo, field),
        lambda_S=scale(scenario.lambda_s, scenario.rho_geo, field),
        rho_prob=scenario.rho_prob,
        rho_geo=scenario.rho_geo,
        rho_psi=scenario.rho_psi,
        T=scenario.timestamp,
        nu=nonce_to_field(nonce, field),
        w_cloud=scale(scenario.w_cloud, 100, field),
        w_precip=scale(scenario.w_precip, 100, field),
        w_fog=scale(scenario.w_fog, 100, field),
        SAFE=safe,
    )
    publics.c = commit(**_opening(publics, witness), field=field)
    return publics, witness, nonce


def _opening(publics: RssPublicInputs, witness: RssWitness) -> dict:
    """The opening of the commitment `c`: the tag, then the sponge inputs in
    their fixed absorb order, then the blinder."""
    payload = [witness.Pr, *witness.b, witness.phi_V, witness.lambda_V,
               witness.v, witness.psi, publics.T, publics.nu]
    return open_commitment(publics.delta_commit, payload, witness.s_sec)


# -- scenario text format -----------------------------------------------------

_SCENARIO_FIELDS = {f.name: f.type for f in dataclasses.fields(RssScenario)}


def format_scenario(scenario: RssScenario) -> str:
    lines = []
    for f in dataclasses.fields(RssScenario):
        v = getattr(scenario, f.name)
        if f.name == "bbox":
            v = ",".join(str(int(x)) for x in v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def parse_scenario(text: str) -> RssScenario:
    """Parse 'key = value' lines; '#' starts a comment; unknown keys error."""
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"scenario line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCENARIO_FIELDS:
            raise ValueError(f"scenario line {lineno}: unknown key {key!r}")
        if key == "bbox":
            kwargs[key] = tuple(int(x) for x in value.split(","))
        elif key in ("object_id", "timestamp", "rho_prob", "rho_geo",
                     "rho_psi"):
            kwargs[key] = int(value)
        else:
            kwargs[key] = float(value)
    return RssScenario(**kwargs)


# -- the descriptor ------------------------------------------------------------


RSS_CIRCUIT = CircuitDescriptor(
    name="rss", public_order=PUBLIC_ORDER, commit_domain=RSS_COMMIT_DOMAIN,
    sign_domain=RSS_SIGN_DOMAIN, outcome="SAFE", input_option="scenario",
    opening=_opening,
    params=lambda args, read: ({"theta": args.theta,
                                "rho_prob": args.rho_prob}, {}),
    load=lambda meta, read: build_rss_circuit(
        theta=float(meta["theta"]), rho_prob=int(meta["rho_prob"])),
    inputs=lambda circuit, text, timestamp, nonce, s_sec: make_rss_inputs(
        dataclasses.replace(parse_scenario(text), timestamp=timestamp),
        nonce=nonce, s_sec=s_sec, circuit=circuit))
