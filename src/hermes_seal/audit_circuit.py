"""Model-performance auditing case study: greedy IoU matching, precision /
recall / critical-recall thresholds, and the corresponding R1CS.

The enforcement authority publishes a challenge set (ground-truth boxes per
image plus thresholds); the vehicle proves its detector's precision and
recall clear the pass marks -- and that every safety-critical object was
found -- without revealing the detections themselves.

All ratio comparisons are cross-multiplied exact integer comparisons; there
is no division anywhere.  Bounding-box coordinates are 12-bit so that the
cross-multiplied IoU-vs-IoU products (intersection times union) stay below
2^50, comfortably inside the 62-bit test field.

In-circuit matching uses prover-supplied one-hot assignment hints a[j][k]
("detection j matched ground truth k"), constrained four ways:
  * validity   -- a claimed match satisfies class/confidence/IoU/availability,
  * uniqueness -- each ground truth matched at most once (greedy order:
                  availability excludes ground truths taken by earlier
                  detections),
  * no-omission -- a detection with at least one available valid candidate
                  cannot go unmatched,
  * greedy argmax -- the chosen ground truth has maximal IoU among available
                  candidates, ties broken toward the lowest index.
Together these make the hint assignment unique given the (verified) sort
order, so the circuit outcome always equals the native greedy matcher.
"""

from __future__ import annotations

import dataclasses
import hashlib
import secrets

from .commitment import commit, open_commitment, sponge_gadget
from .field import (AUDIT_COMMIT_DOMAIN, AUDIT_SIGN_DOMAIN, NONCE_BYTES,
                    PrimeModulus, TEST_FIELD, nonce_to_field)
from .r1cs import CircuitBuilder, CircuitDescriptor

__all__ = [
    "GroundTruth",
    "Detection",
    "AuditThresholds",
    "ChallengeSet",
    "AuditPublicInputs",
    "AuditWitness",
    "AuditCircuit",
    "box_area",
    "intersection_area",
    "greedy_match",
    "check_metrics",
    "off_circuit_sort",
    "build_audit_circuit",
    "make_audit_inputs",
    "canonical_text",
    "challenge_digest",
    "digest_to_field",
    "parse_challenge_text",
    "parse_detections",
    "fixture_challenge",
    "fixture_detections",
    "BBOX_BITS",
    "AUDIT_CIRCUIT",
]

BBOX_BITS = 12          # coordinate width; keeps IoU cross-products < 2^50
CONF_BITS = 16
_IOU_CMP_BITS = 50      # intersection * union products


def _check_box(box, what: str):
    if len(box) != 4:
        raise ValueError(f"{what} box needs 4 coordinates")
    x1, y1, x2, y2 = box
    for v in box:
        if not 0 <= int(v) < (1 << BBOX_BITS):
            raise ValueError(f"{what} coordinate {v} outside [0, 2^{BBOX_BITS})")
    if x1 > x2 or y1 > y2:
        raise ValueError(f"{what} box coordinates out of order")
    return tuple(int(v) for v in box)


@dataclasses.dataclass(frozen=True)
class GroundTruth:
    box: tuple
    class_id: int
    critical: int = 0

    def __post_init__(self):
        object.__setattr__(self, "box", _check_box(self.box, "ground-truth"))
        if self.class_id < 1:
            raise ValueError("ground-truth class ids start at 1 (0 is padding)")
        if self.critical not in (0, 1):
            raise ValueError("critical flag must be 0 or 1")
        if box_area(self.box) == 0:
            raise ValueError("degenerate zero-area ground-truth box")


@dataclasses.dataclass(frozen=True)
class Detection:
    box: tuple
    class_id: int
    confidence: int     # scaled: in [0, rho_prob]

    def __post_init__(self):
        object.__setattr__(self, "box", _check_box(self.box, "detection"))
        if self.class_id < 1:
            raise ValueError("detection class ids start at 1 (0 is padding)")
        if self.confidence < 0:
            raise ValueError("negative confidence")


def _check_ratio(r, name):
    num, den = r
    if den <= 0 or not 0 <= num <= den:
        raise ValueError(f"{name} must be a rational in [0, 1] with den > 0")
    if den >= 1 << 14:
        raise ValueError(f"{name} denominator too large for comparator widths")
    return (int(num), int(den))


@dataclasses.dataclass(frozen=True)
class AuditThresholds:
    """All four pass marks as exact (numerator, denominator) rationals."""
    theta_conf: tuple = (1, 2)
    theta_iou: tuple = (1, 2)
    tau_prec: tuple = (1, 2)
    tau_rec: tuple = (1, 2)

    def __post_init__(self):
        for name in ("theta_conf", "theta_iou", "tau_prec", "tau_rec"):
            object.__setattr__(self, name,
                               _check_ratio(getattr(self, name), name))


@dataclasses.dataclass
class ChallengeSet:
    """Fixed audit task: per-image ground truths plus capacities and scales."""
    images: list                 # list of list[GroundTruth]
    m_max: int = 4               # detection slots per image
    rho_prob: int = 100          # confidence scaling
    rho_bbox: int = 100          # coordinate scaling (informational)

    def __post_init__(self):
        if not self.images:
            raise ValueError("challenge set needs at least one image")
        if self.m_max < 1:
            raise ValueError("m_max must be positive")

    @property
    def n_images(self):
        return len(self.images)


# -- exact-integer geometry ---------------------------------------------------


def box_area(box) -> int:
    x1, y1, x2, y2 = box
    return (x2 - x1) * (y2 - y1)


def intersection_area(a, b) -> int:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    return w * h if (w > 0 and h > 0) else 0


def _match_image(dets, gts, thresholds: AuditThresholds, rho_prob: int):
    """Greedy matching shared by the native path and the witness solver.

    `dets` is a list of (class_id, confidence, box) in confidence-sorted
    order (padding slots have confidence 0 and never match).  Returns the
    per-detection assignment (ground-truth index or None)."""
    cnum, cden = thresholds.theta_conf
    inum, iden = thresholds.theta_iou
    taken = [False] * len(gts)
    assign = [None] * len(dets)
    for j, (cls, conf, box) in enumerate(dets):
        if conf * cden < cnum * rho_prob:
            continue
        best = None  # (inter, union, k)
        for k, g in enumerate(gts):
            if taken[k] or g.class_id != cls:
                continue
            inter = intersection_area(box, g.box)
            union = box_area(box) + box_area(g.box) - inter
            if inter * iden < inum * union:
                continue
            # strictly-better keeps the earlier (lowest) index on ties
            if best is None or inter * best[1] > best[0] * union:
                best = (inter, union, k)
        if best is not None:
            assign[j] = best[2]
            taken[best[2]] = True
    return assign


def greedy_match(dets, gts, thresholds: AuditThresholds,
                 rho_prob: int = 100):
    """(TP, TP_crit, assignment) for confidence-sorted detections."""
    for j in range(len(dets) - 1):
        if dets[j].confidence < dets[j + 1].confidence:
            raise ValueError("detections must be sorted descending by confidence")
    triples = [(d.class_id, d.confidence, d.box) for d in dets]
    assign = _match_image(triples, gts, thresholds, rho_prob)
    tp = sum(1 for a in assign if a is not None)
    tp_crit = sum(gts[a].critical for a in assign if a is not None)
    return tp, tp_crit, assign


def check_metrics(tp: int, tp_crit: int, m_i: int, k_i: int,
                  total_crit: int, thresholds: AuditThresholds):
    """(pass_i, crit_pass_i) -- cross-multiplied Eq-style threshold checks."""
    if tp > min(m_i, k_i):
        raise ValueError(f"inconsistent counts: TP={tp}, M={m_i}, K={k_i}")
    if tp_crit > total_crit:
        raise ValueError("TP_crit exceeds the number of critical objects")
    pnum, pden = thresholds.tau_prec
    rnum, rden = thresholds.tau_rec
    passed = (tp * pden >= pnum * m_i) and (tp * rden >= rnum * k_i)
    return passed, tp_crit == total_crit


def off_circuit_sort(dets):
    """Stable descending sort by confidence; returns (sorted, permutation)
    with permutation[i] = original index of sorted position i."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    return [dets[i] for i in order], order


# -- canonical challenge serialization ---------------------------------------


def canonical_text(challenge: ChallengeSet,
                   thresholds: AuditThresholds) -> str:
    """Byte-exact canonical form; its hash is the public dataset digest."""
    lines = ["challenge-set v1",
             f"n_images {challenge.n_images}",
             f"m_max {challenge.m_max}",
             f"rho_prob {challenge.rho_prob}",
             f"rho_bbox {challenge.rho_bbox}"]
    for name in ("theta_conf", "theta_iou", "tau_prec", "tau_rec"):
        num, den = getattr(thresholds, name)
        lines.append(f"{name} {num}/{den}")
    for i, gts in enumerate(challenge.images):
        lines.append(f"image {i} gts {len(gts)}")
        for g in gts:
            x1, y1, x2, y2 = g.box
            lines.append(f"gt {x1} {y1} {x2} {y2} {g.class_id} {g.critical}")
    return "\n".join(lines) + "\n"


def challenge_digest(challenge: ChallengeSet,
                     thresholds: AuditThresholds) -> bytes:
    return hashlib.sha256(canonical_text(challenge, thresholds).encode()).digest()


def digest_to_field(digest: bytes, field: PrimeModulus = TEST_FIELD) -> int:
    return int.from_bytes(digest, "little") % field.p


def _read_images(lines, idx: int, kind: str, item: str, make):
    """The `image <i> <kind> <count>` blocks of `lines` from `idx` to the
    end, each followed by `count` lines `<item> <six ints>`; per image, the
    list of `make(*ints)`.  A structural fault raises ValueError naming
    the line."""
    images = []
    while idx < len(lines):
        header = lines[idx].split()
        if (len(header) != 4 or header[:3] != ["image", str(len(images)), kind]
                or not header[3].isdigit()):
            raise ValueError(f"malformed image header: {lines[idx]!r}")
        count = int(header[3])
        block = lines[idx + 1:idx + 1 + count]
        if len(block) != count:
            raise ValueError(f"{lines[idx]!r} is followed by {len(block)} "
                             f"{item} lines")
        values = []
        for line in block:
            parts = line.split()
            try:
                if len(parts) != 7 or parts[0] != item:
                    raise ValueError("expected six integers")
                values.append(make(*(int(p) for p in parts[1:])))
            except ValueError as exc:
                raise ValueError(f"malformed {item} line {line!r}: {exc}") \
                    from None
        images.append(values)
        idx += 1 + count
    return images


def parse_challenge_text(text: str):
    """Inverse of canonical_text; strict about structure."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "challenge-set v1":
        raise ValueError("not a challenge-set file (missing header)")
    kv = {}
    idx = 1
    while idx < len(lines) and not lines[idx].startswith("image "):
        key, _, value = lines[idx].partition(" ")
        kv[key] = value
        idx += 1
    ratios = [f.name for f in dataclasses.fields(AuditThresholds)]
    missing = [key for key in ["n_images", "m_max", "rho_prob", "rho_bbox"]
               + ratios if key not in kv]
    if missing:
        raise ValueError(f"challenge-set file lacks {', '.join(missing)}")
    def ratio(s):
        num, _, den = s.partition("/")
        return (int(num), int(den))
    thresholds = AuditThresholds(**{k: ratio(kv[k]) for k in ratios})
    images = _read_images(
        lines, idx, "gts", "gt", lambda x1, y1, x2, y2, cls, crit:
        GroundTruth((x1, y1, x2, y2), cls, crit))
    if len(images) != int(kv["n_images"]):
        raise ValueError("image count mismatch in challenge-set file")
    challenge = ChallengeSet(images, m_max=int(kv["m_max"]),
                             rho_prob=int(kv["rho_prob"]),
                             rho_bbox=int(kv["rho_bbox"]))
    return challenge, thresholds


def parse_detections(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "detections v1":
        raise ValueError("not a detections file (missing header)")
    return _read_images(
        lines, 1, "dets", "det", lambda cls, conf, x1, y1, x2, y2:
        Detection((x1, y1, x2, y2), cls, conf))


# -- public/witness containers ------------------------------------------------

@dataclasses.dataclass
class AuditPublicInputs:
    delta_commit: int
    H_I: int
    N: int
    theta_conf_num: int
    theta_conf_den: int
    theta_iou_num: int
    theta_iou_den: int
    tau_prec_num: int
    tau_prec_den: int
    tau_rec_num: int
    tau_rec_den: int
    rho_prob: int
    rho_bbox: int
    T: int
    nu: int
    c: int = 0
    PASS: int = 0


AUDIT_PUBLIC_ORDER = [f.name for f in dataclasses.fields(AuditPublicInputs)]


def _instance_constants(challenge: ChallengeSet, thresholds: AuditThresholds,
                        field: PrimeModulus) -> dict:
    """The public inputs that the challenge fixes: delta_commit through
    rho_bbox, by name."""
    ratios = [v for ratio in dataclasses.astuple(thresholds) for v in ratio]
    values = [AUDIT_COMMIT_DOMAIN,
              digest_to_field(challenge_digest(challenge, thresholds), field),
              challenge.n_images, *ratios, challenge.rho_prob,
              challenge.rho_bbox]
    return dict(zip(AUDIT_PUBLIC_ORDER, values))


@dataclasses.dataclass
class AuditWitness:
    """Per-image detections padded to m_max (padding = zero entries) and
    the commitment blinder."""
    detections: list            # list of list[(class_id, conf, box4)] tuples
    s_sec: int

    def flat_values(self):
        out = []
        for dets in self.detections:
            for cls, conf, box in dets:
                out.extend([cls, conf, *box])
        return out


class AuditCircuit:
    """Built audit circuit plus wire handles and build-time constants."""

    def __init__(self, cs, wires, det_wires, challenge, thresholds):
        self.cs = cs
        self.wires = wires          # name -> Wire for scalars
        self.det_wires = det_wires  # [image][slot] -> dict of wires
        self.challenge = challenge
        self.thresholds = thresholds

    def generate_witness(self, publics: AuditPublicInputs,
                         witness: AuditWitness):
        assignments = {self.wires[name]: v for name, v in vars(publics).items()}
        assignments[self.wires["s_sec"]] = witness.s_sec
        for i, dets in enumerate(witness.detections):
            if len(dets) != self.challenge.m_max:
                raise ValueError(f"image {i}: expected {self.challenge.m_max} "
                                 f"padded detection slots, got {len(dets)}")
            for j, (cls, conf, box) in enumerate(dets):
                dw = self.det_wires[i][j]
                assignments[dw["class"]] = cls
                assignments[dw["conf"]] = conf
                for axis, v in zip(("x1", "y1", "x2", "y2"), box):
                    assignments[dw[axis]] = v
        return self.cs.generate_witness(assignments)


# -- circuit construction ------------------------------------------------------


def build_audit_circuit(challenge: ChallengeSet,
                        thresholds: AuditThresholds) -> AuditCircuit:
    if thresholds.theta_conf[0] == 0:
        raise ValueError("theta_conf must be positive: padding slots rely on "
                         "zero confidence never matching")
    b = CircuitBuilder()
    wires = {name: b.alloc_public(name) for name in AUDIT_PUBLIC_ORDER}
    wires["s_sec"] = b.alloc_private("s_sec")

    for name, value in _instance_constants(challenge, thresholds,
                                           TEST_FIELD).items():
        b.assert_equal(wires[name], b.lc(value), f"bind_{name}")

    m_max = challenge.m_max
    rho_prob = challenge.rho_prob
    cnum, cden = thresholds.theta_conf
    inum, iden = thresholds.theta_iou
    pnum, pden = thresholds.tau_prec
    rnum, rden = thresholds.tau_rec

    def geq(x, y, bits, label):
        return b.gadget_geq(x, y, bits, label, range_checked=True)

    def max_min_with_const(a_lc, const, bits, label):
        """(max(a, const), min(a, const)) as LCs; a already range-proved."""
        s = geq(a_lc, b.lc(const), bits, f"{label}.ge")
        m = b.gadget_mul(s, a_lc - b.lc(const), f"{label}.mux")
        return b.lc(const) + b.lc(m), a_lc - b.lc(m)

    det_wires = []
    pass_acc = None  # LC/wire accumulating the AND over images

    for i, gts in enumerate(challenge.images):
        k_i = len(gts)
        img_dets = []
        for j in range(m_max):
            dw = {"class": b.alloc_private(f"i{i}d{j}.class"),
                  "conf": b.alloc_private(f"i{i}d{j}.conf"),
                  "x1": b.alloc_private(f"i{i}d{j}.x1"),
                  "y1": b.alloc_private(f"i{i}d{j}.y1"),
                  "x2": b.alloc_private(f"i{i}d{j}.x2"),
                  "y2": b.alloc_private(f"i{i}d{j}.y2")}
            img_dets.append(dw)
        det_wires.append(img_dets)

        # one-hot match hints, solved natively by the shared greedy matcher
        a_hint = [[b.alloc_internal(f"i{i}.a{j}_{k}") for k in range(k_i)]
                  for j in range(m_max)]
        det_idx = [(dw["class"].index, dw["conf"].index, dw["x1"].index,
                    dw["y1"].index, dw["x2"].index, dw["y2"].index)
                   for dw in img_dets]
        hint_idx = [[w.index for w in row] for row in a_hint]

        def solve_hints(v, det_idx=det_idx, hint_idx=hint_idx, gts=gts,
                        thresholds=thresholds, rho_prob=rho_prob):
            triples = [(v[ci], v[fi], (v[a1], v[b1], v[a2], v[b2]))
                       for ci, fi, a1, b1, a2, b2 in det_idx]
            assign = _match_image(triples, gts, thresholds, rho_prob)
            for row, sel in zip(hint_idx, assign):
                for k, wi in enumerate(row):
                    v[wi] = 1 if sel == k else 0
        b.add_solver([w for row in a_hint for w in row], solve_hints)

        per_det = []
        for j in range(m_max):
            dw = img_dets[j]
            cls, conf = b.lc(dw["class"]), b.lc(dw["conf"])
            x1, y1 = b.lc(dw["x1"]), b.lc(dw["y1"])
            x2, y2 = b.lc(dw["x2"]), b.lc(dw["y2"])
            tag = f"i{i}d{j}"
            # range proofs (each coordinate/confidence decomposed once)
            b.gadget_bit_decompose(conf, CONF_BITS, f"{tag}.conf_rng")
            for axis in ("x1", "y1", "x2", "y2"):
                b.gadget_bit_decompose(b.lc(dw[axis]), BBOX_BITS,
                                       f"{tag}.{axis}_rng")
            # box ordering
            b.assert_equal(geq(x2, x1, BBOX_BITS + 1, f"{tag}.xo"), b.lc(1),
                           f"{tag}.x_order")
            b.assert_equal(geq(y2, y1, BBOX_BITS + 1, f"{tag}.yo"), b.lc(1),
                           f"{tag}.y_order")
            # padding discipline: confidence 0 forces zero class and box
            is_zero_conf = b.gadget_is_zero(conf, f"{tag}.conf_z")
            is_real = b.gadget_not(is_zero_conf)
            for name in ("class", "x1", "y1", "x2", "y2"):
                b.enforce(b.lc(is_zero_conf), b.lc(dw[name]), b.lc(0),
                          f"{tag}.pad_{name}")
            # sort order: confidences non-increasing
            if j > 0:
                prev = b.lc(img_dets[j - 1]["conf"])
                b.assert_equal(geq(prev, conf, CONF_BITS + 1, f"{tag}.sort"),
                               b.lc(1), f"{tag}.sorted")
            # confidence threshold (cross-multiplied against rho_prob)
            conf_ok = geq(conf.scaled(cden), b.lc(cnum * rho_prob), 32,
                          f"{tag}.conf_ok")
            # detection area
            w_box = b.gadget_mul(x2 - x1, y2 - y1, f"{tag}.areaA")
            per_det.append({"cls": cls, "x": (x1, y1, x2, y2),
                            "is_real": is_real, "conf_ok": conf_ok,
                            "area": b.lc(w_box)})

        # per-pair IoU machinery and match constraints
        matched = []
        inter_w = [[None] * k_i for _ in range(m_max)]
        union_lc = [[None] * k_i for _ in range(m_max)]
        cand = [[None] * k_i for _ in range(m_max)]
        for j in range(m_max):
            d = per_det[j]
            x1, y1, x2, y2 = d["x"]
            matched_j = b.lc(*a_hint[j])
            b.assert_bool(matched_j, f"i{i}d{j}.one_hot")
            matched.append(matched_j)
            for k, g in enumerate(gts):
                tag = f"i{i}d{j}g{k}"
                gx1, gy1, gx2, gy2 = g.box
                ix1, _ = max_min_with_const(x1, gx1, BBOX_BITS + 1,
                                            f"{tag}.mx1")
                iy1, _ = max_min_with_const(y1, gy1, BBOX_BITS + 1,
                                            f"{tag}.my1")
                _, ix2 = max_min_with_const(x2, gx2, BBOX_BITS + 1,
                                            f"{tag}.mx2")
                _, iy2 = max_min_with_const(y2, gy2, BBOX_BITS + 1,
                                            f"{tag}.my2")
                wpos = geq(ix2, ix1, BBOX_BITS + 1, f"{tag}.wp")
                hpos = geq(iy2, iy1, BBOX_BITS + 1, f"{tag}.hp")
                w_lc = b.lc(b.gadget_mul(wpos, ix2 - ix1, f"{tag}.w"))
                h_lc = b.lc(b.gadget_mul(hpos, iy2 - iy1, f"{tag}.h"))
                inter = b.gadget_mul(w_lc, h_lc, f"{tag}.inter")
                inter_w[j][k] = inter
                union = d["area"] + b.lc(box_area(g.box)) - b.lc(inter)
                union_lc[j][k] = union
                iou_ok = geq(b.lc(inter).scaled(iden), union.scaled(inum), 40,
                             f"{tag}.iou_ok")
                class_eq = b.gadget_is_equal(d["cls"], b.lc(g.class_id),
                                             f"{tag}.cls_eq")
                # availability: ground truth not taken by an earlier detection
                avail = b.lc(1) - b.lc(*[(a_hint[jj][k], 1)
                                         for jj in range(j)])
                t1 = b.gadget_mul(class_eq, d["conf_ok"], f"{tag}.c1")
                t2 = b.gadget_mul(t1, iou_ok, f"{tag}.c2")
                cand_jk = b.gadget_mul(t2, avail, f"{tag}.cand")
                cand[j][k] = cand_jk
                # validity: claimed match must be a candidate
                b.enforce(b.lc(a_hint[j][k]), b.lc(1) - b.lc(cand_jk),
                          b.lc(0), f"{tag}.valid")
                # no-omission: candidate present => detection matched
                b.enforce(b.lc(1) - matched_j, b.lc(cand_jk), b.lc(0),
                          f"{tag}.no_omit")
            # greedy argmax: selected IoU beats every candidate
            if k_i > 1:
                i_sel = b.lc(*[(b.gadget_mul(a_hint[j][k], inter_w[j][k],
                                             f"i{i}d{j}.si{k}"), 1)
                               for k in range(k_i)])
                u_sel = b.lc(*[(b.gadget_mul(
                    a_hint[j][k], union_lc[j][k], f"i{i}d{j}.su{k}"), 1)
                    for k in range(k_i)])
                for k in range(k_i):
                    tag = f"i{i}d{j}g{k}"
                    strict = b.lc(*[(a_hint[j][kk], 1)
                                    for kk in range(k + 1, k_i)]) \
                        if k + 1 < k_i else b.lc(0)
                    lhs = b.gadget_mul(i_sel, b.lc(union_lc[j][k]),
                                       f"{tag}.xl")
                    rhs = b.gadget_mul(b.lc(inter_w[j][k]), u_sel,
                                       f"{tag}.xr")
                    best = geq(b.lc(lhs), b.lc(rhs) + strict, _IOU_CMP_BITS,
                               f"{tag}.best")
                    guard = b.gadget_mul(matched_j, cand[j][k], f"{tag}.g")
                    b.enforce(b.lc(guard), b.lc(1) - b.lc(best), b.lc(0),
                              f"{tag}.greedy")

        # each ground truth matched at most once
        for k in range(k_i):
            b.assert_bool(b.lc(*[(a_hint[j][k], 1) for j in range(m_max)]),
                          f"i{i}g{k}.unique")

        # counters and per-image verdict
        tp = sum(matched, b.lc(0))
        tp_crit = b.lc(*[(a_hint[j][k], gts[k].critical)
                         for j in range(m_max) for k in range(k_i)])
        m_count = b.lc(0) + sum((d["is_real"] for d in per_det), b.lc(0))
        total_crit = sum(g.critical for g in gts)
        prec_ok = geq(tp.scaled(pden), m_count.scaled(pnum), 16,
                      f"i{i}.prec")
        rec_ok = geq(tp.scaled(rden), b.lc(rnum * k_i), 16, f"i{i}.rec")
        crit_ok = b.gadget_is_equal(tp_crit, b.lc(total_crit), f"i{i}.crit")
        img_ok = b.gadget_and(b.gadget_and(prec_ok, rec_ok, f"i{i}.pr"),
                              crit_ok, f"i{i}.ok")
        pass_acc = img_ok if pass_acc is None else \
            b.gadget_and(pass_acc, img_ok, f"i{i}.acc")

    b.assert_equal(wires["PASS"], pass_acc, "bind_pass_output")

    # context binding: c = sponge(tag, N, flattened detections, T, nu, s_sec)
    sponge_inputs = [wires["delta_commit"], wires["N"]]
    for img in det_wires:
        for dw in img:
            sponge_inputs.extend([dw["class"], dw["conf"], dw["x1"],
                                  dw["y1"], dw["x2"], dw["y2"]])
    sponge_inputs.extend([wires["T"], wires["nu"], wires["s_sec"]])
    sponge_gadget(b, sponge_inputs, wires["c"], "bind_commitment")

    return AuditCircuit(b.finalize(), wires, det_wires, challenge,
                        thresholds)


# -- input preparation ---------------------------------------------------------


def make_audit_inputs(challenge: ChallengeSet, thresholds: AuditThresholds,
                      per_image_dets, timestamp: int = 0, nonce: bytes = None,
                      s_sec: int = None, field: PrimeModulus = TEST_FIELD):
    """Sort/pad detections, run the native matcher, compute the commitment.

    Returns (publics, witness, nonce, report) where report carries the
    native per-image TP / TP_crit / verdicts for inspection."""
    nonce = nonce if nonce is not None else secrets.token_bytes(NONCE_BYTES)
    s_sec = s_sec if s_sec is not None else secrets.randbits(128) % field.p
    if len(per_image_dets) != challenge.n_images:
        raise ValueError("detections must cover every challenge image")
    padded = []
    report = {"per_image": [], "TP": 0, "TP_crit": 0}
    overall_pass = True
    for i, (dets, gts) in enumerate(zip(per_image_dets, challenge.images)):
        if len(dets) > challenge.m_max:
            raise ValueError(f"image {i}: {len(dets)} detections exceed "
                             f"capacity {challenge.m_max}")
        for d in dets:
            if d.confidence == 0:
                raise ValueError("zero-confidence detections are reserved "
                                 "for padding; drop them before proving")
            if d.confidence > challenge.rho_prob:
                raise ValueError("confidence exceeds rho_prob")
        sorted_dets, _ = off_circuit_sort(list(dets))
        tp, tp_crit, _ = greedy_match(sorted_dets, gts, thresholds,
                                      challenge.rho_prob)
        total_crit = sum(g.critical for g in gts)
        passed, crit_passed = check_metrics(tp, tp_crit, len(dets), len(gts),
                                            total_crit, thresholds)
        overall_pass = overall_pass and passed and crit_passed
        report["per_image"].append({
            "TP": tp, "TP_crit": tp_crit, "M": len(dets), "K": len(gts),
            "total_crit": total_crit, "pass": passed,
            "crit_pass": crit_passed})
        report["TP"] += tp
        report["TP_crit"] += tp_crit
        slots = [(d.class_id, d.confidence, d.box) for d in sorted_dets]
        slots += [(0, 0, (0, 0, 0, 0))] * (challenge.m_max - len(slots))
        padded.append(slots)
    report["PASS"] = 1 if overall_pass else 0

    witness = AuditWitness(padded, s_sec)
    publics = AuditPublicInputs(
        **_instance_constants(challenge, thresholds, field), T=timestamp,
        nu=nonce_to_field(nonce, field), PASS=report["PASS"])
    publics.c = commit(**_opening(publics, witness), field=field)
    return publics, witness, nonce, report


def _opening(publics: AuditPublicInputs, witness: AuditWitness) -> dict:
    """The opening of the commitment `c`: tag, then N, the flattened
    detections, T and nu, then the blinder."""
    payload = [publics.N] + witness.flat_values() + [publics.T, publics.nu]
    return open_commitment(publics.delta_commit, payload, witness.s_sec)


# -- the reference audit scenario ---------------------------------------------


def _grid_box(col: int, row: int) -> tuple:
    """Non-overlapping 80x80 boxes on a grid, well inside 12-bit range."""
    x1 = 40 + 200 * col
    y1 = 40 + 200 * row
    return (x1, y1, x1 + 80, y1 + 80)


def fixture_challenge():
    """The reference audit task: 5 images, 4 ground truths each, one of them
    safety-critical per image."""
    images = []
    for i in range(5):
        gts = [GroundTruth(_grid_box(k, i), class_id=k + 1,
                           critical=1 if k == 0 else 0)
               for k in range(4)]
        images.append(gts)
    return ChallengeSet(images, m_max=4, rho_prob=100, rho_bbox=100)


def fixture_detections():
    """Detections producing TP=15 of 16 with one phantom, the missed object
    critical: images 1-2 perfect (4 each), image 3 has 3 true hits plus one
    phantom (its critical ground truth missed), images 4-5 find 2 each."""
    challenge = fixture_challenge()
    per_image = []
    for i, gts in enumerate(challenge.images):
        dets = []
        if i < 2:
            hit = [0, 1, 2, 3]          # perfect
        elif i == 2:
            hit = [1, 2, 3]             # critical gt 0 missed
        else:
            hit = [0, 1]                # partial recall (2 of 4)
        for k in hit:
            g = gts[k]
            dets.append(Detection(g.box, g.class_id, confidence=90 - k))
        if i == 2:
            # phantom: plausible class, no overlap with any ground truth
            dets.append(Detection((900, 900, 980, 980), class_id=1,
                                  confidence=85))
        per_image.append(dets)
    return per_image


# -- the descriptor ------------------------------------------------------------


def _params(args, read):
    text = (read(args.challenge) if args.challenge is not None
            else canonical_text(fixture_challenge(), AuditThresholds()))
    return {}, {".challenge": text}


AUDIT_CIRCUIT = CircuitDescriptor(
    name="audit", public_order=AUDIT_PUBLIC_ORDER,
    commit_domain=AUDIT_COMMIT_DOMAIN, sign_domain=AUDIT_SIGN_DOMAIN,
    outcome="PASS", input_option="detections", opening=_opening,
    params=_params,
    load=lambda meta, read: build_audit_circuit(
        *parse_challenge_text(read(".challenge"))),
    inputs=lambda circuit, text, timestamp, nonce, s_sec: make_audit_inputs(
        circuit.challenge, circuit.thresholds, parse_detections(text),
        timestamp=timestamp, nonce=nonce, s_sec=s_sec)[:3])
