"""Detection-audit case study: IoU arithmetic, greedy matching, metric
thresholds, the challenge text formats, and circuit/native agreement."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from hermes_seal.audit_circuit import (AuditThresholds, ChallengeSet,
                                       Detection, GroundTruth,
                                       box_area, build_audit_circuit,
                                       canonical_text, challenge_digest,
                                       check_metrics, fixture_challenge,
                                       fixture_detections, greedy_match,
                                       intersection_area, make_audit_inputs,
                                       off_circuit_sort, parse_challenge_text,
                                       parse_detections)
from hermes_seal.r1cs import UnsatisfiableError

from audit_text import format_detections

boxes = st.tuples(st.integers(0, 2000), st.integers(0, 2000),
                  st.integers(0, 2000), st.integers(0, 2000)).map(
    lambda t: (min(t[0], t[2]), min(t[1], t[3]),
               max(t[0], t[2]), max(t[1], t[3])))


# -- geometry -----------------------------------------------------------------


def _float_iou(a, b):
    inter = (max(0, min(a[2], b[2]) - max(a[0], b[0]))
             * max(0, min(a[3], b[3]) - max(a[1], b[1])))
    union = box_area(a) + box_area(b) - inter
    return inter / union if union else 0.0


def iou_compare(box_a, box_b, theta) -> bool:
    """intersection/union >= theta, cross-multiplied; exact integers.

    A zero-area union (both boxes degenerate) compares as IoU 0: true only
    for theta = 0."""
    num, den = theta
    inter = intersection_area(box_a, box_b)
    union = box_area(box_a) + box_area(box_b) - inter
    if union == 0:
        return num == 0
    return inter * den >= num * union


@given(boxes, boxes)
@settings(max_examples=100, deadline=None)
def test_iou_compare_matches_float_oracle(a, b):
    theta = (1, 2)
    if box_area(a) + box_area(b) == 0:
        return
    got = iou_compare(a, b, theta)
    want = _float_iou(a, b) >= 0.5
    # exact rational comparison vs float: agree except exactly at the
    # threshold, where the integer form is authoritative
    inter = intersection_area(a, b)
    union = box_area(a) + box_area(b) - inter
    if inter * theta[1] != union * theta[0]:
        assert got == want


def test_intersection_area_cases():
    assert intersection_area((0, 0, 10, 10), (5, 5, 15, 15)) == 25
    assert intersection_area((0, 0, 10, 10), (10, 0, 20, 10)) == 0  # touching
    assert intersection_area((0, 0, 10, 10), (2, 2, 4, 4)) == 4     # nested


# -- matching -----------------------------------------------------------------


def _brute_force_greedy(dets, gts, thresholds, rho_prob):
    """Independent oracle: literal greedy loop in confidence order."""
    cnum, cden = thresholds.theta_conf
    taken = set()
    tp = tp_crit = 0
    for d in dets:
        if d.confidence * cden < cnum * rho_prob:
            continue
        best = None
        best_key = None
        for k, g in enumerate(gts):
            if k in taken or g.class_id != d.class_id:
                continue
            inter = intersection_area(d.box, g.box)
            union = box_area(d.box) + box_area(g.box) - inter
            if union == 0 or not iou_compare(d.box, g.box,
                                             thresholds.theta_iou):
                continue
            key = (inter, union)
            if best is None or inter * best_key[1] > best_key[0] * union:
                best, best_key = k, (inter, union)
        if best is not None:
            taken.add(best)
            tp += 1
            tp_crit += gts[best].critical
    return tp, tp_crit


@given(st.integers(0, 10**6))
@example(701805)  # a box shifted below y = 0 at both corners
@settings(max_examples=60, deadline=None)
def test_greedy_match_vs_oracle(rng_seed):
    rng = random.Random(rng_seed)
    gts = []
    for k in range(rng.randrange(1, 5)):
        x, y = rng.randrange(0, 500), rng.randrange(0, 500)
        w, h = rng.randrange(10, 80), rng.randrange(10, 80)
        gts.append(GroundTruth((x, y, x + w, y + h), rng.randrange(1, 3),
                               rng.randrange(2)))
    dets = []
    for _ in range(rng.randrange(0, 5)):
        g = rng.choice(gts)
        dx, dy = rng.randrange(-15, 16), rng.randrange(-15, 16)
        box = (max(0, g.box[0] + dx), max(0, g.box[1] + dy),
               max(0, g.box[2] + dx), max(0, g.box[3] + dy))
        dets.append(Detection(box, rng.randrange(1, 3), rng.randrange(1, 101)))
    thresholds = AuditThresholds()
    dets_sorted, _ = off_circuit_sort(dets)
    tp, tp_crit, _ = greedy_match(dets_sorted, gts, thresholds, 100)
    assert (tp, tp_crit) == _brute_force_greedy(dets_sorted, gts,
                                                thresholds, 100)


def test_greedy_match_requires_sorted_input():
    gts = [GroundTruth((0, 0, 10, 10), 1, 0)]
    dets = [Detection((0, 0, 10, 10), 1, 50),
            Detection((0, 0, 10, 10), 1, 90)]
    with pytest.raises(ValueError):
        greedy_match(dets, gts, AuditThresholds(), 100)


def test_greedy_tie_breaks_to_lowest_gt_index():
    # two identical ground truths; the detection must take index 0
    gts = [GroundTruth((0, 0, 10, 10), 1, 1),
           GroundTruth((0, 0, 10, 10), 1, 0)]
    dets = [Detection((0, 0, 10, 10), 1, 90)]
    tp, tp_crit, assignment = greedy_match(dets, gts, AuditThresholds(), 100)
    assert tp == 1 and tp_crit == 1
    assert assignment[0] == 0


def test_check_metrics():
    th = AuditThresholds()  # all thresholds 1/2
    assert check_metrics(3, 1, 4, 4, 1, th) == (True, True)
    assert check_metrics(1, 0, 4, 4, 1, th) == (False, False)  # low precision
    assert check_metrics(1, 1, 1, 4, 1, th) == (False, True)   # low recall
    assert check_metrics(0, 0, 0, 0, 0, th) == (True, True)    # vacuous
    with pytest.raises(ValueError):
        check_metrics(5, 0, 4, 4, 0, th)  # tp > min(m, k)


# -- text formats -------------------------------------------------------------


def test_challenge_text_roundtrip():
    challenge, thresholds = fixture_challenge(), AuditThresholds()
    text = canonical_text(challenge, thresholds)
    back_c, back_t = parse_challenge_text(text)
    assert canonical_text(back_c, back_t) == text
    assert challenge_digest(back_c, back_t) == challenge_digest(challenge,
                                                                thresholds)


def test_detections_text_roundtrip():
    per_image = fixture_detections()
    text = format_detections(per_image)
    back = parse_detections(text)
    assert format_detections(back) == text


def _prefixes(text):
    lines = text.splitlines(keepends=True)
    return ["".join(lines[:n]) for n in range(len(lines))]


def _parses_or_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


def test_truncated_texts_parse_or_raise_value_error():
    # any other exception escapes and fails the test
    challenge = canonical_text(fixture_challenge(), AuditThresholds())
    for text in _prefixes(challenge):
        _parses_or_value_error(parse_challenge_text, text)
    for text in _prefixes(format_detections(fixture_detections())):
        _parses_or_value_error(parse_detections, text)
    for text in ("detections v1\nimage 0 dets 2\ndet 1 90 1 1 5 5\n",
                 "detections v1\nimage 0\n",
                 "detections v1\nimage 1 dets 0\n",
                 "detections v1\nimage 0 dets 1\ndet 1 90 1 1 5\n",
                 "detections v1\nimage 0 dets 1\ndet 1 90 1 1 5 x\n"):
        with pytest.raises(ValueError, match="image|det"):
            parse_detections(text)


@pytest.mark.parametrize("key", ["n_images", "m_max", "rho_prob", "rho_bbox",
                                 "theta_conf", "theta_iou", "tau_prec",
                                 "tau_rec"])
def test_challenge_text_without_a_header_key_raises(key):
    text = canonical_text(fixture_challenge(), AuditThresholds())
    dropped = "".join(line for line in text.splitlines(keepends=True)
                      if not line.startswith(key + " "))
    assert dropped != text
    with pytest.raises(ValueError, match=key):
        parse_challenge_text(dropped)


def test_challenge_digest_sensitivity():
    challenge, thresholds = fixture_challenge(), AuditThresholds()
    d0 = challenge_digest(challenge, thresholds)
    other = AuditThresholds(theta_conf=(2, 3))
    assert challenge_digest(challenge, other) != d0


# -- reference fixture numbers ------------------------------------------------


def test_fixture_native_metrics():
    challenge, thresholds = fixture_challenge(), AuditThresholds()
    publics, witness, nonce, report = make_audit_inputs(
        challenge, thresholds, fixture_detections(), s_sec=1, nonce=bytes(16))
    assert challenge.n_images == 5
    assert sum(len(g) for g in challenge.images) == 20
    assert sum(g.critical for img in challenge.images for g in img) == 5
    assert sum(len(d) for d in fixture_detections()) == 16
    assert report["TP"] == 15
    assert report["TP_crit"] == 4
    assert report["PASS"] == 0          # the missed critical sinks it
    assert publics.PASS == 0


# -- circuit agreement --------------------------------------------------------


def test_small_circuit_matches_native(small_audit):
    challenge, thresholds, circuit = small_audit
    rng = random.Random(11)
    for trial in range(10):
        per_image = []
        for gts in challenge.images:
            dets = []
            for g in gts:
                if rng.random() < 0.7:
                    dets.append(Detection(g.box, g.class_id,
                                          rng.randrange(30, 101)))
            if rng.random() < 0.3:
                dets.append(Detection((500, 500, 550, 550), 1,
                                      rng.randrange(30, 101)))
            per_image.append(dets[:challenge.m_max])
        publics, witness, _, report = make_audit_inputs(
            challenge, thresholds, per_image, s_sec=rng.randrange(1 << 30),
            nonce=bytes(16))
        w = circuit.generate_witness(publics, witness)
        assert circuit.cs.first_violation(circuit.cs.evaluate(w)) is None
        assert circuit.cs.public_inputs(w)[-1] == report["PASS"]
        # the opposite verdict must be unsatisfiable
        publics.PASS ^= 1
        with pytest.raises(UnsatisfiableError):
            circuit.generate_witness(publics, witness)
        publics.PASS ^= 1


def test_make_audit_inputs_validation(small_audit):
    challenge, thresholds, _ = small_audit
    with pytest.raises(ValueError, match="every challenge image"):
        make_audit_inputs(challenge, thresholds, [[]])
    too_many = [[Detection((0, 0, 5, 5), 1, 50)] * 4, []]
    with pytest.raises(ValueError, match="exceed"):
        make_audit_inputs(challenge, thresholds, too_many)
    zero_conf = [[Detection((0, 0, 5, 5), 1, 0)], []]
    with pytest.raises(ValueError, match="zero-confidence"):
        make_audit_inputs(challenge, thresholds, zero_conf)


def test_thresholds_validation():
    with pytest.raises(ValueError):
        AuditThresholds(theta_iou=(3, 2))    # ratio > 1
    with pytest.raises(ValueError):
        AuditThresholds(tau_prec=(1, 0))     # zero denominator
    with pytest.raises(ValueError):
        build_audit_circuit(
            ChallengeSet([[GroundTruth((0, 0, 5, 5), 1, 0)]], m_max=2),
            AuditThresholds(theta_conf=(0, 1)))


def test_detection_validation():
    with pytest.raises(ValueError):
        Detection((5, 5, 0, 0), 1, 50)       # inverted box
    with pytest.raises(ValueError):
        Detection((0, 0, 5, 5), 1, -1)       # negative confidence
    with pytest.raises(ValueError):
        GroundTruth((0, 0, 1 << 13, 5), 1, 0)  # coordinate out of 12-bit range
