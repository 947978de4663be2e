"""The writer of the detections text format.  The toolkit only reads that
format (`audit_circuit.parse_detections`); tests write it to build inputs
and to check the parser round-trips."""


def format_detections(per_image) -> str:
    lines = ["detections v1"]
    for i, dets in enumerate(per_image):
        lines.append(f"image {i} dets {len(dets)}")
        for d in dets:
            x1, y1, x2, y2 = d.box
            lines.append(f"det {d.class_id} {d.confidence} {x1} {y1} {x2} {y2}")
    return "\n".join(lines) + "\n"
