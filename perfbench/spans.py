"""Span recorder that wraps library functions from outside the library.

While an op is traced, the public functions named in `WRAPPED` are
replaced by timing wrappers; afterwards the originals are put back, so an
untraced op runs the unmodified code.  Spans are kept in memory as tuples
with their parent's index and written out when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Each op is a root span (`op.create`, `op.verify`, `op.setup`);
its own self time is the part of the op that no layer span covers.
"""

from __future__ import annotations

import contextlib
import json
import time

from hermes_seal import (audit_circuit, commitment, groth16, pairing, protocol,
                         r1cs, rss_circuit)


def _msm_extra(args, kwargs):
    scalars = list(args[1])
    return len(scalars), len(scalars) - scalars.count(0)


def _bytes_extra(args, kwargs):
    return len(args[0]), 0


# (owner, attribute, span name, extra) -- names are "<layer>.<what>".  Each
# name is patched where its callers look it up at call time: a module-level
# import (`from .qap import compute_quotient`) is patched in the importing
# module, a method on its class.
WRAPPED = [
    (rss_circuit, "make_rss_inputs", "circuit.make_inputs", None),
    (audit_circuit, "make_audit_inputs", "circuit.make_inputs", None),
    (r1cs.ConstraintSystem, "generate_witness", "r1cs.witness", None),
    (r1cs.ConstraintSystem, "to_bytes", "r1cs.serialize", None),
    (r1cs.ConstraintSystem, "digest", "r1cs.digest", None),
    (groth16, "compute_quotient", "qap.quotient", None),
    (groth16, "setup", "groth16.setup", None),
    (protocol, "prove", "groth16.prove", None),
    (protocol, "verify", "groth16.verify", None),
    (pairing.BilinearGroup, "multi_scalar_mul", "pairing.msm", _msm_extra),
    (pairing.BilinearGroup, "scalar_mul_g1", "pairing.scalar_mul", None),
    (pairing.BilinearGroup, "scalar_mul_g2", "pairing.scalar_mul", None),
    (pairing.BilinearGroup, "pair", "pairing.pair", None),
    (pairing.BilinearGroup, "in_subgroup_g1", "pairing.subgroup", None),
    (pairing.BilinearGroup, "in_subgroup_g2", "pairing.subgroup", None),
    (pairing.BilinearGroup, "g1_from_bytes", "pairing.decode", None),
    (pairing.BilinearGroup, "g2_from_bytes", "pairing.decode", None),
    (commitment, "sponge_hash", "commitment.sponge", None),
    (commitment, "sponge_permutation", "commitment.permutation", None),
    (protocol, "byte_hash", "commitment.byte_hash", _bytes_extra),
    (protocol, "schnorr_sign", "protocol.schnorr_sign", None),
    (protocol, "schnorr_verify", "protocol.schnorr_verify", None),
    (protocol.Certificate, "from_bytes", "protocol.cert", None),
    (protocol.EnrollmentAuthority, "verify_certificate", "protocol.cert", None),
    (protocol, "assemble_payload", "protocol.payload", None),
    (protocol.ProofPackage, "from_bytes", "protocol.decode", None),
    (protocol.ProofPackage, "to_bytes", "protocol.encode", None),
    (protocol, "create_package", "protocol.create_package", None),
    (protocol.VerifierState, "verify_package", "protocol.verify_package", None),
]


class Recorder:
    """Spans of traced ops: (parent, root, name, t0_ns, t1_ns, extra)."""

    def __init__(self):
        self.spans = []
        self.roots = []          # (span index, op kind)
        self._stack = []
        self._patches = []
        for owner, attr, name, extra in WRAPPED:
            raw = owner.__dict__[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, extra))
            else:
                wrapped = self._wrap(raw, name, extra)
            self._patches.append((owner, attr, raw, wrapped))

    def _wrap(self, fn, name, extra):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent, root = stack[-1]
            stack.append((idx, root))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (parent, root, name, t0, t1,
                              extra(args, kwargs) if extra else (0, 0))
        return wrapper

    @contextlib.contextmanager
    def op(self, kind: str):
        """Trace one op: patch the library, record a root span, unpatch."""
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        idx = len(self.spans)
        self.spans.append(None)
        self.roots.append((idx, kind))
        self._stack.append((idx, idx))
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (-1, idx, "op." + kind, t0, t1, (0, 0))
            for owner, attr, raw, _ in self._patches:
                setattr(owner, attr, raw)

    def op_seconds(self, root_index: int) -> float:
        _, _, _, t0, t1, _ = self.spans[root_index]
        return (t1 - t0) / 1e9

    def aggregate(self, roots):
        """Per op kind over the given roots: op count, total ns, and per span
        name the self ns, call count and summed extras."""
        wanted = {idx: kind for idx, kind in roots}
        child_ns = {}
        for parent, root, _, t0, t1, _ in self.spans:
            if root in wanted and parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + t1 - t0
        out = {}
        for idx, (parent, root, name, t0, t1, (e0, e1)) in enumerate(self.spans):
            if root not in wanted:
                continue
            agg = out.setdefault(wanted[root], {"ops": 0, "total_ns": 0,
                                                "names": {}})
            if parent < 0:
                agg["ops"] += 1
                agg["total_ns"] += t1 - t0
            row = agg["names"].setdefault(name, [0, 0, 0, 0])
            row[0] += t1 - t0 - child_ns.get(idx, 0)
            row[1] += 1
            row[2] += e0
            row[3] += e1
        return out

    def write(self, path):
        """One JSON array per line: [index, parent, root, name, t0, t1, extra]."""
        with open(path, "w") as fh:
            for idx, (parent, root, name, t0, t1, extra) in enumerate(self.spans):
                fh.write(json.dumps([idx, parent, root, name, t0, t1,
                                     list(extra)]) + "\n")


class NullRecorder:
    """Stand-in for untraced runs: ops are not recorded."""

    roots = ()

    @contextlib.contextmanager
    def op(self, kind: str):
        yield
