"""Correctness checks shared by every workload.

An operation fails if it raises, if its own verdict or an analytic bound
fails (both reported by the operation), if its process misses its cap or
exits non-zero, or, for the default seed at full size, if a numeric output
differs from the reference recorded with this benchmark by more than
``RTOL`` relative (``ATOL`` absolute for gaps near zero).
"""

import hashlib
import json
import os
import re

DEFAULT_SEED = 0
RTOL = 1e-10
ATOL = 1e-12
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

_NUMBER = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?([-+](\d+\.?\d*|\.\d+)([eE][-+]?\d+)?j)?$|^[-+]?(nan|inf)$")


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def compare(outputs, reference):
    """Failure strings for every output missing from, extra to, or off the
    reference."""
    failures = []
    for key in sorted(set(reference) | set(outputs)):
        if key not in outputs or key not in reference:
            failures.append(f"{key}: {'missing' if key not in outputs else 'not in reference'}")
            continue
        got, ref = outputs[key], reference[key]
        if isinstance(ref, str) or isinstance(got, str):
            if got != ref:
                failures.append(f"{key}: {got!r} != reference {ref!r}")
        elif not abs(got - ref) <= RTOL * abs(ref) + ATOL:
            failures.append(f"{key}: {got!r} differs from reference {ref!r}")
    return failures


def artifact_outputs(name, text):
    """Numeric tokens of a CSV or triplet artifact as outputs, plus a digest
    of everything that is not a number (headers, entity labels)."""
    numbers = []
    words = []
    for token in re.split(r"[,;\s]+", text):
        if not token:
            continue
        if _NUMBER.match(token):
            value = complex(token)
            numbers.append(value.real)
            if value.imag:
                numbers.append(value.imag)
        else:
            words.append(token)
    out = {f"{name}#{i}": v for i, v in enumerate(numbers)}
    out[f"{name}#text"] = hashlib.sha256(" ".join(words).encode()).hexdigest()[:16]
    return out
