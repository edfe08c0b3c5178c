"""Output checks.  Each returns an error message, or None when the output is acceptable."""

from __future__ import annotations

import math

FEASIBILITY_TOL = 1e-8


def check_classifier(w, R: float, l2_capped: bool) -> str | None:
    """A recovered vector must be finite, nonzero, inside ||w||_1 <= R and, if capped, ||w||_2 <= 1."""
    w = [float(v) for v in w]
    if not all(math.isfinite(v) for v in w):
        return "non-finite entry in w_hat"
    l1 = sum(abs(v) for v in w)
    l2 = math.sqrt(sum(v * v for v in w))
    if l2 == 0.0:
        return "w_hat is zero"
    if l1 > R + FEASIBILITY_TOL * max(1.0, R):
        return f"||w_hat||_1 = {l1:.12g} exceeds R = {R:.12g}"
    if l2_capped and l2 > 1.0 + FEASIBILITY_TOL:
        return f"||w_hat||_2 = {l2:.12g} exceeds 1"
    return None


def check_sweep_rows(rows, expected_rows: int, trials: int) -> str | None:
    """Row count, trial count per row and finite, in-range mean errors."""
    if len(rows) != expected_rows:
        return f"expected {expected_rows} sweep rows, got {len(rows)}"
    for row in rows:
        if row["trials"] != trials:
            return f"row {row['method']}@{row['sweep_value']} used {row['trials']} trials"
        err = row["mean_l2_error"]
        if not (math.isfinite(err) and 0.0 <= err <= 2.0):
            return f"row {row['method']}@{row['sweep_value']} has mean_l2_error {err!r}"
    return None


def check_lemma7(returncode: int, stdout: str) -> str | None:
    """`l1svm check --suite lemma7` must exit 0 and print only `ok` verdicts."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if returncode != 0:
        return f"check exited {returncode}"
    if not lines or any(not ln.startswith("ok ") for ln in lines):
        return "lemma7 verdict other than ok: " + "; ".join(lines)
    return None


def l2_direction_error(a: dict, w: dict) -> float:
    """||a - w/||w||_2||_2 for sparse vectors given as {index: value}."""
    norm = math.sqrt(sum(v * v for v in w.values()))
    keys = set(a) | set(w)
    return math.sqrt(sum((a.get(k, 0.0) - w.get(k, 0.0) / norm) ** 2 for k in keys))
