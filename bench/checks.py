"""Checks of the program's outputs against the reference computations.

Every check returns a list of problems; an empty list means it passed.  The
checks run outside the timed region.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Sequence

import numpy as np

import reference as ref

FORWARD_RTOL = 1e-10  # logits and loss against the reference forward
GRAD_BOUND = 1e-4  # max relative error against central differences
FD_EPS = 1e-5
# Central differences at FD_EPS carry an absolute error near 1e-10 (the
# loss's rounding over 2 * FD_EPS).  Relative errors are taken against at
# least GRAD_FLOOR, so that entries near zero compare at that resolution.
GRAD_FLOOR = 1e-5
SCORE_TOL = 1e-12  # report scores against the reference metrics
SCORE_KEYS = ("rouge1_f1", "rouge2_f1", "rougeL_f1", "g_score")


def check_forward(
    logits: np.ndarray, loss: float, ref_logits: np.ndarray, ref_loss: float
) -> list[str]:
    if logits.shape != ref_logits.shape:
        return [f"forward: logits shape {logits.shape}, reference {ref_logits.shape}"]
    problems = []
    if not np.allclose(logits, ref_logits, rtol=FORWARD_RTOL, atol=FORWARD_RTOL):
        worst = float(np.max(np.abs(logits - ref_logits)))
        problems.append(f"forward: logits differ from the reference by up to {worst:.3e}")
    if not math.isclose(loss, ref_loss, rel_tol=FORWARD_RTOL, abs_tol=FORWARD_RTOL):
        problems.append(f"forward: generation loss {loss!r}, reference {ref_loss!r}")
    return problems


def sample_entries(
    tensors: dict, rng: np.random.Generator, per_tensor: int, e_rows: Sequence[int]
) -> list[tuple[str, int]]:
    """A seeded sample of (tensor, flat index) pairs, ``per_tensor`` from each
    tensor.  Entries of E come from the rows of ``e_rows``, the tokens the
    loss reads; every other row of E has a zero gradient."""
    rows = sorted(set(e_rows))
    out = []
    for name in sorted(tensors):
        tensor = tensors[name]
        for _ in range(per_tensor):
            if name == "E":
                row = rows[int(rng.integers(len(rows)))]
                flat = row * tensor.shape[1] + int(rng.integers(tensor.shape[1]))
            else:
                flat = int(rng.integers(tensor.size))
            out.append((name, flat))
    return out


def gradient_errors(
    grads: dict,
    loss_fn: Callable[[dict], float],
    tensors: dict,
    entries: Sequence[tuple[str, int]],
    eps: float = FD_EPS,
) -> list[tuple[str, int, float, float, float]]:
    """(tensor, index, analytic, numeric, relative error) per entry; the
    numeric value is the central difference of ``loss_fn``.  Tensors are
    restored bitwise."""
    out = []
    for name, flat_idx in entries:
        flat = tensors[name].reshape(-1)
        saved = flat[flat_idx]
        flat[flat_idx] = saved + eps
        up = loss_fn(tensors)
        flat[flat_idx] = saved - eps
        down = loss_fn(tensors)
        flat[flat_idx] = saved
        numeric = (up - down) / (2.0 * eps)
        analytic = float(grads[name].reshape(-1)[flat_idx])
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), GRAD_FLOOR)
        out.append((name, flat_idx, analytic, numeric, err))
    return out


def check_gradient(label: str, errors: Sequence[tuple]) -> list[str]:
    bad = [e for e in errors if not e[4] < GRAD_BOUND]
    return [
        f"backward ({label}): {name}[{idx}] analytic {a:.6e}, central difference "
        f"{n:.6e}, relative error {err:.2e}"
        for name, idx, a, n, err in bad
    ]


def _near_tie(row: np.ndarray, a: int, b: int) -> bool:
    return abs(row[a] - row[b]) <= FORWARD_RTOL * max(1.0, abs(row[b]))


def check_decode(generated: Sequence[int], rows: np.ndarray, max_len: int) -> list[str]:
    """``rows`` are the reference logits along ``generated``, one more row
    than tokens.  Each token must be the reference's greedy pick and the
    decode must stop at EOS or at ``max_len``.  Where the two candidates'
    logits agree to FORWARD_RTOL, rounding may pick either."""
    if len(generated) > max_len:
        return [f"decode: {len(generated)} tokens, max_len is {max_len}"]
    for j, tok in enumerate(generated):
        if tok in (ref.PAD, ref.BOS, ref.EOS) or not 0 <= tok < rows.shape[1]:
            return [f"decode: step {j} emitted reserved or invalid id {tok}"]
        want = ref.greedy_pick(rows[j])
        if tok != want and not _near_tie(rows[j], tok, want):
            return [f"decode: step {j} emitted {tok}, reference argmax is {want}"]
    if len(generated) < max_len:
        want = ref.greedy_pick(rows[len(generated)])
        if want != ref.EOS and not _near_tie(rows[len(generated)], ref.EOS, want):
            return [f"decode: stopped after {len(generated)} tokens without EOS"]
    return []


def check_report(
    report: bytes,
    ids: Sequence[str],
    candidates: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    units: Sequence[Sequence[Sequence[str]]],
    tau: float,
) -> list[str]:
    """Each row's scores equal the reference metrics on its decoded text, and
    the first line is the mean of the rows."""
    lines = report.decode("utf-8").splitlines()
    if len(lines) != len(ids) + 1:
        return [f"report: {len(lines)} lines for {len(ids)} examples"]
    problems = []
    rows = [json.loads(line) for line in lines[1:]]
    for row, ex_id, cand, refs, ex_units in zip(rows, ids, candidates, references, units):
        want = {
            "rouge1_f1": ref.rouge_n_f1(cand, refs, 1),
            "rouge2_f1": ref.rouge_n_f1(cand, refs, 2),
            "rougeL_f1": ref.rouge_l_f1(cand, refs),
            "g_score": ref.g_score(cand, ex_units, tau),
        }
        if row.get("id") != ex_id:
            problems.append(f"report: row id {row.get('id')!r}, expected {ex_id!r}")
        for key, value in want.items():
            if not math.isclose(row.get(key, math.nan), value, rel_tol=SCORE_TOL, abs_tol=SCORE_TOL):
                problems.append(f"report: {ex_id} {key} {row.get(key)!r}, reference {value!r}")
    aggregate = json.loads(lines[0])
    for key in SCORE_KEYS:
        mean = sum(r.get(key, math.nan) for r in rows) / len(rows)
        if not math.isclose(aggregate.get(key, math.nan), mean, rel_tol=SCORE_TOL, abs_tol=SCORE_TOL):
            problems.append(f"report: aggregate {key} {aggregate.get(key)!r}, row mean {mean!r}")
    if aggregate.get("example_count") != len(rows):
        problems.append(f"report: example_count {aggregate.get('example_count')!r}, {len(rows)} rows")
    return problems


def check_summary_line(stdout: bytes, report: bytes) -> list[str]:
    """The command's JSON line repeats the report's aggregate record."""
    try:
        summary = json.loads(stdout.decode("utf-8").strip().splitlines()[-1])
        aggregate = json.loads(report.decode("utf-8").splitlines()[0])
    except (IndexError, ValueError) as exc:
        return [f"stdout: no JSON summary line ({exc})"]
    return [
        f"stdout: {key} {summary.get(key)!r}, report {value!r}"
        for key, value in aggregate.items()
        if summary.get(key) != value
    ]


def check_pretrain_loss(l_pretrain: float, vocab_size: int) -> list[str]:
    """The pretraining loss beats a uniform predictor, ln V nats/token."""
    if l_pretrain < math.log(vocab_size):
        return []
    return [f"loss: l_pretrain {l_pretrain!r} >= ln V = {math.log(vocab_size)!r}"]


def check_losses(summary: dict, vocab_size: int) -> list[str]:
    """The pipeline's losses: l_pretrain below ln V, and total_loss the exact
    sum of the two stage losses."""
    problems = check_pretrain_loss(summary["l_pretrain"], vocab_size)
    if summary["total_loss"] != summary["l_pretrain"] + summary["l_comparative"]:
        problems.append(
            f"loss: total_loss {summary['total_loss']!r} != "
            f"{summary['l_pretrain']!r} + {summary['l_comparative']!r}"
        )
    return problems


def check_same_bytes(label: str, first: bytes, other: bytes) -> list[str]:
    return [] if first == other else [f"{label}: bytes differ from the first run"]
