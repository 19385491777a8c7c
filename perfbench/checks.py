"""Correctness checks computed apart from the program, with numpy alone.

Each function takes the program's answer and the inputs it came from,
recomputes what it can independently, and returns a list of
``(name, ok, detail)`` triples, one per check.  The benchmark counts each
triple as one operation and each ``ok=False`` as one failed operation.
Nothing here compares against a stored copy of earlier output.
"""

from __future__ import annotations

import json

import numpy as np

BANK_RTOL = 1e-9          # filter bank vs. eigendecomposition oracle (relative Frobenius)
STABILITY_RTOL = 1e-8     # reported vs. recomputed spectral-norm distance
CSV_RTOL = 1e-10          # the probe's CSV holds 12 significant digits
ACCURACY_MARGIN = 0.10    # required lead of test accuracy over the majority-class rate
PROBS_ATOL = 1e-12        # probability rows sum to one
MASK_ATOL = 1e-12         # program's masks vs. the same formula in numpy
GRAD_RTOL = 1e-7          # backward vs. the extrapolated finite difference of the loss,
GRAD_ATOL = 1e-11         # plus rounding: an O(1) loss over steps of 1e-2 gives ~3e-13
GRAD_STEP = 1e-2          # largest finite-difference step along the unit gradient
DEGREE_EPS = 1e-8         # degree clamp of the normalized Laplacian


def laplacian(w: np.ndarray) -> np.ndarray:
    """I - D^-1/2 W D^-1/2 with degrees clamped below at ``DEGREE_EPS``."""
    r = 1.0 / np.sqrt(np.maximum(w.sum(axis=1), DEGREE_EPS))
    return np.eye(w.shape[0]) - r[:, None] * w * r[None, :]


def kernel(j: int, lam: np.ndarray, kind: str) -> np.ndarray:
    """Diffusion-wavelet response t^(2^(j-1)) - t^(2^j); t = 1 - lam/2 (low) or lam/2 (high)."""
    t = 1.0 - 0.5 * lam if kind == "low" else 0.5 * lam
    return t ** (2 ** (j - 1)) - t ** (2 ** j)


def spectral_filter(lam: np.ndarray, u: np.ndarray, j: int, kind: str) -> np.ndarray:
    return (u * kernel(j, lam, kind)) @ u.T


def check_bank(name: str, answer: np.ndarray, lap: np.ndarray, x: np.ndarray,
               j_max: int, kind: str):
    """``filter_bank_apply`` output against [U h_j(Lambda) U^T X for j = 2..J]."""
    lam, u = np.linalg.eigh(lap)
    ut_x = u.T @ x
    oracle = np.concatenate([(u * kernel(j, lam, kind)) @ ut_x
                             for j in range(2, j_max + 1)], axis=1)
    if answer.shape != oracle.shape:
        return [(name, False, f"shape {answer.shape} != {oracle.shape}")]
    err = np.linalg.norm(answer - oracle) / np.linalg.norm(oracle)
    return [(name, bool(err <= BANK_RTOL), f"relative error {err:.2e}")]


def check_accuracy(name: str, claimed: float, probs: np.ndarray, labels: np.ndarray,
                   train_idx, test_idx):
    """Claimed accuracy equals argmax accuracy of ``probs`` on the test nodes,
    and beats always answering the training set's majority class."""
    y = np.argmax(labels, axis=1)
    test_idx = np.asarray(test_idx)
    correct = int(np.sum(np.argmax(probs[test_idx], axis=1) == y[test_idx]))
    recomputed = correct / test_idx.size
    majority = np.bincount(y[np.asarray(train_idx)]).argmax()
    prior = float(np.mean(y[test_idx] == majority))
    same = abs(claimed - recomputed) < 0.5 / test_idx.size
    ok = same and recomputed >= prior + ACCURACY_MARGIN
    return [(name, bool(ok), f"claimed {claimed:.4f}, recomputed {recomputed:.4f} "
                             f"({correct}/{test_idx.size}), prior {prior:.4f}")]


def check_masks_probs(name: str, masks, candidate: np.ndarray, probs: np.ndarray):
    """Masks symmetric, in [0, 1], zero off the candidate; probability rows sum to 1."""
    out = []
    for k, w in enumerate(masks):
        problems = []
        if not np.array_equal(w, w.T):
            problems.append("asymmetric")
        if w.min() < 0.0 or w.max() > 1.0:
            problems.append(f"range [{w.min():.3g}, {w.max():.3g}]")
        if np.any(w[candidate == 0] != 0.0):
            problems.append("weight off the candidate")
        out.append((f"{name}.mask{k + 1}", not problems, ", ".join(problems) or "ok"))
    row_err = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    ok = row_err <= PROBS_ATOL and probs.min() >= 0.0
    out.append((f"{name}.probs", bool(ok), f"max |row sum - 1| {row_err:.1e}"))
    return out


def check_masks_recomputed(name: str, masks, expected):
    """The program's masks against ``numpy_masks`` of the same parameters."""
    out = []
    for k, (w, ref) in enumerate(zip(masks, expected)):
        err = float(np.max(np.abs(w - ref)))
        out.append((f"{name}.mask{k + 1}", bool(err <= MASK_ATOL), f"max |error| {err:.1e}"))
    return out


def check_gradient(name: str, grads: dict, loss_with):
    """Backward's gradient of one parameter group against finite differences.

    ``grads`` maps parameter names to backward's gradients, and
    ``loss_with(offsets)`` evaluates the loss with each named parameter
    moved by its offset.  Along the unit direction v = g/|g| the loss must
    change at the rate |g|.  The rate is measured by central differences
    with steps h and h/2, extrapolated (Richardson) to cancel the h^2 term.
    The absolute floor keeps a small gradient from failing on the rounding
    of the loss values alone.
    """
    norm = float(np.sqrt(sum(np.sum(g * g) for g in grads.values())))
    if not norm > 0.0:
        return [(name, False, f"gradient norm {norm}")]

    def slope(h):
        return (loss_with({k: h * g / norm for k, g in grads.items()})
                - loss_with({k: -h * g / norm for k, g in grads.items()})) / (2.0 * h)

    numeric = (4.0 * slope(GRAD_STEP / 2) - slope(GRAD_STEP)) / 3.0
    err = abs(numeric - norm) / norm
    return [(name, bool(abs(numeric - norm) <= GRAD_RTOL * norm + GRAD_ATOL),
             f"|g| {norm:.9e}, finite difference {numeric:.9e}, relative error {err:.1e}")]


def audit_counts(w: np.ndarray, y: np.ndarray, threshold: float):
    iu, ju = np.triu_indices(w.shape[0], k=1)
    keep = w[iu, ju] > threshold
    edges = int(keep.sum())
    ratio = float(np.mean(y[iu[keep]] != y[ju[keep]])) if edges else None
    return edges, ratio


def check_audit(name: str, audit: dict, masks, labels: np.ndarray, threshold: float):
    """Audit edge counts and heterophily ratios recomputed from the masks."""
    y = np.argmax(labels, axis=1)
    out = []
    for tag, w in zip(("ho", "ht"), masks):
        edges, ratio = audit_counts(w, y, threshold)
        got_edges, got_ratio = audit[f"{tag}_edges"], audit[f"{tag}_r_het"]
        ok = got_edges == edges and (
            ratio is None if got_ratio is None
            else ratio is not None and abs(got_ratio - ratio) <= 1e-12)
        out.append((f"{name}.{tag}", bool(ok),
                    f"edges {got_edges} vs {edges}, r_het {got_ratio} vs {ratio}"))
    return out


def perturbation(n: int, magnitude: float, seed: int) -> np.ndarray:
    """The probe's symmetric Gaussian perturbation, rescaled to spectral norm ``magnitude``."""
    raw = np.random.default_rng(seed).standard_normal((n, n))
    e0 = 0.5 * (raw + raw.T)
    return e0 * (magnitude / np.max(np.abs(np.linalg.eigvalsh(e0))))


def check_stability(name: str, rows: list[dict], lap: np.ndarray, seed: int):
    """Each reported trial: distance ||h_j(L) - h_j(L + E)||_2 recomputed with
    eigh and ``numpy.linalg.norm(., 2)``, and held to the paper's bound
    2^(j-1) (1 + delta sqrt(N)) eps with the reported delta.

    Trials are numbered per (j, kind, epsilon) in row order, so trial t
    used the perturbation seed ``seed * 10007 + t``.
    """
    n = lap.shape[0]
    lam, u = np.linalg.eigh(lap)
    perturbed: dict = {}
    trial_of: dict = {}
    out = []
    for k, row in enumerate(rows):
        j, kind, eps = int(row["j"]), row["kind"], float(row["epsilon"])
        trial = trial_of.get((j, kind, eps), 0)
        trial_of[(j, kind, eps)] = trial + 1
        key = (eps, trial)
        if key not in perturbed:
            perturbed[key] = np.linalg.eigh(lap + perturbation(n, eps, seed * 10007 + trial))
        lam_hat, u_hat = perturbed[key]
        observed = np.linalg.norm(spectral_filter(lam, u, j, kind)
                                  - spectral_filter(lam_hat, u_hat, j, kind), 2)
        delta = float(row["delta"])
        bound = 2.0 ** (j - 1) * (1.0 + delta * np.sqrt(n)) * eps
        reported = float(row["observed_distance"])
        problems = []
        if abs(reported - observed) > STABILITY_RTOL * max(observed, 1e-300):
            problems.append(f"observed {reported:.12g} != recomputed {observed:.12g}")
        if not (np.isfinite(delta) and delta >= 0.0):
            problems.append(f"delta {delta}")
        if abs(float(row["bound_value"]) - bound) > CSV_RTOL * bound:
            problems.append(f"bound {row['bound_value']} != {bound:.12g}")
        if observed > bound:
            problems.append(f"distance {observed:.3e} exceeds bound {bound:.3e}")
        out.append((f"{name}.row{k}", not problems, "; ".join(problems) or
                    f"j={j} {kind} eps={eps:g}: {observed:.3e} <= {bound:.3e}"))
    return out


def read_checkpoint(path: str) -> tuple[dict, dict]:
    """Header and named float64 arrays of a ``.fgck`` file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        params = {}
        for entry in header["params"]:
            rows, cols = entry["shape"]
            blob = fh.read(rows * cols * 8)
            params[entry["name"]] = np.frombuffer(blob, dtype="<f8").reshape(rows, cols)
    return header, params


def numpy_masks(params: dict, x: np.ndarray, candidate: np.ndarray):
    """Both learned masks sigmoid(<z_i, z_j>) * A, z = tanh(x W + b), in numpy."""
    out = []
    for prefix in ("mask_ho", "mask_ht"):
        z = np.tanh(x @ params[f"{prefix}_w"] + params[f"{prefix}_b"])
        gram = z @ z.T
        s = 0.5 * (gram + gram.T)
        out.append(candidate / (1.0 + np.exp(-s)))
    return out
