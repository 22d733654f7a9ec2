"""Hot numeric kernels, in vectorized numpy.

The inner loops that dominate training time: 1-D convolution forward and
backward for the twin network, and the per-sample hinge subgradient sweep
for the SVM. All are deterministic; all randomness (shuffles, sampling)
stays with the callers.
"""
from __future__ import annotations

import numpy as np

# Always False: the kernels are numpy only. Kept because perfbench/worker.py
# reads it for the environment section of its report.
NUMBA_ENABLED = False


def _windows(x, kernel, stride):
    # (B, C, L) -> (B, C, T, K) view of the strided convolution windows
    win = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=2)
    return win[:, :, ::stride, :]


def conv1d_forward(x, w, b, stride):
    """Valid 1-D convolution. x (B,Cin,L), w (Cout,Cin,K), b (Cout,) -> (B,Cout,T)."""
    win = _windows(x, w.shape[2], stride)
    return np.einsum("ock,bctk->bot", w, win, optimize=True) + b[None, :, None]


def conv1d_backward(x, w, stride, gout):
    """Gradients of conv1d_forward wrt input, weights and bias.

    gout is the (B,Cout,T) upstream gradient; dw and db are summed over the
    batch, dx matches x.
    """
    kernel = w.shape[2]
    win = _windows(x, kernel, stride)
    dw = np.einsum("bot,bctk->ock", gout, win, optimize=True)
    db = gout.sum(axis=(0, 2))
    dx = np.zeros_like(x)
    spread = np.einsum("bot,ock->bctk", gout, w, optimize=True)
    pos = stride * np.arange(gout.shape[2])
    for k in range(kernel):
        # for fixed k the window positions are distinct, so += is safe
        dx[:, :, pos + k] += spread[:, :, :, k]
    return dx, dw, db


def svm_epochs(data, indices, indptr, dim, y, order, C):
    """Subgradient sweep for one binary hinge problem on CSR features.

    Minimizes 0.5*||w||^2 + C * sum_i hinge(y_i * (w.x_i + b)) with the
    1/(lambda*t) step schedule, lambda = 1/(C*N). ``order`` holds the
    pre-shuffled sample index per (epoch, step); the bias is unregularized.
    """
    n = indptr.shape[0] - 1
    lam = 1.0 / (C * n)
    w = np.zeros(dim)
    b = 0.0
    t = 0
    for e in range(order.shape[0]):
        for s in range(n):
            i = order[e, s]
            t += 1
            lo, hi = indptr[i], indptr[i + 1]
            cols = indices[lo:hi]
            vals = data[lo:hi]
            margin = y[i] * (float(vals @ w[cols]) + b)
            w *= 1.0 - 1.0 / t
            if margin < 1.0:
                coef = y[i] / (lam * t)
                w[cols] += coef * vals
                b += coef
    return w, b
