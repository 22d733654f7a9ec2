"""Hot numeric kernels, in vectorized numpy.

The inner loops that dominate training time: 1-D convolution forward and
backward for the twin network, and the hinge subgradient sweep that trains
all K one-vs-rest SVM labels at once. All are deterministic; all randomness
(shuffles, sampling) stays with the callers.
"""
from __future__ import annotations

import numpy as np

# Always False: the kernels are numpy only. Kept because perfbench/worker.py
# reads it for the environment section of its report.
NUMBA_ENABLED = False


def _columns(x, kernel, stride, t_out):
    """(K*Cin, B*T) column matrix of x (B, Cin, L): row k*Cin + c, column b*T + t
    holds x[b, c, t*stride + k]. Built with K strided-slice copies."""
    bsz, cin, _ = x.shape
    xt = x.transpose(1, 0, 2)
    span = stride * (t_out - 1) + 1
    cols = np.empty((kernel, cin, bsz, t_out))
    for k in range(kernel):
        cols[k] = xt[:, :, k:k + span:stride]
    return cols.reshape(kernel * cin, bsz * t_out)


def _weight_matrix(w):
    # (Cout, Cin, K) -> (Cout, K*Cin), matching the rows of _columns
    cout, cin, kernel = w.shape
    return w.transpose(0, 2, 1).reshape(cout, kernel * cin)


def conv1d_forward(x, w, b, stride):
    """Valid 1-D convolution. x (B,Cin,L), w (Cout,Cin,K), b (Cout,) -> (B,Cout,T).

    One GEMM of the (Cout, K*Cin) weights with the column matrix. The result
    is laid out channel-major in memory, (Cout, B, T) transposed, so the next
    layer's column matrix and the backward pass's gout reshape need no copy.
    """
    cout, _, kernel = w.shape
    bsz, _, length = x.shape
    t_out = (length - kernel) // stride + 1
    z = _weight_matrix(w) @ _columns(x, kernel, stride, t_out)
    return z.reshape(cout, bsz, t_out).transpose(1, 0, 2) + b[None, :, None]


def conv1d_backward(x, w, stride, gout):
    """Gradients of conv1d_forward wrt input, weights and bias.

    gout is the (B,Cout,T) upstream gradient; dw and db are summed over the
    batch, dx matches x. dw is one GEMM of gout with the column matrix; dx
    spreads the GEMM of the weights with gout back with K strided-slice adds.
    """
    cout, cin, kernel = w.shape
    bsz, _, length = x.shape
    t_out = gout.shape[2]
    g2 = gout.transpose(1, 0, 2).reshape(cout, bsz * t_out)
    dw = g2 @ _columns(x, kernel, stride, t_out).T
    dw = dw.reshape(cout, kernel, cin).transpose(0, 2, 1)
    db = g2.sum(axis=1)
    spread = (_weight_matrix(w).T @ g2).reshape(kernel, cin, bsz, t_out)
    dx = np.zeros((cin, bsz, length))
    span = stride * (t_out - 1) + 1
    for k in range(kernel):
        # for fixed k the window positions are distinct, so += is safe
        dx[:, :, k:k + span:stride] += spread[k]
    return dx.transpose(1, 0, 2), dw, db


def svm_epochs(data, indices, indptr, dim, Y, order, C):
    """One subgradient sweep for K one-vs-rest hinge problems -> W (K, dim), b (K,).

    Label k minimizes 0.5*||w_k||^2 + C * sum_i hinge(Y[k, i] * (w_k.x_i + b_k))
    over CSR rows with the 1/(lambda*t) schedule, lambda = 1/(C*N); ``order``
    holds the sample index per (epoch, step); the bias is unregularized. The decay
    w *= 1 - 1/t unrolls to w_t = U_t / (lambda*t), U_t the sum of y_j*x_j over
    violating steps j <= t; keeping U, a step is one (K, nnz) matvec for the K
    margins (0 at t = 1) plus an nnz add per violated label. A full row (nnz == dim,
    canonical CSR) skips the gather; other rows get intp columns once, not per step.
    """
    K, n = Y.shape
    lam = 1.0 / (C * n)
    U = np.zeros((K, dim))
    b = [0.0] * K
    y_cols = Y.T.tolist()
    rows = [(data[lo:hi], None if hi - lo == dim else indices[lo:hi].astype(np.intp))
            for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist())]
    t = 0
    for epoch in order:
        for i in epoch.tolist():
            t += 1
            vals, cols = rows[i]
            m = (U @ vals if cols is None else U[:, cols] @ vals).tolist()
            prev = lam * (t - 1) or 1.0  # at t = 1, U and so m are 0
            for k, y in enumerate(y_cols[i]):
                if y * (m[k] / prev + b[k]) < 1.0:
                    u = U[k]  # a view, updated in place
                    if cols is not None:
                        u[cols] += y * vals
                    elif y > 0:
                        u += vals
                    else:
                        u -= vals
                    b[k] += y / (lam * t)
    return U / (lam * t), np.array(b)
