"""The numpy kernels must agree with brute-force loops."""
import numpy as np
import scipy.sparse

from dialectid import _kernels


def conv_forward_bruteforce(x, w, b, stride):
    bsz, cin, length = x.shape
    cout, _, kernel = w.shape
    t_out = (length - kernel) // stride + 1
    out = np.zeros((bsz, cout, t_out))
    for n in range(bsz):
        for o in range(cout):
            for t in range(t_out):
                acc = b[o]
                for c in range(cin):
                    for k in range(kernel):
                        acc += w[o, c, k] * x[n, c, t * stride + k]
                out[n, o, t] = acc
    return out


def conv_backward_bruteforce(x, w, stride, gout):
    bsz, cin, length = x.shape
    cout, _, kernel = w.shape
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    db = np.zeros(cout)
    for n in range(bsz):
        for o in range(cout):
            for t in range(gout.shape[2]):
                g = gout[n, o, t]
                db[o] += g
                for c in range(cin):
                    for k in range(kernel):
                        dw[o, c, k] += g * x[n, c, t * stride + k]
                        dx[n, c, t * stride + k] += g * w[o, c, k]
    return dx, dw, db


def svm_bruteforce(X, y, order, C):
    """Dense per-sample sweep with the same 1/(lambda*t) schedule."""
    n, dim = X.shape
    lam = 1.0 / (C * n)
    w = np.zeros(dim)
    b = 0.0
    t = 0
    for epoch in order:
        for i in epoch:
            t += 1
            margin = y[i] * (X[i] @ w + b)
            w = w * (1.0 - 1.0 / t)
            if margin < 1.0:
                w = w + y[i] / (lam * t) * X[i]
                b += y[i] / (lam * t)
    return w, b


def cases(seed=0):
    rng = np.random.default_rng(seed)
    for bsz, cin, cout, length, kernel, stride in [
        (1, 1, 1, 7, 3, 1),
        (3, 2, 4, 16, 5, 2),
        (2, 3, 2, 11, 4, 3),
    ]:
        x = rng.normal(size=(bsz, cin, length))
        w = rng.normal(size=(cout, cin, kernel))
        b = rng.normal(size=cout)
        t_out = (length - kernel) // stride + 1
        g = rng.normal(size=(bsz, cout, t_out))
        yield x, w, b, stride, g


class TestNumpyPathAgainstBruteForce:
    def test_forward(self):
        for x, w, b, stride, _ in cases():
            got = _kernels.conv1d_forward(x, w, b, stride)
            np.testing.assert_allclose(got, conv_forward_bruteforce(x, w, b, stride),
                                       rtol=1e-12, atol=1e-12)

    def test_backward(self):
        for x, w, b, stride, g in cases(1):
            got = _kernels.conv1d_backward(x, w, stride, g)
            want = conv_backward_bruteforce(x, w, stride, g)
            for a, e in zip(got, want):
                np.testing.assert_allclose(a, e, rtol=1e-12, atol=1e-12)

    def test_svm_sweep(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 7))
        X[rng.random(X.shape) < 0.3] = 0.0  # exercise sparse rows
        csr = scipy.sparse.csr_matrix(X)
        y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        order = np.stack([rng.permutation(40) for _ in range(5)]).astype(np.int64)
        w, b = _kernels.svm_epochs(csr.data, csr.indices.astype(np.int64),
                                   csr.indptr.astype(np.int64), 7, y, order, 0.05)
        w_ref, b_ref = svm_bruteforce(X, y, order, 0.05)
        np.testing.assert_allclose(w, w_ref, rtol=1e-10, atol=1e-12)
        assert abs(b - b_ref) < 1e-10
