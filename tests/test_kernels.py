"""The numpy kernels must agree with brute-force loops."""
import numpy as np
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

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
    """Dense per-sample sweep for one label, decaying w at every step."""
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
        Y = np.where(rng.random((3, 40)) < 0.5, 1.0, -1.0)
        order = np.stack([rng.permutation(40) for _ in range(5)]).astype(np.int64)
        W, b = _kernels.svm_epochs(csr.data, csr.indices.astype(np.int64),
                                   csr.indptr.astype(np.int64), 7, Y, order, 0.05)
        for k, y in enumerate(Y):
            w_ref, b_ref = svm_bruteforce(X, y, order, 0.05)
            np.testing.assert_allclose(W[k], w_ref, rtol=1e-10, atol=1e-12)
            assert abs(b[k] - b_ref) < 1e-10


class TestConvAgainstBruteForce:
    """Property form of the fixed-shape checks: every valid shape, including
    K == L, stride > K and an empty batch (which forward_batch relies on)."""

    @staticmethod
    def draw_case(data):
        bsz = data.draw(st.integers(0, 4), label="B")
        cin = data.draw(st.integers(1, 5), label="Cin")
        cout = data.draw(st.integers(1, 5), label="Cout")
        length = data.draw(st.integers(1, 12), label="L")
        kernel = data.draw(st.integers(1, length), label="K")
        stride = data.draw(st.integers(1, kernel + 2), label="stride")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        t_out = (length - kernel) // stride + 1
        return (rng.normal(size=(bsz, cin, length)), rng.normal(size=(cout, cin, kernel)),
                rng.normal(size=cout), stride, rng.normal(size=(bsz, cout, t_out)))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_forward(self, data):
        x, w, b, stride, _ = self.draw_case(data)
        got = _kernels.conv1d_forward(x, w, b, stride)
        np.testing.assert_allclose(got, conv_forward_bruteforce(x, w, b, stride),
                                   rtol=1e-12, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_backward(self, data):
        x, w, _, stride, g = self.draw_case(data)
        got = _kernels.conv1d_backward(x, w, stride, g)
        assert got[0].shape == x.shape
        for a, e in zip(got, conv_backward_bruteforce(x, w, stride, g)):
            assert a.shape == e.shape
            np.testing.assert_allclose(a, e, rtol=1e-12, atol=1e-12)


def csr_args(X):
    csr = scipy.sparse.csr_matrix(X)
    return csr.data, csr.indices, csr.indptr, X.shape[1]


class TestSvmSweepAgainstPerLabelOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_bruteforce_per_label(self, data):
        n = data.draw(st.integers(2, 12), label="rows")
        dim = data.draw(st.integers(1, 6), label="dim")
        K = data.draw(st.integers(1, 4), label="labels")
        mags = np.array(data.draw(st.lists(st.floats(0.05, 4.0), min_size=n * dim,
                                           max_size=n * dim), label="magnitudes"))
        signs = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n * dim,
                                            max_size=n * dim), label="signs"))
        X = (mags * signs).reshape(n, dim)
        # row 0 stays full (the matvec branch), row 1 loses an entry (the gather
        # branch; with dim 1 it is an empty row), the rest drop entries at random
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=n * dim,
                                           max_size=n * dim), label="keep")).reshape(n, dim)
        keep[0] = True
        keep[1, data.draw(st.integers(0, dim - 1), label="dropped")] = False
        X = np.where(keep, X, 0.0)
        Y = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=K * n,
                                        max_size=K * n), label="Y")).reshape(K, n)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        order = np.stack([rng.permutation(n)
                          for _ in range(data.draw(st.integers(1, 4), label="epochs"))])
        C = data.draw(st.sampled_from([0.0137, 0.31, 2.9]), label="C")

        W, b = _kernels.svm_epochs(*csr_args(X), Y, order, C)
        assert W.shape == (K, dim) and b.shape == (K,)
        for k in range(K):
            w_ref, b_ref = svm_bruteforce(X, Y[k], order, C)
            # an entry whose updates cancel is exactly 0 here but keeps the
            # decay's rounding in the oracle, so the floor is relative to the
            # largest step, C*N*max|x| at t = 1
            np.testing.assert_allclose(W[k], w_ref, rtol=1e-10,
                                       atol=1e-10 * C * n * np.abs(X).max())
            np.testing.assert_allclose(b[k], b_ref, rtol=1e-10)

    def test_first_step_always_violates(self):
        # at t = 1 the weights and bias are 0, so every label's margin is 0 < 1
        # and takes the full step y*x/lambda, lambda = 1/(C*N), for full,
        # partial and empty rows alike
        C = 0.3
        Y = np.array([[1.0], [-1.0]])
        for x in ([[2.0, -1.0, 0.5]], [[0.0, -1.0, 0.0]], [[0.0, 0.0, 0.0]]):
            X = np.array(x)
            W, b = _kernels.svm_epochs(*csr_args(X), Y, np.zeros((1, 1), dtype=np.int64), C)
            lam = 1.0 / C
            np.testing.assert_array_equal(W, Y * X / lam)
            np.testing.assert_array_equal(b, Y[:, 0] / lam)
