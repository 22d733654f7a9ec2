"""Shared builders for the test suite."""
import numpy as np

from dialectid.data import Domain, IVectorSet, Utterance


def make_set(X, labels=None, domain=Domain.TRN, prefix="u"):
    """IVectorSet from a matrix; labels may be None, one string, or a list."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    if labels is None or isinstance(labels, str):
        labels = [labels] * n
    utts = [
        Utterance(id="%s%04d" % (prefix, i), domain=domain, label=labels[i]) for i in range(n)
    ]
    return IVectorSet(utts, X)


def sample_cov(X):
    """Divide-by-N covariance, written independently of the library."""
    X = np.asarray(X, dtype=np.float64)
    mu = X.mean(axis=0)
    diffs = X - mu
    return diffs.T @ diffs / X.shape[0]


def to_dense(rows):
    """The dense (n, dim) matrix of a `CsrRows`, written independently of the library."""
    out = np.zeros(rows.shape)
    for i in range(len(rows)):
        lo, hi = rows.indptr[i], rows.indptr[i + 1]
        out[i, rows.indices[lo:hi]] = rows.data[lo:hi]
    return out
