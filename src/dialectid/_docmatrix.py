"""The CSR document matrix that `text_features.featurize_transcripts` returns.

It lives apart from `text_features` because scipy.sparse takes 0.14-0.21 s
to import once numpy is loaded (2 vCPU, scipy 1.17), and reading or writing
transcripts should not pay for it.
"""
import scipy.sparse


class DocumentMatrix(scipy.sparse.csr_matrix):
    """CSR matrix whose len() is its row count, as for the dense array it replaced."""

    def __len__(self):
        return self.shape[0]
