"""Suite-wide pytest set-up.

When a hypothesis test fails, the hypothesis plugin imports
`hypothesis.extra._patching` to report the falsifying example. That import
pulls in `mypy_extensions`, whose DeprecationWarning the suite's
``filterwarnings = ["error"]`` turns into an INTERNALERROR that hides the
example. Importing the module once here, with that warning ignored, keeps
the report intact and leaves the filter as strict as it is. Without
`libcst` the module does not import, and the plugin then skips it too.
"""
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
