"""Library refusals that no command line path reaches: each bad argument to
a public function or class raises ValueError naming what is wrong."""

import numpy as np
import pytest

from nonpaving import (
    FrameFamily,
    Partition,
    RieszCertificate,
    Witness,
    as_complex_matrix,
    build_nonpavable_general,
    certify_nonpavable,
    frame_bounds,
    gram_block_residual,
    projection_from_tight_frame,
    restriction_identity_residual,
    scale_columns,
)


def plain(family):
    """The rows of a built family, without its layout metadata."""
    return FrameFamily(family.vectors)


REFUSALS = {
    "as_complex_matrix-1d": (lambda: as_complex_matrix(np.zeros(3)), "2-d"),
    "scale_columns-nan-weight": (
        lambda: scale_columns(np.eye(2), [1.0, np.nan]), "weights must be finite"),
    "frame_bounds-no-columns": (
        lambda: frame_bounds(FrameFamily(np.zeros((2, 0)))), "ambient dimension must be >= 1"),
    "projection-zero-tightness": (
        lambda: projection_from_tight_frame(build_nonpavable_general(2, 1), 0.0),
        "tightness must be positive"),
    "witness-short-coefficients": (
        lambda: Witness(1, 0, (0, 1), np.array([1.0]), 0.5), "one coefficient per selected index"),
    "certificate-no-rows": (
        lambda: RieszCertificate(Partition(((), ())), (None, None)),
        "at least one nonempty part"),
    "certify-plain-family": (
        lambda: certify_nonpavable(plain(build_nonpavable_general(2, 1)), "exhaustive"),
        "built family with layout metadata"),
    "gram_block_residual-uneven-rows": (
        lambda: gram_block_residual(FrameFamily(np.eye(3)), FrameFamily(np.eye(2))),
        "multiple of the seed's"),
    "restriction_identity_residual-short": (
        lambda: restriction_identity_residual(
            FrameFamily(np.eye(2)), FrameFamily(np.eye(3)), np.zeros((1, 3))),
        "fewer rows than the seed"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_library_refuses_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()
