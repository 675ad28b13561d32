"""Skew detection and correction on a page that is really skewed.

``test.png`` is rotated here with ``rotate_img_with_border`` (the warp
the engine applies to correct a page), so the skew it must find is
known: the opposite of the angle put in.
"""

import numpy as np
import pytest

from img2table_ray.extract import rotation
from img2table_ray.extract.document import extract_tables_from_image
from img2table_ray.fixtures import fixture_bytes
from img2table_ray.imgops.kernels import rgb2gray
from img2table_ray.imgops.png import decode_image


@pytest.fixture(scope="module")
def page() -> np.ndarray:
    return decode_image(fixture_bytes("test.png"))


@pytest.mark.parametrize("angle", [2.0, -3.0])
def test_skewed_page_is_found_and_straightened(page, angle):
    skewed = rotation.rotate_img_with_border(page, angle)
    assert skewed.shape[0] > page.shape[0] and skewed.shape[1] > page.shape[1]
    centroids, ref_height, thresh = rotation.get_connected_components(
        img_gray=rgb2gray(skewed))
    angles = rotation.get_relevant_angles(centroids=centroids, ref_height=ref_height)
    assert abs(rotation.estimate_skew(angles=angles, thresh=thresh) + angle) < 0.05

    straight, rotated = rotation.fix_rotation_image(skewed)
    assert rotated and straight.shape != skewed.shape
    # the warp loses a row or so of the larger table, so the shapes are
    # not the upright page's (2, 2) and (6, 3); without the correction
    # at most the small table is found
    found = extract_tables_from_image(skewed, detect_rotation=True).tables
    assert len(found) == 2
    assert len(extract_tables_from_image(skewed).tables) < 2


def test_dixon_q_test_drops_the_outlier():
    assert rotation.angle_dixon_q_test([1.0, 1.1, 1.2, 5.0]) == pytest.approx(1.1)
    assert rotation.angle_dixon_q_test([-4.0, 1.0, 1.1, 1.2]) == pytest.approx(1.1)
    # no outlier at 90%: the mean of all
    assert rotation.angle_dixon_q_test([1.0, 1.1, 1.2, 1.3]) == pytest.approx(1.15)
