import numpy as np
import pytest

from qho_cal.errors import ConfigError
from qho_cal.quadrature import gauss_legendre, interval_lengths, write_csv

# one unit in the last place of the grid end 8.0, the rule's scale
ULP = float(np.spacing(8.0))


class TestIntervalLengths:
    @pytest.mark.parametrize("points", [2, 11, 101, 1001])
    def test_linspace_grid_has_zero_and_one_span(self, points):
        # the np.linspace spans differ in their last bits but count as one
        grid = np.linspace(0.0, np.pi / 0.01, points)
        if points > 2:
            assert len(set(np.diff(grid))) > 1
        lengths, index = interval_lengths(grid)
        assert lengths.tolist() == [0.0, grid[1]]
        assert index.tolist() == [0] + [1] * (points - 1)

    def test_grid_after_zero(self):
        # the first interval runs from 0 to grid[0]
        lengths, index = interval_lengths((0.25, 0.5, 1.0))
        assert lengths.tolist() == [0.25, 0.5]
        assert index.tolist() == [0, 0, 1]

    def test_non_uniform_grid(self):
        lengths, index = interval_lengths((0.0, 1.0, 3.0, 4.0, 7.0))
        assert lengths.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert index.tolist() == [0, 1, 2, 1, 3]

    def test_four_ulp_apart_merge_and_five_do_not(self):
        # spans 2 and 2 + k ulp of the grid end 8
        lengths, index = interval_lengths((2.0, 4.0 + 4 * ULP, 8.0))
        assert lengths.tolist() == [2.0, 4.0 - 4 * ULP]
        assert index.tolist() == [0, 0, 1]
        lengths, index = interval_lengths((2.0, 4.0 + 5 * ULP, 8.0))
        assert lengths.tolist() == [2.0, 2.0 + 5 * ULP, 4.0 - 5 * ULP]
        assert index.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("first", [2.0 + 2 * ULP, 2.0 - 2 * ULP])
    def test_first_length_seen_is_kept(self, first):
        lengths, index = interval_lengths((first, 4.0, 8.0))
        assert lengths.tolist() == [first, 4.0]
        assert index.tolist() == [0, 0, 1]

    def test_later_lengths_compare_with_the_kept_ones(self):
        # spans 2, 2 + 3 ulp, 2 + 6 ulp and 2 - 9 ulp: the second takes the
        # first one's index, and the third, within four ulp of the second
        # but not of the first, is a length of its own
        lengths, index = interval_lengths((2.0, 4.0 + 3 * ULP, 6.0 + 9 * ULP, 8.0))
        assert lengths.tolist() == [2.0, 2.0 + 6 * ULP, 2.0 - 9 * ULP]
        assert index.tolist() == [0, 0, 1, 2]


def test_gauss_legendre_needs_a_node():
    with pytest.raises(ValueError, match="at least one node"):
        gauss_legendre(0, 0.0, 1.0)


def test_write_csv_under_a_file_is_config_error(tmp_path):
    # a parent path that is a file cannot hold the CSV
    (tmp_path / "file").write_text("")
    with pytest.raises(ConfigError, match="cannot write CSV"):
        write_csv(tmp_path / "file" / "out.csv", "t", [(0.0,)])
