"""The digit table the CSV kernel reads its digit bytes from."""

import numpy as np

from monopoly_control import tableio


def test_digit_table_holds_the_digits_of_0000_to_9999():
    digits4 = tableio._tables()[-1]
    assert digits4.dtype == np.uint32 and digits4.shape == (10 ** 4,)
    got = digits4.view(np.uint8).reshape(-1, 4) + ord("0")
    want = np.frombuffer("".join("%04d" % i for i in range(10 ** 4))
                         .encode("ascii"), np.uint8).reshape(-1, 4)
    assert np.array_equal(got, want)
