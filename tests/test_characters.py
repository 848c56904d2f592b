from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from qinv.characters import partitions, two_row_characters, z_lambda


def test_partition_counts():
    # Number of partitions of n for n = 0..10.
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, p in enumerate(expected):
        assert len(partitions(n)) == p


def test_partitions_are_sorted_decreasing():
    for lam in partitions(7):
        assert all(a >= b for a, b in zip(lam, lam[1:]))
        assert sum(lam) == 7


def test_z_lambda_class_sizes_sum_to_group_order():
    for n in range(1, 9):
        assert sum(factorial(n) // z_lambda(mu) for mu in partitions(n)) \
            == factorial(n)


def _permutation(mu):
    """A permutation of {0..n-1} of cycle type mu, as an image tuple."""
    image, start = [], 0
    for part in mu:
        image += [start + (i + 1) % part for i in range(part)]
        start += part
    return tuple(image)


@pytest.mark.parametrize("n", range(0, 9))
def test_two_row_characters_count_fixed_subsets(n):
    # chi^(n-b, b) = pi_b - pi_(b-1), pi_b the b-subsets the permutation
    # fixes (the character of the permutation module on b-subsets).
    for mu in partitions(n):
        perm = _permutation(mu)
        pi = [sum(1 for s in combinations(range(n), b)
                  if {perm[i] for i in s} == set(s))
              for b in range(n + 1)]
        expected = {n - b: pi[b] - (pi[b - 1] if b else 0)
                    for b in range(n // 2 + 1)}
        assert two_row_characters(mu) == expected


def test_character_at_identity_is_ballot_number():
    # dim (n - b, b) = C(n, b) - C(n, b - 1).
    for n in range(16):
        chi = two_row_characters((1,) * n)
        for b in range(n // 2 + 1):
            assert chi[n - b] == comb(n, b) - (comb(n, b - 1) if b else 0)


@pytest.mark.parametrize("n", range(1, 13))
def test_first_orthogonality(n):
    # sum_mu chi^lam(mu) chi^nu(mu) / z_mu = delta(lam, nu) over the
    # two-row shapes lam = (a, n - a), nu = (b, n - b).
    parts = partitions(n)
    rows = range((n + 1) // 2, n + 1)
    for a in rows:
        for b in rows:
            total = sum(
                Fraction(two_row_characters(mu)[a] * two_row_characters(mu)[b],
                         z_lambda(mu))
                for mu in parts
            )
            assert total == (1 if a == b else 0)


def test_known_character_table_s3():
    # Rows: (3), (2,1); columns: classes (1,1,1), (2,1), (3).
    table = {
        3: {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
        2: {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    }
    for a, row in table.items():
        for mu, val in row.items():
            assert two_row_characters(mu)[a] == val


def test_known_character_table_s4():
    # Rows: (4), (3,1), (2,2); columns: classes (1^4), (2,1,1), (2,2),
    # (3,1), (4).
    classes = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    table = {
        4: [1, 1, 1, 1, 1],
        3: [3, 1, -1, 0, -1],
        2: [2, 0, 2, -1, 0],
    }
    for a, row in table.items():
        assert [two_row_characters(mu)[a] for mu in classes] == row


def test_two_row_character_trivial_class():
    # Two-row shapes appear in the covariant dimension formula; check the
    # dimension of (m, m) equals the Catalan number.
    for m in range(1, 6):
        n = 2 * m
        assert two_row_characters((1,) * n)[m] == comb(n, m) // (m + 1)
