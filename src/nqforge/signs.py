"""Every sign convention used by the package, in one place.

All other modules import their signs from here instead of inlining powers of
minus one.  Degrees may be passed with either sign (a section of degree -a
and a generator of degree +a contribute the same parity); only parity mod 2
ever matters below, except where a formula genuinely uses the magnitude, and
those take explicit positive magnitudes.

Permutations are tuples perm with perm[k] = 0-based source index of the entry
landing in slot k, so applying perm to (v_0, ..., v_{r-1}) yields
(v[perm[0]], ..., v[perm[r-1]]).

sort_sign is the only reordering loop in the package: perm_sign,
koszul_sign and graded.normalize_tuple (and through it the normal order of
every SuperFunction term) are calls to it with different keys and degrees.
"""

from __future__ import annotations


def sign_pow(exponent):
    """(-1) to an integer power of either sign, always the exact int 1 or
    -1.  Python's ** returns floats on negative exponents, so every sign in
    the package goes through here."""
    return -1 if exponent % 2 else 1


def sort_sign(items, key, degree, symmetric=True):
    """Stable bubble sort of items by key, returning (sorted list, sign).

    The package's one reordering loop.  Each swap of adjacent entries of
    degrees a and b costs (-1)^(a*b), negated when symmetric is false, so
    the sign is the product of that cost over the inverted pairs.  Equal
    keys are never swapped.  Already-sorted input, the common case, costs
    one pass.
    """
    arr = list(items)
    if len(arr) < 2:
        return arr, 1
    keys = list(map(key, arr))
    flip = 0 if symmetric else 1
    sign = 1
    for end in range(len(arr) - 1, 0, -1):
        swapped = False
        for j in range(end):
            if keys[j] > keys[j + 1]:
                keys[j], keys[j + 1] = keys[j + 1], keys[j]
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                if (degree(arr[j]) * degree(arr[j + 1]) + flip) % 2:
                    sign = -sign
                swapped = True
        if not swapped:
            break
    return arr, sign


def perm_sign(perm):
    """Ordinary signature of a permutation tuple."""
    return sort_sign(perm, int, lambda i: 0, symmetric=False)[1]


def koszul_sign(perm, degrees):
    """Koszul sign of perm acting on homogeneous entries of the given degrees.

    Convention: transposing two adjacent entries of degrees a and b costs
    (-1)^(a*b).  degrees[i] is the degree of source entry i.
    """
    return sort_sign(perm, int, degrees.__getitem__)[1]


def chi_sign(perm, degrees):
    """Koszul sign times the signature: the antisymmetric-side twin of
    koszul_sign."""
    return sort_sign(perm, int, degrees.__getitem__, symmetric=False)[1]


def suspension_power_sign(i):
    """(-1)^(i(i-1)/2), the sign relating the inverse of the i-fold
    suspension to the i-fold inverse suspension."""
    return sign_pow(i * (i - 1) // 2)


def suspend_tuple_sign(degrees):
    """Sign produced when the i-fold suspension hits a product tuple:
    exponent sum over entries of (i - j) * degree_j with 1-based j.

    Pass the degrees of the entries BEFORE suspending.  The same sign also
    converts the other way (it is its own inverse), so desuspending a tuple
    of i entries uses this function on the degrees after desuspension.
    """
    i = len(degrees)
    expo = sum((i - j) * degrees[j - 1] for j in range(1, i + 1))
    return sign_pow(expo)


def bracket_transfer_sign(magnitudes):
    """Total sign converting an antisymmetric bracket value on suspended
    frames into the symmetric bracket value on unsuspended frames (and back:
    the conversion is involutive featuring the same sign).

    magnitudes are the positive degree magnitudes a_j of the unsuspended
    arguments; exponent i(i-1)/2 + sum_j (i - j) * a_j.
    """
    i = len(magnitudes)
    return suspension_power_sign(i) * suspend_tuple_sign(magnitudes)


def evaluation_sign(magnitudes):
    """Sign in the dictionary between polynomial-coefficient elements and
    multilinear maps on sections.

    Evaluating a monomial against sections X_1, ..., X_r of degree
    magnitudes a_1, ..., a_r means applying the interior products i_{X_1}
    through i_{X_r} in that order and multiplying by this sign:
    exponent sum_j a_j + sum_{m<j} a_m a_j.
    """
    expo = sum(magnitudes)
    r = len(magnitudes)
    for m in range(r):
        for j in range(m + 1, r):
            expo += magnitudes[m] * magnitudes[j]
    return sign_pow(expo)


def interior_pairing_sign(a):
    """Contraction of a degree-a frame field with its dual generator:
    (-1)^(a*a) = (-1)^a."""
    return sign_pow(a)


def ce_prefactor(k):
    """(-1)^k in front of the bracket pullback term of the differential on a
    generator of standard degree k."""
    return sign_pow(k)


def rho_wedge_term_sign(k, a_first):
    """Per-shuffle sign of the anchor-derivation term acting on a
    standard-degree-k map: (-1)^(k * a) where a is the degree magnitude of
    the entry the anchor eats; the shuffle's Koszul sign multiplies this."""
    return sign_pow(k * a_first)


def shifted_ce_sign(r, s):
    """(-1)^((r - s + 1)(s - 1)) in the antisymmetric-side formula for the
    differential on maps with s arguments evaluated at arity r."""
    return sign_pow((r - s + 1) * (s - 1))


def algebra_identity_sign(i, j):
    """(-1)^(i(j-1)) weighting the (i, j) term of the antisymmetric-side
    homotopy Jacobi identities."""
    return sign_pow(i * (j - 1))


def derived_to_symmetric_sign(r):
    """(-1)^r relating the r-th nested-commutator bracket to the r-th
    symmetric bracket."""
    return sign_pow(r)


def morphism_second_row_sign(magnitudes, i):
    """Sign of the anchor correction term of the bracket compatibility
    condition in which argument i (0-based) acts: exponent
    a_i * (a_1 + ... + a_{i-1}) + 1."""
    expo = magnitudes[i] * sum(magnitudes[:i]) + 1
    return sign_pow(expo)


def over_point_block_sign(block_sizes, block_degree_sums):
    """Printed sign of one partition term of the rank-zero-base bracket
    compatibility condition.

    block_sizes t_1..t_r and block_degree_sums are per ordered block;
    exponent r(r-1)/2 + sum_j t_j (r - j)
    + sum_j |Y_j| (r - j + t_{j+1} + ... + t_r), 1-based j.
    """
    r = len(block_sizes)
    expo = r * (r - 1) // 2
    for j in range(1, r + 1):
        expo += block_sizes[j - 1] * (r - j)
        tail = sum(block_sizes[j:])
        expo += block_degree_sums[j - 1] * (r - j + tail)
    return sign_pow(expo)
