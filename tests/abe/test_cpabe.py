"""Tests for the CP-ABE scheme."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.abe.cpabe import CpAbeScheme
from repro.crypto import simulated
from repro.errors import AccessDeniedError, CryptoError
from repro.policy.boolexpr import And, Attr, Or, parse_policy

ROLES = [f"R{i}" for i in range(5)]


@pytest.fixture(scope="module")
def env():
    rng = random.Random(17)
    scheme = CpAbeScheme(simulated())
    keys = scheme.setup(rng)
    return scheme, keys, rng


def test_encrypt_decrypt_roundtrip(any_group, rng):
    scheme = CpAbeScheme(any_group)
    keys = scheme.setup(rng)
    policy = parse_policy("(doctor and cancer) or researcher")
    message = any_group.gt ** 12345
    ct = scheme.encrypt(keys.public, message, policy, rng)
    sk = scheme.keygen(keys, ["researcher"], rng)
    assert scheme.decrypt(sk, ct) == message


def test_decrypt_denied_for_unsatisfying_attrs(any_group, rng):
    scheme = CpAbeScheme(any_group)
    keys = scheme.setup(rng)
    policy = parse_policy("doctor and cancer")
    ct = scheme.encrypt(keys.public, any_group.gt ** 7, policy, rng)
    sk = scheme.keygen(keys, ["doctor"], rng)
    with pytest.raises(AccessDeniedError):
        scheme.decrypt(sk, ct)


def test_encrypt_requires_gt_element(env):
    scheme, keys, rng = env
    with pytest.raises(CryptoError):
        scheme.encrypt(keys.public, scheme.group.g1, Attr("R0"), rng)


def test_kem_encapsulate_decapsulate(env):
    scheme, keys, rng = env
    policy = parse_policy("R0 or (R1 and R2)")
    key_material, header = scheme.encapsulate(keys.public, policy, rng)
    assert header.c_tilde is None
    sk = scheme.keygen(keys, ["R1", "R2"], rng)
    assert scheme.decapsulate(sk, header) == key_material
    sk_bad = scheme.keygen(keys, ["R1"], rng)
    with pytest.raises(AccessDeniedError):
        scheme.decapsulate(sk_bad, header)


def test_decrypt_kem_header_rejected(env):
    scheme, keys, rng = env
    _, header = scheme.encapsulate(keys.public, Attr("R0"), rng)
    sk = scheme.keygen(keys, ["R0"], rng)
    with pytest.raises(CryptoError):
        scheme.decrypt(sk, header)


def test_ciphertext_shape_checked(env):
    scheme, keys, rng = env
    from dataclasses import replace

    ct = scheme.encrypt(keys.public, scheme.group.gt ** 3, parse_policy("R0 and R1"), rng)
    bad = replace(ct, policy=Attr("R0"))
    sk = scheme.keygen(keys, ["R0"], rng)
    with pytest.raises(CryptoError):
        scheme.decrypt(sk, bad)


def test_keys_are_user_specific(env):
    scheme, keys, rng = env
    sk1 = scheme.keygen(keys, ["R0"], rng)
    sk2 = scheme.keygen(keys, ["R0"], rng)
    assert sk1.k != sk2.k  # fresh t per user (collusion separation)
    ct = scheme.encrypt(keys.public, scheme.group.gt ** 5, Attr("R0"), rng)
    assert scheme.decrypt(sk1, ct) == scheme.decrypt(sk2, ct)


def test_no_trivial_collusion(env):
    """Two users' attributes must not combine across keys."""
    scheme, keys, rng = env
    policy = parse_policy("R0 and R1")
    ct = scheme.encrypt(keys.public, scheme.group.gt ** 9, policy, rng)
    sk_a = scheme.keygen(keys, ["R0"], rng)
    sk_b = scheme.keygen(keys, ["R1"], rng)
    # Naive mixing: use sk_a's K/L with sk_b's attribute component.
    from repro.abe.cpabe import CpAbeSecretKey

    frankenstein = CpAbeSecretKey(
        attrs=frozenset({"R0", "R1"}),
        k=sk_a.k,
        l=sk_a.l,
        k_attr={"R0": sk_a.k_attr["R0"], "R1": sk_b.k_attr["R1"]},
    )
    blinding = scheme._recover_blinding(frankenstein, ct)
    real = ct.c_tilde / (scheme.group.gt ** 9)
    assert blinding != real  # mixed keys recover garbage


def test_ciphertext_byte_size(env):
    scheme, keys, rng = env
    policy = parse_policy("R0 and R1")
    ct = scheme.encrypt(keys.public, scheme.group.gt ** 2, policy, rng)
    grp = scheme.group
    expected = grp.element_bytes("GT") + grp.element_bytes("G1") * 3 + grp.element_bytes("G2") * 2
    assert ct.byte_size() == expected


policy_st = st.recursive(
    st.sampled_from(ROLES).map(Attr),
    lambda ch: st.one_of(
        st.lists(ch, min_size=1, max_size=3).map(lambda cs: And.of(*cs)),
        st.lists(ch, min_size=1, max_size=3).map(lambda cs: Or.of(*cs)),
    ),
    max_leaves=6,
)


@given(policy_st, st.sets(st.sampled_from(ROLES)))
@settings(max_examples=40, deadline=None)
def test_decryption_matches_policy_evaluation(policy, attrs):
    rng = random.Random(23)
    scheme = CpAbeScheme(simulated())
    keys = scheme.setup(rng)
    message = scheme.group.gt ** 777
    ct = scheme.encrypt(keys.public, message, policy, rng)
    sk = scheme.keygen(keys, attrs, rng)
    if policy.evaluate(attrs):
        assert scheme.decrypt(sk, ct) == message
    else:
        with pytest.raises(AccessDeniedError):
            scheme.decrypt(sk, ct)


# -- decapsulation against the textbook product of pairings ----------------

def _reference_blinding(grp, msp, v, sk, ct):
    """e(C',K) / prod_i (e(C_i,L) e(K_x,D_i))^{v_i}, one pair() per term."""
    denom = grp.identity("GT")
    for i, label in enumerate(msp.labels):
        if v[i]:
            term = grp.pair(ct.c_rows[i], sk.l) * grp.pair(sk.k_attr[label], ct.d_rows[i])
            denom = denom * term ** v[i]
    return grp.pair(ct.c_prime, sk.k) / denom


def _affine_combination(msp, attrs_a, attrs_b):
    """2 v_a - v_b: satisfies v M = e1 with coefficients other than 0 and 1."""
    order = msp.order
    v_a = msp.satisfying_vector(attrs_a)
    v_b = msp.satisfying_vector(attrs_b)
    v = [(2 * a - b) % order for a, b in zip(v_a, v_b)]
    for j in range(msp.n_cols):
        column = sum(v[i] * msp.matrix[i][j] for i in range(msp.n_rows)) % order
        assert column == (1 if j == 0 else 0)
    assert any(x not in (0, 1) for x in v)
    return v


@pytest.mark.parametrize(
    "policy_text, attrs_a, attrs_b",
    [
        ("R0 or R1", ["R0"], ["R1"]),
        ("R0 or (R1 and R2)", ["R0"], ["R1", "R2"]),
        ("2 of (R0, R1, R2)", ["R0", "R1"], ["R1", "R2"]),
    ],
    ids=["or", "or-of-and", "threshold"],
)
def test_decapsulate_matches_reference_product(
    any_group, monkeypatch, policy_text, attrs_a, attrs_b
):
    from repro.policy.compiler.msp import get_msp

    grp = any_group
    rng = random.Random(31)
    scheme = CpAbeScheme(grp)
    keys = scheme.setup(rng)
    policy = parse_policy(policy_text)
    key_material, header = scheme.encapsulate(keys.public, policy, rng)
    sk = scheme.keygen(keys, set(attrs_a) | set(attrs_b), rng)
    msp = get_msp(policy, grp.order)
    # The span-program solver only ever returns 0/1 vectors for these
    # policies; any other solution of v M = e1 must open the header too,
    # through the k_x ** -v_i branch of the folded multi-pairing.
    for v in (msp.satisfying_vector(sk.attrs), _affine_combination(msp, attrs_a, attrs_b)):
        monkeypatch.setattr(msp, "satisfying_vector", lambda attrs, v=v: list(v))
        reference = _reference_blinding(grp, msp, v, sk, header)
        assert reference.to_bytes() == key_material
        assert scheme.decapsulate(sk, header) == key_material


@pytest.mark.parametrize("n_roles", [1, 2, 3])
def test_bn254_open_runs_k_plus_2_pairings_outside_the_cache(real_group, n_roles):
    grp = real_group
    rng = random.Random(37)
    scheme = CpAbeScheme(grp)
    keys = scheme.setup(rng)
    roles = [f"R{i}" for i in range(n_roles)]
    key_material, header = scheme.encapsulate(keys.public, parse_policy(" and ".join(roles)), rng)
    sk = scheme.keygen(keys, roles, rng)
    cached = len(grp._pair_cache)
    before = grp.stats.snapshot()
    assert scheme.decapsulate(sk, header) == key_material
    delta = grp.stats.delta(before)
    assert delta["pairings"] == n_roles + 2
    assert delta["pair_cache_hits"] == 0
    assert len(grp._pair_cache) == cached
