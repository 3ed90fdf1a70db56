"""CP-ABE and the hybrid CP-ABE + AES envelope."""

from repro.abe.cpabe import (
    CpAbeCiphertext,
    CpAbeKeyPair,
    CpAbeMasterKey,
    CpAbePublicKey,
    CpAbeScheme,
    CpAbeSecretKey,
)
from repro.abe.hybrid import (
    HybridEnvelope,
    decrypt_envelope,
    encrypt_for_policy,
    encrypt_for_roles,
)

__all__ = [
    "CpAbeCiphertext",
    "CpAbeKeyPair",
    "CpAbeMasterKey",
    "CpAbePublicKey",
    "CpAbeScheme",
    "CpAbeSecretKey",
    "HybridEnvelope",
    "decrypt_envelope",
    "encrypt_for_policy",
    "encrypt_for_roles",
]
