"""Crypto substrate for the TPM emulator and the access-control layer.

Everything is implemented on the Python standard library (``hashlib``) plus
an RSA written in Python whose modular exponentiation runs on the libcrypto
``hashlib`` already links (builtin ``pow`` when it does not resolve, with
bit-identical results) — no external crypto dependency.  All primitives charge
their cost to the ambient :mod:`repro.sim.timing` context, so virtual-time
results reflect crypto work without depending on host speed.

Randomness is deterministic: every consumer draws from a seeded
:class:`~repro.crypto.random_source.RandomSource` (a SHA-256 counter DRBG),
making whole experiments bit-reproducible.
"""

from repro.crypto.hashes import sha1, sha256, HASH_SIZES
from repro.crypto.hmac_util import hmac_sha1, hmac_sha256, constant_time_equal
from repro.crypto.random_source import RandomSource
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from repro.crypto.symmetric import SymmetricKey, EncryptedBlob
from repro.crypto.kdf import derive_key

__all__ = [
    "sha1",
    "sha256",
    "HASH_SIZES",
    "hmac_sha1",
    "hmac_sha256",
    "constant_time_equal",
    "RandomSource",
    "RsaKeyPair",
    "RsaPublicKey",
    "generate_keypair",
    "SymmetricKey",
    "EncryptedBlob",
    "derive_key",
]
