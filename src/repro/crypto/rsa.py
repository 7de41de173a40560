"""RSA with PKCS#1 v1.5 signing and encryption.

The TPM 1.2 key hierarchy (EK, SRK, AIKs, storage and signing keys) is RSA.
This module provides key generation, CRT-accelerated private operations,
EMSA-PKCS1-v1_5 signatures over SHA-1 digests (what a TPM 1.2 emits for
quotes and TPM_Sign) and EME-PKCS1-v1_5 encryption (what seals/binds use).

Key generation draws each prime candidate with its top two bits set, so p
and q lie in the FIPS 186-4 B.3 interval (p ≥ √2·2^(k−1)) and every pair
yields a modulus of exactly the requested length — no prime that has paid
for its Miller-Rabin rounds is ever discarded for a short modulus.  Each
candidate is trial-divided by every prime below 2048 with one ``math.gcd``
against their product, then must pass 24 random-base Miller-Rabin rounds.

All RSA logic stays in Python.  Only modular exponentiation — the
Miller-Rabin round, the CRT halves of a private operation and the public
operation — runs in :func:`_modexp`, on OpenSSL's ``BN_mod_exp`` from the
libcrypto that CPython's ``_hashlib`` already links, with builtin ``pow``
as the fallback when those symbols do not resolve.  Both paths give
bit-identical results, so the backend changes host time only: every key,
signature, ciphertext and virtual-time charge is the same.

Virtual-time cost is charged by the key's *declared* size class, so
experiments can simulate 2048-bit timing even when tests run small keys for
host speed.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

from repro.crypto.random_source import RandomSource
from repro.sim.timing import charge
from repro.util.errors import CryptoError

# ASN.1 DigestInfo prefix for SHA-1 (RFC 3447 section 9.2 notes).
_SHA1_DIGEST_INFO = bytes.fromhex("3021300906052b0e03021a05000414")

# Trial division before Miller-Rabin: one gcd against the product of every
# prime below the bound rejects ~85% of random odd candidates for the cost
# of a single big-integer operation.
_TRIAL_BOUND = 2048
_TRIAL_PRIMES = frozenset(
    n for n in range(2, _TRIAL_BOUND)
    if all(n % f for f in range(2, math.isqrt(n) + 1))
)
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)

PUBLIC_EXPONENT = 65537

# (name, restype, argtypes) of every libcrypto function _modexp calls.
# BIGNUM* and BN_CTX* stay opaque void pointers.
_BN_FUNCTIONS = (
    ("BN_CTX_new", ctypes.c_void_p, ()),
    ("BN_CTX_free", None, (ctypes.c_void_p,)),
    ("BN_new", ctypes.c_void_p, ()),
    ("BN_clear_free", None, (ctypes.c_void_p,)),
    ("BN_bin2bn", ctypes.c_void_p, (ctypes.c_char_p, ctypes.c_int, ctypes.c_void_p)),
    ("BN_bn2binpad", ctypes.c_int, (ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int)),
    ("BN_mod_exp", ctypes.c_int, (ctypes.c_void_p,) * 5),
)


@functools.lru_cache(maxsize=None)
def _libcrypto():
    """OpenSSL's bignum functions, or None when they do not resolve.

    Opens the ``_hashlib`` extension CPython already loaded; symbol lookup
    through its handle reaches the libcrypto it links, so no library search
    runs.  Resolved once, on the first :func:`_modexp` call.
    """
    try:
        import _hashlib

        lib = ctypes.CDLL(_hashlib.__file__)
        for name, restype, argtypes in _BN_FUNCTIONS:
            func = getattr(lib, name)
            func.restype = restype
            func.argtypes = argtypes
    except (ImportError, OSError, AttributeError):
        return None
    return lib


def _bn_from_int(lib, value: int):
    """A new ``BIGNUM`` holding ``value``; None when allocation fails."""
    size = (value.bit_length() + 7) // 8
    return lib.BN_bin2bn(value.to_bytes(size, "big"), size, None)


def _modexp(base: int, exp: int, mod: int) -> int:
    """``pow(base, exp, mod)`` for ``base, exp >= 0`` and ``mod >= 1``.

    Runs on libcrypto's ``BN_mod_exp`` when it resolved, else on builtin
    ``pow``; the result is the same integer either way.  Every ``BN_CTX``
    and ``BIGNUM`` is allocated per call and cleared on free, because the
    operands include CRT private exponents and primes.
    """
    if base < 0 or exp < 0:
        raise CryptoError("modular exponentiation needs non-negative operands")
    if mod < 1:
        raise CryptoError("modular exponentiation needs a modulus of at least 1")
    lib = _libcrypto()
    if lib is None:
        return pow(base, exp, mod)
    ctx = result = a = p = m = None
    try:
        ctx = lib.BN_CTX_new()
        result = lib.BN_new()
        a = _bn_from_int(lib, base)
        p = _bn_from_int(lib, exp)
        m = _bn_from_int(lib, mod)
        if not (ctx and result and a and p and m):
            raise CryptoError("libcrypto bignum allocation failed")
        if not lib.BN_mod_exp(result, a, p, m, ctx):
            raise CryptoError("libcrypto BN_mod_exp failed")
        size = (mod.bit_length() + 7) // 8
        out = ctypes.create_string_buffer(size)
        if lib.BN_bn2binpad(result, out, size) != size:
            raise CryptoError("libcrypto BN_bn2binpad failed")
        return int.from_bytes(out.raw, "big")
    finally:
        for bn in (result, a, p, m):
            lib.BN_clear_free(bn)
        lib.BN_CTX_free(ctx)


def _is_probable_prime(n: int, rng: RandomSource, rounds: int = 24) -> bool:
    """Trial division, then Miller-Rabin with ``rounds`` random bases."""
    if n < _TRIAL_BOUND:
        return n in _TRIAL_PRIMES
    if math.gcd(n, _TRIAL_PRODUCT) != 1:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = 2 + rng.randint_below(n - 3)
        x = _modexp(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: RandomSource) -> int:
    """Random prime of exactly ``bits`` bits, top two bits set, coprime to e.

    With both top bits set p ≥ 1.5·2^(bits−1), so the product of two such
    primes always has exactly the sum of their bit lengths.
    """
    while True:
        candidate = rng.randint_bits(bits) | (3 << (bits - 2)) | 1
        if candidate % PUBLIC_EXPONENT == 1:
            continue  # would make e non-invertible mod p-1
        if _is_probable_prime(candidate, rng):
            return candidate


def _size_class(bits: int) -> str:
    """Timing size class: everything ≤1024 bills as 1024, else as 2048."""
    return "1024" if bits <= 1024 else "2048"


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public half: modulus ``n`` and exponent ``e``."""

    n: int
    e: int
    bits: int

    @property
    def byte_length(self) -> int:
        return (self.bits + 7) // 8

    def modulus_bytes(self) -> bytes:
        return self.n.to_bytes(self.byte_length, "big")

    def fingerprint(self) -> bytes:
        """SHA-256 of the modulus — used as a stable key identifier."""
        import hashlib

        return hashlib.sha256(self.modulus_bytes()).digest()

    # -- raw operations -----------------------------------------------------

    def _encrypt_int(self, m: int) -> int:
        if not 0 <= m < self.n:
            raise CryptoError("plaintext representative out of range")
        return _modexp(m, self.e, self.n)

    # -- PKCS#1 v1.5 --------------------------------------------------------

    def verify_sha1(self, digest: bytes, signature: bytes) -> bool:
        """Verify an EMSA-PKCS1-v1_5 SHA-1 signature; False on any mismatch."""
        if len(digest) != 20:
            raise CryptoError(f"SHA-1 digest must be 20 bytes, got {len(digest)}")
        charge(f"rsa.verify.{_size_class(self.bits)}")
        if len(signature) != self.byte_length:
            return False
        s = int.from_bytes(signature, "big")
        if s >= self.n:
            return False
        em = _modexp(s, self.e, self.n).to_bytes(self.byte_length, "big")
        expected = _emsa_pkcs1_v15(digest, self.byte_length)
        return em == expected

    def encrypt(self, plaintext: bytes, rng: RandomSource) -> bytes:
        """EME-PKCS1-v1_5 encryption (TPM_ES_RSAESPKCSv15)."""
        k = self.byte_length
        if len(plaintext) > k - 11:
            raise CryptoError(
                f"plaintext of {len(plaintext)} bytes exceeds max {k - 11} "
                f"for a {self.bits}-bit key"
            )
        charge(f"rsa.verify.{_size_class(self.bits)}")  # public op ≈ verify cost
        padding = b""
        while len(padding) < k - 3 - len(plaintext):
            # PS bytes must be nonzero.
            chunk = rng.bytes(k)
            padding += bytes(b for b in chunk if b != 0)
        padding = padding[: k - 3 - len(plaintext)]
        em = b"\x00\x02" + padding + b"\x00" + plaintext
        c = self._encrypt_int(int.from_bytes(em, "big"))
        return c.to_bytes(k, "big")


@dataclass(frozen=True)
class RsaKeyPair:
    """Full RSA key: public half plus CRT private material."""

    public: RsaPublicKey
    d: int
    p: int
    q: int

    @property
    def bits(self) -> int:
        return self.public.bits

    # CRT exponents, computed lazily and memoized (the dataclass is frozen,
    # so derived values are smuggled into __dict__ via object.__setattr__ —
    # they are pure functions of the immutable fields).

    def _crt_params(self) -> tuple:
        cached = self.__dict__.get("_crt")
        if cached is None:
            cached = (
                self.d % (self.p - 1),
                self.d % (self.q - 1),
                pow(self.q, -1, self.p),
            )
            object.__setattr__(self, "_crt", cached)
        return cached

    def _private_op(self, c: int) -> int:
        if not 0 <= c < self.public.n:
            raise CryptoError("ciphertext representative out of range")
        dp, dq, qinv = self._crt_params()
        m1 = _modexp(c, dp, self.p)
        m2 = _modexp(c, dq, self.q)
        h = (qinv * (m1 - m2)) % self.p
        return m2 + h * self.q

    def sign_sha1(self, digest: bytes) -> bytes:
        """EMSA-PKCS1-v1_5 signature over a SHA-1 digest."""
        if len(digest) != 20:
            raise CryptoError(f"SHA-1 digest must be 20 bytes, got {len(digest)}")
        charge(f"rsa.sign.{_size_class(self.bits)}")
        k = self.public.byte_length
        em = _emsa_pkcs1_v15(digest, k)
        s = self._private_op(int.from_bytes(em, "big"))
        return s.to_bytes(k, "big")

    def decrypt(self, ciphertext: bytes) -> bytes:
        """EME-PKCS1-v1_5 decryption; raises :class:`CryptoError` on bad padding."""
        k = self.public.byte_length
        if len(ciphertext) != k:
            raise CryptoError(f"ciphertext must be {k} bytes, got {len(ciphertext)}")
        charge(f"rsa.sign.{_size_class(self.bits)}")  # private op ≈ sign cost
        em = self._private_op(int.from_bytes(ciphertext, "big")).to_bytes(k, "big")
        if em[0:2] != b"\x00\x02":
            raise CryptoError("PKCS#1 v1.5 decryption failure (bad header)")
        try:
            sep = em.index(b"\x00", 2)
        except ValueError:
            raise CryptoError("PKCS#1 v1.5 decryption failure (no separator)") from None
        if sep < 10:
            raise CryptoError("PKCS#1 v1.5 decryption failure (short padding)")
        return em[sep + 1 :]

    def serialize_private(self) -> bytes:
        """Private material as bytes (what a memory-dump attacker hunts for).

        Memoized: the key is immutable, and the manager re-serializes loaded
        keys on every state sync, so this sits on the per-command hot path.
        """
        cached = self.__dict__.get("_serialized")
        if cached is not None:
            return cached
        from repro.util.bytesio import ByteWriter

        w = ByteWriter()
        w.u32(self.public.bits)
        for value in (self.public.n, self.public.e, self.d, self.p, self.q):
            blob = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
            w.sized(blob)
        result = w.getvalue()
        object.__setattr__(self, "_serialized", result)
        return result

    @staticmethod
    def deserialize_private(data: bytes) -> "RsaKeyPair":
        from repro.util.bytesio import ByteReader

        r = ByteReader(data)
        bits = r.u32()
        n, e, d, p, q = (int.from_bytes(r.sized(), "big") for _ in range(5))
        r.expect_end()
        return RsaKeyPair(public=RsaPublicKey(n=n, e=e, bits=bits), d=d, p=p, q=q)


def _emsa_pkcs1_v15(digest: bytes, em_len: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of a SHA-1 digest."""
    t = _SHA1_DIGEST_INFO + digest
    if em_len < len(t) + 11:
        raise CryptoError(f"modulus too small for EMSA-PKCS1-v1_5 ({em_len} bytes)")
    ps = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + ps + b"\x00" + t


def generate_keypair(bits: int, rng: RandomSource) -> RsaKeyPair:
    """Generate an RSA key pair of ``bits`` modulus bits.

    ``bits`` ≥ 512; tests use small keys for host speed, while virtual-time
    cost is charged for the declared size class regardless.
    """
    if bits < 512:
        raise CryptoError(f"refusing to generate RSA keys under 512 bits ({bits})")
    if bits % 2 != 0:
        raise CryptoError(f"key size must be even, got {bits}")
    charge("rsa.keygen.2048")
    while True:
        p = _generate_prime(bits // 2, rng)
        q = _generate_prime(bits - bits // 2, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(PUBLIC_EXPONENT, -1, phi)
        except ValueError:
            continue  # e not invertible; pick new primes
        public = RsaPublicKey(n=n, e=PUBLIC_EXPONENT, bits=bits)
        return RsaKeyPair(public=public, d=d, p=p, q=q)
