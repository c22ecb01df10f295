"""Writes `src/attestnet/_sodium.py`, the module through which
`attestnet.model` calls libsodium's Ed25519: `_key_pair` derives each key
pair and signs, and `verify_bytes` verifies.

It is cffi's out-of-line ABI mode: the written module declares `CDEF` and
imports only `_cffi_backend`, and the library is opened by soname at run time,
so nothing is compiled. Run it after changing `CDEF`, with cffi and pycparser
installed:

    python3 tools/build_sodium.py [OUT]
"""

import sys
from pathlib import Path

import cffi

CDEF = """
int sodium_init(void);
int crypto_sign_ed25519_seed_keypair(unsigned char *pk, unsigned char *sk,
                                     const unsigned char *seed);
int crypto_sign_ed25519_detached(unsigned char *sig, unsigned long long *siglen_p,
                                 const unsigned char *m, unsigned long long mlen,
                                 const unsigned char *sk);
int crypto_sign_ed25519_verify_detached(const unsigned char *sig, const unsigned char *m,
                                        unsigned long long mlen, const unsigned char *pk);
"""

OUT = Path(__file__).resolve().parents[1] / "src" / "attestnet" / "_sodium.py"


def build(path: Path = OUT) -> None:
    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    ffi.set_source("attestnet._sodium", None)
    ffi.emit_python_code(str(path))


if __name__ == "__main__":
    build(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT)
