// Authenticated CBC envelope over the XTEA block cipher, in interleaved lanes.
//
// Seal() produces IV || C_0 .. C_{n-1}, where the body P_0 .. P_{n-1} is
// plaintext || zero padding || length || checksum, cut into 8-byte blocks
// (the length and checksum are little-endian 64-bit words). The IV is
// E_K(iv_seed). The body runs as kXteaLanes = 32 interleaved CBC chains:
//
//   C_i = E_K(P_i ^ C_{i-32})   for i >= 32
//   C_i = E_K(P_i ^ L_i)        for i < 32, with lane IV L_l = E_K(IV ^ l)
//
// so the blocks of a row encrypt side by side, and a lane IV is derived only
// for a lane the message reaches. Each lane is plain CBC with a secret IV:
// every XTEA input that carries plaintext is a plaintext block XORed with a
// fresh E_K output used once, so equal blocks still encrypt differently.
// Seal and Open each make two calls into the row kernel (xtea.h), one for the
// lane IVs and one for the whole body. The kernel runs on the widest vector
// unit the CPU has, and each of its builds writes the same bytes, so the
// envelope does not depend on the host. The checksum (EnvelopeChecksum)
// covers the plaintext and its length. Open() inverts the envelope and
// returns kTamperDetected if any bit of the ciphertext was altered: a flipped
// body bit garbles its block, a flipped IV bit garbles the first block of
// every lane, and either fails the length or the checksum. A sealed message
// is 8 + round_up(length + 16, 8) bytes, so its size depends on the plaintext
// length alone. This gives the "end-to-end encryption" with integrity the
// Vice-Virtue connection needs; it is the reproduction stand-in for the
// encrypted-RPC channel of §3.5.3.

#ifndef SRC_CRYPTO_CBC_H_
#define SRC_CRYPTO_CBC_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/common/types.h"
#include "src/crypto/key.h"

namespace itc::crypto {

// Encrypts `plaintext` under `key`. `iv_seed` selects the initialization
// vector deterministically (callers pass a per-message sequence number so
// equal plaintexts yield different ciphertexts).
Bytes Seal(const Key& key, const Bytes& plaintext, uint64_t iv_seed);

// Decrypts and verifies a sealed message. Returns kTamperDetected on any
// integrity failure, kInvalidArgument if the buffer is structurally invalid.
[[nodiscard]] Result<Bytes> Open(const Key& key, const Bytes& sealed);

// The checksum an envelope carries for the `length` plaintext bytes at
// `data`, which must be followed by zero padding to a whole 8-byte word:
// FNV-1a over the padded plaintext's 64-bit little-endian words, word w
// hashed into lane w mod 8, the 8 lanes then folded together with `length`.
// A change confined to one word always changes it.
uint64_t EnvelopeChecksum(const uint8_t* data, uint64_t length);

}  // namespace itc::crypto

#endif  // SRC_CRYPTO_CBC_H_
