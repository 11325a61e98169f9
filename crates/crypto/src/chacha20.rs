//! ChaCha20 stream cipher (RFC 8439).
//!
//! Used for all symmetric crypto in the reproduction: mTLS record
//! protection, the pre-established secure channel to the key server, and
//! the at-rest encryption of stored private keys. Implemented from the RFC
//! and validated against its test vector.

/// ChaCha20 cipher instance bound to a key.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
}

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Keystream blocks one call of the kernel computes side by side. More than
/// eight: LLVM fully unrolls a loop it can bound at eight trips or fewer
/// before the loop vectoriser sees it.
const LANES: usize = 16;

/// The kernel's output: word `w` of lane `l`'s block at `[w][l]`, so a
/// vector of lanes stores to consecutive addresses.
type LaneWords = [[u32; LANES]; 16];

#[inline(always)]
fn quarter_round(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

/// A column round and a diagonal round.
#[inline(always)]
fn double_round(x: &mut [u32; 16]) {
    quarter_round(x, 0, 4, 8, 12);
    quarter_round(x, 1, 5, 9, 13);
    quarter_round(x, 2, 6, 10, 14);
    quarter_round(x, 3, 7, 11, 15);
    quarter_round(x, 0, 5, 10, 15);
    quarter_round(x, 1, 6, 11, 12);
    quarter_round(x, 2, 7, 8, 13);
    quarter_round(x, 3, 4, 9, 14);
}

fn nonce_words(nonce: &[u8; 12]) -> [u32; 3] {
    let [a, b, c, d, e, f, g, h, i, j, k, l] = *nonce;
    [
        u32::from_le_bytes([a, b, c, d]),
        u32::from_le_bytes([e, f, g, h]),
        u32::from_le_bytes([i, j, k, l]),
    ]
}

/// The 64 keystream bytes of lane `l`.
fn lane_block(ks: &LaneWords, l: usize) -> [u8; 64] {
    let mut block = [0u8; 64];
    for (bytes, row) in block.chunks_exact_mut(4).zip(ks) {
        bytes.copy_from_slice(&row[l].to_le_bytes());
    }
    block
}

impl ChaCha20 {
    /// Create a cipher from a 256-bit key.
    pub fn new(key: &[u8; 32]) -> Self {
        let mut k = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaCha20 { key: k }
    }

    /// Derive a key from a 64-bit shared secret (the DH output) by
    /// repeating-and-mixing — a stand-in for HKDF adequate for the
    /// simulation's purposes.
    pub fn from_shared_secret(secret: u64) -> Self {
        let mut key = [0u8; 32];
        let mut x = secret | 1;
        for chunk in key.chunks_exact_mut(8) {
            // splitmix64 expansion
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes());
        }
        Self::new(&key)
    }

    /// The keystream words of blocks `counter .. counter + n`, one block a
    /// lane (`n` is clamped to [`LANES`]; lanes from `n` on are left as they
    /// were). This is the whole block function of RFC 8439 §2.3 in the body
    /// of one loop over lanes, shaped for LLVM's loop vectoriser, which at
    /// the x86-64 baseline runs four lanes a step in SSE2 and the last
    /// `n % 4` one at a time: the trip count is a runtime value (a loop of
    /// known length is unrolled and left to the SLP vectoriser, which gives
    /// up on a chain eighty quarter rounds deep), and the ten double rounds
    /// are written out, because a loop over rounds would make the lane loop
    /// an outer loop, which is not vectorised. `chacha20_lanes_are_vectorised`
    /// times it against the block-at-a-time reference. Out of line: the body
    /// is over a thousand instructions, and callers encrypt 8-byte records.
    #[inline(never)]
    fn words(&self, counter: u32, nonce: [u32; 3], n: usize, out: &mut LaneWords) {
        let [k0, k1, k2, k3, k4, k5, k6, k7] = self.key;
        let [n0, n1, n2] = nonce;
        for l in 0..n.min(LANES) {
            let block_counter = counter.wrapping_add(l as u32);
            let initial = [
                SIGMA[0], SIGMA[1], SIGMA[2], SIGMA[3], k0, k1, k2, k3, k4, k5, k6, k7,
                block_counter, n0, n1, n2,
            ];
            let mut x = initial;
            double_round(&mut x);
            double_round(&mut x);
            double_round(&mut x);
            double_round(&mut x);
            double_round(&mut x);
            double_round(&mut x);
            double_round(&mut x);
            double_round(&mut x);
            double_round(&mut x);
            double_round(&mut x);
            for ((row, word), init) in out.iter_mut().zip(x).zip(initial) {
                row[l] = word.wrapping_add(init);
            }
        }
    }

    /// The ChaCha20 block function: 64 bytes of keystream for
    /// (counter, nonce).
    pub fn block(&self, counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
        let mut ks = [[0u32; LANES]; 16];
        self.words(counter, nonce_words(nonce), 1, &mut ks);
        lane_block(&ks, 0)
    }

    /// XOR `data` with the keystream starting at block `initial_counter`.
    /// Encryption and decryption are the same operation.
    pub fn apply(&self, initial_counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
        let nonce = nonce_words(nonce);
        let mut ks = [[0u32; LANES]; 16];
        let mut counter = initial_counter;
        for batch in data.chunks_mut(64 * LANES) {
            let blocks = batch.len().div_ceil(64);
            // Three blocks left over cost more one at a time than a fourth,
            // unused lane costs in a vector step; one or two cost less (an
            // 8-byte record must not pay for four blocks).
            let lanes = if blocks % 4 == 3 { blocks + 1 } else { blocks };
            self.words(counter, nonce, lanes, &mut ks);
            for (l, chunk) in batch.chunks_mut(64).enumerate() {
                if let Ok(full) = <&mut [u8; 64]>::try_from(&mut *chunk) {
                    for (bytes, row) in full.chunks_exact_mut(4).zip(&ks) {
                        let word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) ^ row[l];
                        bytes.copy_from_slice(&word.to_le_bytes());
                    }
                } else {
                    for (b, k) in chunk.iter_mut().zip(lane_block(&ks, l)) {
                        *b ^= k;
                    }
                }
            }
            counter = counter.wrapping_add(LANES as u32);
        }
    }

    /// Convenience: encrypt a copy of `data`.
    pub fn encrypt(&self, counter: u32, nonce: &[u8; 12], data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply(counter, nonce, &mut out);
        out
    }
}

impl std::fmt::Debug for ChaCha20 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("ChaCha20 { key: <redacted> }")
    }
}

/// RFC 8439 §2.3 a block at a time: the implementation the lane kernel
/// replaced, kept as the oracle it is tested (and timed) against. The two
/// share `quarter_round`, which the RFC vectors check on their own.
#[cfg(test)]
mod reference {
    use super::{quarter_round, SIGMA};

    fn block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
        let mut state = [0u32; 16];
        state[0..4].copy_from_slice(&SIGMA);
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            state[4 + i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        state[12] = counter;
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            state[13 + i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let initial = state;
        for _ in 0..10 {
            // column rounds
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // diagonal rounds
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = state[i].wrapping_add(initial[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    pub fn apply(key: &[u8; 32], initial_counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
        for (block_idx, chunk) in data.chunks_mut(64).enumerate() {
            let ks = block(key, initial_counter.wrapping_add(block_idx as u32), nonce);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time;

    /// The key of the RFC 8439 vectors: bytes 0..32.
    fn rfc_key() -> [u8; 32] {
        std::array::from_fn(|i| i as u8)
    }

    /// RFC 8439 §2.3.2 test vector, through `block()` and through `apply`
    /// on 64 zero bytes.
    #[test]
    fn rfc8439_block_vector() {
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let cipher = ChaCha20::new(&rfc_key());
        let expected: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(cipher.block(1, &nonce), expected);
        let mut zeros = [0u8; 64];
        cipher.apply(1, &nonce, &mut zeros);
        assert_eq!(zeros, expected);
    }

    /// RFC 8439 §2.4.2 encryption vector: all 114 bytes, so the second block
    /// (another lane of the kernel) is checked as well as the first.
    #[test]
    fn rfc8439_encrypt_vector() {
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let ct = ChaCha20::new(&rfc_key()).encrypt(1, &nonce, plaintext);
        let expected: [u8; 114] = [
            0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
            0x69, 0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43, 0x60, 0xc2, 0x0a, 0x27, 0xaf, 0xcc,
            0xfd, 0x9f, 0xae, 0x0b, 0xf9, 0x1b, 0x65, 0xc5, 0x52, 0x47, 0x33, 0xab, 0x8f, 0x59,
            0x3d, 0xab, 0xcd, 0x62, 0xb3, 0x57, 0x16, 0x39, 0xd6, 0x24, 0xe6, 0x51, 0x52, 0xab,
            0x8f, 0x53, 0x0c, 0x35, 0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca, 0x0d, 0xbf, 0x50, 0x0d,
            0x6a, 0x61, 0x56, 0xa3, 0x8e, 0x08, 0x8a, 0x22, 0xb6, 0x5e, 0x52, 0xbc, 0x51, 0x4d,
            0x16, 0xcc, 0xf8, 0x06, 0x81, 0x8c, 0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36, 0x5a, 0xf9,
            0x0b, 0xbf, 0x74, 0xa3, 0x5b, 0xe6, 0xb4, 0x0b, 0x8e, 0xed, 0xf2, 0x78, 0x5e, 0x42,
            0x87, 0x4d,
        ];
        assert_eq!(ct, expected);
    }

    /// `apply` is the reference byte for byte: every length across two
    /// batches and a block (so a batch boundary falls inside the message and
    /// every count of leftover lanes occurs), at counters on both sides of
    /// the `u32` wrap (lane `l` must use `counter.wrapping_add(l)`).
    #[test]
    fn apply_matches_the_reference() {
        let key: [u8; 32] = std::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0x5c);
        let nonce: [u8; 12] = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8];
        let cipher = ChaCha20::new(&key);
        for len in 0..=2 * 64 * LANES + 65 {
            let plain: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
            for counter in [0, 1, u32::MAX - 1, u32::MAX] {
                let mut got = plain.clone();
                cipher.apply(counter, &nonce, &mut got);
                let mut want = plain.clone();
                reference::apply(&key, counter, &nonce, &mut want);
                assert_eq!(got, want, "len {len} counter {counter}");
            }
        }
    }

    /// The lane kernel is only worth having while LLVM vectorises it, and
    /// that is a property of the compiler: time it against the reference on
    /// 16 KiB (interleaved, best of 7 each) so a toolchain that stops is
    /// noticed by `scripts/check.sh`. A timing, so not in the default run.
    #[test]
    #[ignore = "timing: run with --release (scripts/check.sh does)"]
    fn chacha20_lanes_are_vectorised() {
        let key = rfc_key();
        let nonce = [7u8; 12];
        let cipher = ChaCha20::new(&key);
        let mut data = vec![0xA5u8; 16 * 1024];
        let mut best = [u128::MAX; 2];
        for _ in 0..7 {
            for (side, best) in best.iter_mut().enumerate() {
                let start = time::Instant::now(); // lint:allow(wallclock) reason=the test is a timing: it times the kernel against the reference and touches no simulation state
                for _ in 0..64 {
                    let data = std::hint::black_box(&mut data[..]);
                    match side {
                        0 => reference::apply(&key, 1, &nonce, data),
                        _ => cipher.apply(1, &nonce, data),
                    }
                }
                *best = (*best).min(start.elapsed().as_nanos());
            }
        }
        let ratio = best[0] as f64 / best[1] as f64;
        println!(
            "reference {} ns, lanes {} ns per 16 KiB: {ratio:.2}x",
            best[0] / 64,
            best[1] / 64
        );
        assert!(ratio >= 1.3, "lane kernel only {ratio:.2}x the block-at-a-time reference");
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let cipher = ChaCha20::from_shared_secret(0xDEAD_BEEF_1234_5678);
        let nonce = [7u8; 12];
        let msg = b"the private key never leaves the key server".to_vec();
        let ct = cipher.encrypt(0, &nonce, &msg);
        assert_ne!(ct, msg);
        let pt = cipher.encrypt(0, &nonce, &ct); // XOR is its own inverse
        assert_eq!(pt, msg);
    }

    #[test]
    fn different_secrets_different_keystreams() {
        let a = ChaCha20::from_shared_secret(1);
        let b = ChaCha20::from_shared_secret(2);
        let nonce = [0u8; 12];
        assert_ne!(a.block(0, &nonce), b.block(0, &nonce));
    }

    #[test]
    fn multiblock_messages() {
        let cipher = ChaCha20::from_shared_secret(42);
        let nonce = [1u8; 12];
        let msg = vec![0xA5u8; 1000]; // spans 16 blocks
        let ct = cipher.encrypt(5, &nonce, &msg);
        let rt = cipher.encrypt(5, &nonce, &ct);
        assert_eq!(rt, msg);
        // Wrong starting counter fails to decrypt.
        let bad = cipher.encrypt(6, &nonce, &ct);
        assert_ne!(bad, msg);
    }

    #[test]
    fn debug_redacts_key() {
        let c = ChaCha20::from_shared_secret(1);
        assert_eq!(format!("{c:?}"), "ChaCha20 { key: <redacted> }");
    }
}
