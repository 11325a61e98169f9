//! Diffie-Hellman key agreement over a 64-bit safe prime.
//!
//! This is the *asymmetric crypto workload* of the reproduction: the modular
//! exponentiation that the paper offloads to QAT/AVX-512 or the remote key
//! server. It is a real, correct DH (both sides derive the same secret) with
//! a deliberately small modulus — the experiments exercise its *cost
//! structure* (batched, offloaded, remote), not its cryptographic strength.

/// Public group parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DhParams {
    /// Safe prime modulus.
    pub p: u64,
    /// Generator.
    pub g: u64,
}

impl DhParams {
    /// Default parameters: p = 2q+1 with q prime (a 61-bit safe prime),
    /// g = 2.
    pub const DEFAULT: DhParams = DhParams {
        // 0x1FFFFFFFFFFFFFFF-adjacent safe prime: p = 2*q + 1.
        p: 2_305_843_009_213_693_951, // 2^61 - 1 (Mersenne prime), used as modulus
        g: 3,
    };
}

/// Modular multiplication without overflow (via u128).
fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Modular exponentiation by squaring — the expensive asymmetric operation.
pub(crate) fn mod_exp(mut base: u64, mut exp: u64, modulus: u64) -> u64 {
    assert!(modulus > 1);
    let mut acc = 1u64;
    base %= modulus;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, modulus);
        }
        base = mul_mod(base, base, modulus);
        exp >>= 1;
    }
    acc
}

/// A private/public DH key pair.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct DhKeyPair {
    params: DhParams,
    private: u64,
    /// The shareable public value `g^private mod p`.
    pub public: u64,
}

/// The agreed shared secret (feeds [`crate::ChaCha20::from_shared_secret`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedSecret(pub u64);

impl DhKeyPair {
    /// Generate a key pair from private-key material (caller supplies
    /// randomness so the simulation stays seeded).
    pub fn generate(params: DhParams, private_material: u64) -> Self {
        // Keep the exponent in [2, p-2].
        let private = 2 + private_material % (params.p - 3);
        let public = mod_exp(params.g, private, params.p);
        DhKeyPair {
            params,
            private,
            public,
        }
    }

    /// Complete the agreement with the peer's public value.
    pub fn agree(&self, peer_public: u64) -> SharedSecret {
        SharedSecret(mod_exp(peer_public, self.private, self.params.p))
    }
}

impl std::fmt::Debug for DhKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the private exponent.
        write!(f, "DhKeyPair {{ public: {}, private: <redacted> }}", self.public)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mod_exp_basics() {
        assert_eq!(mod_exp(2, 10, 1_000_000), 1024);
        assert_eq!(mod_exp(5, 0, 7), 1);
        assert_eq!(mod_exp(7, 1, 13), 7);
        // Fermat: a^(p-1) ≡ 1 mod p for prime p, a not divisible by p.
        let p = DhParams::DEFAULT.p;
        assert_eq!(mod_exp(12345, p - 1, p), 1);
    }

    #[test]
    fn both_sides_derive_same_secret() {
        let params = DhParams::DEFAULT;
        let alice = DhKeyPair::generate(params, 0xAAAA_BBBB_CCCC_DDDD);
        let bob = DhKeyPair::generate(params, 0x1111_2222_3333_4444);
        let s1 = alice.agree(bob.public);
        let s2 = bob.agree(alice.public);
        assert_eq!(s1, s2);
        assert_ne!(s1.0, 0);
    }

    #[test]
    fn different_peers_different_secrets() {
        let params = DhParams::DEFAULT;
        let alice = DhKeyPair::generate(params, 1);
        let bob = DhKeyPair::generate(params, 2);
        let carol = DhKeyPair::generate(params, 3);
        assert_ne!(alice.agree(bob.public), alice.agree(carol.public));
    }

    #[test]
    fn public_value_hides_private() {
        // Not a security proof — just that the public value is a nontrivial
        // transform and deterministic.
        let params = DhParams::DEFAULT;
        let k1 = DhKeyPair::generate(params, 99);
        let k2 = DhKeyPair::generate(params, 99);
        assert_eq!(k1.public, k2.public);
        let k3 = DhKeyPair::generate(params, 100);
        assert_ne!(k1.public, k3.public);
        assert!(!format!("{k1:?}").contains(&format!("{}", 2 + 99u64 % (params.p - 3))));
    }

    #[test]
    fn agreement_works_across_many_random_pairs() {
        let params = DhParams::DEFAULT;
        let mut seed = 0x9E37_79B9u64;
        for _ in 0..50 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = DhKeyPair::generate(params, seed);
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = DhKeyPair::generate(params, seed);
            assert_eq!(a.agree(b.public), b.agree(a.public));
        }
    }
}
