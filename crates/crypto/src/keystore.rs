//! Encrypted in-memory private-key storage (§4.1.3, "Maintaining the
//! security of the key server is critical").
//!
//! Three properties from the paper:
//!
//! 1. Keys live in **memory only** — nothing here persists, so a physical
//!    theft + restart yields nothing (modeled by the store simply being a
//!    process object).
//! 2. Keys are stored **encrypted** under a master key and decrypted only
//!    transiently inside [`KeyStore::with_key`]; the plaintext never escapes
//!    the closure and is wiped after use.
//! 3. Only **verified requesters** may trigger decryption — enforced by the
//!    key server layer on top (see [`crate::keyserver`]).

use crate::chacha20::ChaCha20;
use canal_net::TenantId;
use std::collections::BTreeMap;

/// Encrypted-at-rest private key storage, keyed by tenant.
pub struct KeyStore {
    master: ChaCha20,
    /// tenant -> (nonce, ciphertext of the 8-byte private key material).
    encrypted: BTreeMap<TenantId, ([u8; 12], Vec<u8>)>,
    nonce_counter: u64,
}

impl KeyStore {
    /// Create a store sealed under master-key material.
    pub fn new(master_key_material: u64) -> Self {
        KeyStore {
            master: ChaCha20::from_shared_secret(master_key_material),
            encrypted: BTreeMap::new(),
            nonce_counter: 0,
        }
    }

    fn next_nonce(&mut self) -> [u8; 12] {
        self.nonce_counter += 1;
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&self.nonce_counter.to_le_bytes());
        n
    }

    /// Store (encrypt) a tenant's private-key material. Overwrites any
    /// previous key for the tenant.
    pub fn store(&mut self, tenant: TenantId, private_material: u64) {
        let nonce = self.next_nonce();
        let ct = self.master.encrypt(0, &nonce, &private_material.to_le_bytes());
        self.encrypted.insert(tenant, (nonce, ct));
    }

    /// Decrypt the tenant's key *transiently* and hand it to `f`. The
    /// plaintext buffer is zeroed before return — the "no intermediate
    /// plaintext private key kept" rule.
    pub fn with_key<R>(&self, tenant: TenantId, f: impl FnOnce(u64) -> R) -> Option<R> {
        let (nonce, ct) = self.encrypted.get(&tenant)?;
        let mut pt = ct.clone();
        self.master.apply(0, nonce, &mut pt);
        let mut material = [0u8; 8];
        material.copy_from_slice(&pt[..8]);
        let result = f(u64::from_le_bytes(material));
        // Wipe transient plaintext.
        pt.iter_mut().for_each(|b| *b = 0);
        material.iter_mut().for_each(|b| *b = 0);
        Some(result)
    }

    /// Raw stored bytes for a tenant — used by tests to prove at-rest
    /// encryption (the ciphertext must not contain the key material).
    pub fn raw_stored_bytes(&self, tenant: TenantId) -> Option<&[u8]> {
        self.encrypted.get(&tenant).map(|(_, ct)| ct.as_slice())
    }
}

impl std::fmt::Debug for KeyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KeyStore {{ tenants: {}, contents: <sealed> }}", self.encrypted.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_use_round_trip() {
        let mut ks = KeyStore::new(0xFEED);
        ks.store(TenantId(1), 0xAABB_CCDD_1122_3344);
        let got = ks.with_key(TenantId(1), |k| k).unwrap();
        assert_eq!(got, 0xAABB_CCDD_1122_3344);
    }

    #[test]
    fn keys_are_encrypted_at_rest() {
        let secret = 0xAABB_CCDD_1122_3344u64;
        let mut ks = KeyStore::new(0xFEED);
        ks.store(TenantId(1), secret);
        let raw = ks.raw_stored_bytes(TenantId(1)).unwrap();
        assert_ne!(raw, secret.to_le_bytes().as_slice());
    }

    #[test]
    fn per_tenant_isolation() {
        let mut ks = KeyStore::new(1);
        ks.store(TenantId(1), 111);
        ks.store(TenantId(2), 222);
        assert_eq!(ks.with_key(TenantId(1), |k| k), Some(111));
        assert_eq!(ks.with_key(TenantId(2), |k| k), Some(222));
        assert_eq!(ks.with_key(TenantId(3), |k| k), None);
        assert_eq!(ks.encrypted.len(), 2);
    }

    #[test]
    fn same_key_different_nonces_distinct_ciphertext() {
        // Storing the same material twice (two tenants) must not yield the
        // same ciphertext (nonce reuse would leak key equality).
        let mut ks = KeyStore::new(1);
        ks.store(TenantId(1), 42);
        ks.store(TenantId(2), 42);
        assert_ne!(
            ks.raw_stored_bytes(TenantId(1)).unwrap(),
            ks.raw_stored_bytes(TenantId(2)).unwrap()
        );
    }

    #[test]
    fn overwrite_replaces_the_key() {
        let mut ks = KeyStore::new(1);
        ks.store(TenantId(1), 1);
        ks.store(TenantId(1), 2);
        assert_eq!(ks.with_key(TenantId(1), |k| k), Some(2));
        assert_eq!(ks.encrypted.len(), 1);
    }

    #[test]
    fn debug_never_prints_contents() {
        let mut ks = KeyStore::new(1);
        ks.store(TenantId(1), 0xDEAD_BEEF);
        let dbg = format!("{ks:?}");
        assert!(dbg.contains("sealed"));
        assert!(!dbg.contains("DEAD"));
    }
}
