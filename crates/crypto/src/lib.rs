//! # canal-crypto
//!
//! The mTLS substrate of the Canal Mesh reproduction (§4.1.3, App. C):
//!
//! * [`chacha20`] — a real RFC 8439 ChaCha20 stream cipher used for all
//!   symmetric ("local") crypto, validated against the RFC test vector.
//! * [`dh`] — Diffie-Hellman key agreement over a 64-bit safe prime. The
//!   modular exponentiation is the *asymmetric workload* whose cost the
//!   accelerators batch; cryptographic strength is not the point of the
//!   reproduction (documented in DESIGN.md).
//! * [`accel`] — the asymmetric-crypto backends: plain software (old CPUs),
//!   the local AVX-512-style batch accelerator with its 8-wide buffer and
//!   1 ms flush timeout (reproducing the Fig. 25 degradation), and the remote
//!   key server call (flat ≈1.7 ms completion, Fig. 23).
//! * [`keystore`] — encrypted in-memory private-key storage: keys are held
//!   encrypted, decrypted transiently per request, never written to disk.
//! * [`keyserver`] — the multi-tenant key server: verified requesters,
//!   pre-established secure channels, shared batching across tenants, and
//!   the keyless mode of Appendix B (user-premises key server).
//! * [`mtls`] — the handshake state machine gluing it together: asymmetric
//!   negotiation through a backend, then ChaCha20 symmetric transport.
//! * [`lifecycle`] — certificate lifecycle: per-tenant CAs issuing certs
//!   with expiry, generation-based rotation and revocation, distributable
//!   trust bundles, and session-ticket resumption (resumed handshakes skip
//!   the asymmetric step entirely).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

#![warn(missing_docs)]

pub mod accel;
pub mod chacha20;
pub mod dh;
pub mod keyserver;
pub mod keystore;
pub mod lifecycle;
pub mod mtls;

pub use chacha20::ChaCha20;
pub use dh::SharedSecret;
pub use lifecycle::{TenantCa, TicketCache};
