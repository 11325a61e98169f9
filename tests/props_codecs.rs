//! Randomized (property-style) tests over the byte codecs and crypto:
//! whatever the inputs, round trips are lossless, corruption is detected,
//! and cryptographic agreements match. Cases are generated from a seeded
//! [`SimRng`] so every run explores the same reproducible inputs.

use bytes::Bytes;
use canal::crypto::chacha20::ChaCha20;
use canal::crypto::dh::{DhKeyPair, DhParams};
use canal::crypto::keystore::KeyStore;
use canal::http::{HeaderMap, Method, Request, RequestParser, Response, ResponseParser, StatusCode};
use canal::net::vxlan::{VxlanError, VxlanFrame, VXLAN_OVERHEAD};
use canal::net::TenantId;
use canal::sim::SimRng;

const CASES: usize = 128;

fn random_bytes(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
    let n = rng.index(max_len.max(1));
    (0..n).map(|_| rng.int_range(0, 256) as u8).collect()
}

fn random_string(rng: &mut SimRng, alphabet: &[u8], min_len: usize, max_len: usize) -> String {
    let n = min_len + rng.index(max_len - min_len + 1);
    (0..n)
        .map(|_| alphabet[rng.index(alphabet.len())] as char)
        .collect()
}

const HEADER_NAME_FIRST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
const HEADER_NAME_REST: &[u8] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-";
const PATH_CHARS: &[u8] =
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/_.-";

fn header_name(rng: &mut SimRng) -> String {
    let mut s = random_string(rng, HEADER_NAME_FIRST, 1, 1);
    s.push_str(&random_string(rng, HEADER_NAME_REST, 0, 20));
    s
}

fn header_value(rng: &mut SimRng) -> String {
    // Printable ASCII without CR/LF.
    let n = rng.index(41);
    (0..n)
        .map(|_| (0x20 + rng.index(0x7F - 0x20)) as u8 as char)
        .collect()
}

/// VXLAN encode/decode is the identity for any VNI/ports/payload.
#[test]
fn vxlan_round_trip() {
    let mut rng = SimRng::seed(0x0DEC_0001);
    for _ in 0..CASES {
        let src = rng.u64() as u32;
        let dst = rng.u64() as u32;
        let sport = rng.u64() as u16;
        let vni = rng.int_range(0, 0x0100_0000) as u32;
        let payload = random_bytes(&mut rng, 1400);
        let frame = VxlanFrame::new(src, dst, sport, vni, payload.clone());
        let wire = frame.encode();
        assert_eq!(wire.len(), VXLAN_OVERHEAD + payload.len());
        let back = VxlanFrame::decode(wire).unwrap();
        assert_eq!(back, frame);
    }
}

/// Any single flipped byte in the IP header region is rejected (the
/// checksum covers the whole outer IP header).
#[test]
fn vxlan_header_corruption_detected() {
    let mut rng = SimRng::seed(0x0DEC_0002);
    for _ in 0..CASES {
        let mut payload = random_bytes(&mut rng, 255);
        payload.push(rng.int_range(0, 256) as u8); // 1..256 bytes
        let corrupt_at = rng.index(20);
        let xor = rng.int_range(1, 256) as u8;
        let frame = VxlanFrame::new(1, 2, 3, 42, payload);
        let mut wire = frame.encode().to_vec();
        wire[corrupt_at] ^= xor;
        let result = VxlanFrame::decode(Bytes::from(wire));
        assert!(result.is_err(), "corruption at {corrupt_at} accepted");
        // Specifically, never mis-decoded into a *different valid* frame.
        if let Err(e) = result {
            assert!(matches!(
                e,
                VxlanError::BadChecksum
                    | VxlanError::BadIpHeader
                    | VxlanError::LengthMismatch
                    | VxlanError::NotVxlan
                    | VxlanError::Truncated
            ));
        }
    }
}

/// HTTP requests round-trip through encode → incremental parse for any
/// method/path/headers/body, even fed one byte at a time.
#[test]
fn http_request_round_trip() {
    let methods = [
        Method::Get,
        Method::Post,
        Method::Put,
        Method::Delete,
        Method::Head,
        Method::Options,
        Method::Patch,
    ];
    let mut rng = SimRng::seed(0x0DEC_0003);
    for _ in 0..CASES {
        let method = methods[rng.index(methods.len())];
        let path_suffix = random_string(&mut rng, PATH_CHARS, 0, 30);
        let raw_headers: Vec<(String, String)> = (0..rng.index(5))
            .map(|_| (header_name(&mut rng), header_value(&mut rng)))
            .collect();
        let body = random_bytes(&mut rng, 512);
        let chunked_feed = rng.chance(0.5);

        let mut req = Request {
            method,
            path: format!("/{path_suffix}"),
            headers: HeaderMap::new(),
            body: Bytes::from(body.clone()),
        };
        // Deduplicate names (duplicate headers are order-preserved by the
        // map, but `get` returns the first — keep the oracle simple) and
        // avoid clashing with the serializer's Content-Length.
        let mut used = std::collections::BTreeSet::new();
        let headers: Vec<(String, String)> = raw_headers
            .into_iter()
            .filter(|(n, _)| {
                !n.eq_ignore_ascii_case("content-length")
                    && !n.eq_ignore_ascii_case("transfer-encoding")
                    && used.insert(n.to_ascii_lowercase())
            })
            .collect();
        for (n, v) in &headers {
            req.headers.insert(n, v.trim());
        }
        let wire = req.encode();
        let mut parser = RequestParser::new();
        let parsed = if chunked_feed {
            let mut got = None;
            for b in wire.iter() {
                if let Some(r) = parser.feed(&[*b]).unwrap() {
                    got = Some(r);
                }
            }
            got.expect("completes on final byte")
        } else {
            parser.feed(&wire).unwrap().expect("complete message")
        };
        assert_eq!(parsed.method, req.method);
        assert_eq!(&parsed.path, &req.path);
        assert_eq!(parsed.body.as_ref(), body.as_slice());
        for (n, v) in &headers {
            assert_eq!(parsed.headers.get(n), Some(v.trim()));
        }
    }
}

/// HTTP responses round-trip for any status code and body.
#[test]
fn http_response_round_trip() {
    let mut rng = SimRng::seed(0x0DEC_0004);
    for _ in 0..CASES {
        let code = rng.int_range(100, 600) as u16;
        let body = random_bytes(&mut rng, 512);
        let resp = Response::new(StatusCode(code), body.clone());
        let parsed = ResponseParser::new().feed(&resp.encode()).unwrap().unwrap();
        assert_eq!(parsed.status, StatusCode(code));
        assert_eq!(parsed.body.as_ref(), body.as_slice());
    }
}

/// ChaCha20 apply is an involution for any key/nonce/counter/message.
#[test]
fn chacha20_involution() {
    let mut rng = SimRng::seed(0x0DEC_0005);
    for _ in 0..CASES {
        let secret = rng.u64();
        let counter = rng.u64() as u32;
        let mut nonce = [0u8; 12];
        for b in &mut nonce {
            *b = rng.int_range(0, 256) as u8;
        }
        let msg = random_bytes(&mut rng, 2048);
        let cipher = ChaCha20::from_shared_secret(secret);
        let ct = cipher.encrypt(counter, &nonce, &msg);
        let pt = cipher.encrypt(counter, &nonce, &ct);
        assert_eq!(pt, msg.clone());
        if !msg.is_empty() {
            assert_ne!(ct, msg, "keystream must not be null");
        }
    }
}

/// RFC 8439 §2.3 a block at a time, written out here from the RFC: the
/// oracle for [`chacha20_matches_the_rfc_block_function`].
fn rfc8439_apply(key: &[u8; 32], initial_counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
    fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }
    let word = |bytes: &[u8]| u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    for (block_idx, chunk) in data.chunks_mut(64).enumerate() {
        let mut initial = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        for (i, bytes) in key.chunks_exact(4).enumerate() {
            initial[4 + i] = word(bytes);
        }
        initial[12] = initial_counter.wrapping_add(block_idx as u32);
        for (i, bytes) in nonce.chunks_exact(4).enumerate() {
            initial[13 + i] = word(bytes);
        }
        let mut s = initial;
        for _ in 0..10 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        let keystream = (0..16).flat_map(|i| s[i].wrapping_add(initial[i]).to_le_bytes());
        for (b, k) in chunk.iter_mut().zip(keystream) {
            *b ^= k;
        }
    }
}

/// ChaCha20 apply (keystream blocks computed side by side) is the RFC's
/// block function applied a block at a time, byte for byte, for any
/// key/nonce/counter and any length up to 64 KiB.
#[test]
fn chacha20_matches_the_rfc_block_function() {
    let mut rng = SimRng::seed(0x0DEC_0008);
    for case in 0..CASES {
        let mut key = [0u8; 32];
        for b in &mut key {
            *b = rng.int_range(0, 256) as u8;
        }
        let mut nonce = [0u8; 12];
        for b in &mut nonce {
            *b = rng.int_range(0, 256) as u8;
        }
        // One case in eight starts within a batch of the counter's wrap.
        let counter = match case % 8 {
            0 => u32::MAX - rng.index(16) as u32,
            _ => rng.u64() as u32,
        };
        let msg = random_bytes(&mut rng, 64 * 1024 + 1);
        let mut want = msg.clone();
        rfc8439_apply(&key, counter, &nonce, &mut want);
        assert_eq!(ChaCha20::new(&key).encrypt(counter, &nonce, &msg), want, "case {case}");
    }
}

/// DH agreement commutes for any private materials.
#[test]
fn dh_always_agrees() {
    let mut rng = SimRng::seed(0x0DEC_0006);
    for _ in 0..CASES {
        let (a, b) = (rng.u64(), rng.u64());
        let params = DhParams::DEFAULT;
        let alice = DhKeyPair::generate(params, a);
        let bob = DhKeyPair::generate(params, b);
        assert_eq!(alice.agree(bob.public), bob.agree(alice.public));
    }
}

/// The key store returns exactly what was stored, for any tenants and
/// key material, and never exposes plaintext at rest.
#[test]
fn keystore_round_trip() {
    let mut rng = SimRng::seed(0x0DEC_0007);
    for _ in 0..CASES {
        let master = rng.u64();
        let entries: std::collections::BTreeMap<u32, u64> = (0..1 + rng.index(7))
            .map(|_| (rng.u64() as u32, rng.u64()))
            .collect();
        let mut ks = KeyStore::new(master);
        for (&t, &k) in &entries {
            ks.store(TenantId(t), k);
        }
        for (&t, &k) in &entries {
            assert_eq!(ks.with_key(TenantId(t), |got| got), Some(k));
            let raw = ks.raw_stored_bytes(TenantId(t)).unwrap();
            // At-rest bytes never equal the plaintext key material.
            let plain = k.to_le_bytes();
            assert_ne!(raw, plain.as_slice());
        }
    }
}
