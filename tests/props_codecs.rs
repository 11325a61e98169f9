//! Randomized (property-style) tests over the byte codecs and crypto:
//! whatever the inputs, round trips are lossless, corruption is detected,
//! and cryptographic agreements match. Cases are generated from a seeded
//! [`SimRng`] so every run explores the same reproducible inputs.

use bytes::Bytes;
use canal::crypto::chacha20::ChaCha20;
use canal::crypto::dh::{DhKeyPair, DhParams};
use canal::crypto::keystore::KeyStore;
use canal::http::{Method, ParseError, Request, RequestParser, Response, ResponseParser, StatusCode};
use canal::net::vxlan::{VxlanError, VxlanFrame, VXLAN_OVERHEAD};
use canal::net::TenantId;
use canal::sim::faults::ScriptError;
use canal::sim::{FaultEvent, FaultKind, FaultPlan, FaultTarget, Fold, SimDuration, SimRng, SimTime};

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

/// Payload lengths the golden frames cover: empty, one byte, either side
/// of the 36-byte header size, a cache line, an MTU-sized packet and a
/// 16 KiB body.
const GOLDEN_PAYLOAD_LENS: [usize; 7] = [0, 1, 35, 36, 64, 1400, 16 * 1024];

/// Fold of the encoded bytes of [`golden_frames`], captured from the
/// encoder as it stood before the header was built on the stack.
const VXLAN_GOLDEN: u64 = 0xf828_c685_5f54_bd42;

/// Seeded frames, eight per payload length, with random endpoints, ports
/// and VNIs (including bits above the 24 the header keeps).
fn golden_frames() -> Vec<VxlanFrame> {
    let mut rng = SimRng::seed(0x0DEC_000A);
    let mut frames = Vec::new();
    for len in GOLDEN_PAYLOAD_LENS {
        for _ in 0..8 {
            let (src, dst, sport, vni) = (rng.u64() as u32, rng.u64() as u32, rng.u64() as u16, rng.u64() as u32);
            let payload: Vec<u8> = (0..len).map(|_| rng.u64() as u8).collect();
            frames.push(VxlanFrame::new(src, dst, sport, vni, payload));
        }
    }
    frames
}

/// The encoder's bytes, not only what decoding them gives back: an encoder
/// that changed the wire format in step with the decoder would pass
/// [`vxlan_round_trip`] and fails here.
#[test]
fn vxlan_encodes_the_golden_bytes() {
    let mut d = canal::sim::invariant::Digest::new();
    for frame in golden_frames() {
        let wire = frame.encode();
        assert_eq!(wire.len(), VXLAN_OVERHEAD + frame.inner.len());
        d.write_u64(wire.len() as u64).write_bytes(&wire);
    }
    assert_eq!(d.value(), VXLAN_GOLDEN, "VXLAN wire bytes changed: {:#018x}", d.value());
}

// --- Decode fuzzing of the VXLAN codec ----------------------------------
//
// Every case builds one valid frame (any endpoints, port and VNI; mostly
// short payloads) and feeds the decoder the frame, a truncation of it, the
// frame with one of its header bytes flipped, the frame with several
// header bytes overwritten, and a random byte string. None may panic; a
// refusal is a `VxlanError`, and a frame the decoder accepts must encode
// back to exactly the bytes it was decoded from.

/// Cases the tier-1 run checks; [`vxlan_fuzz_deep_sweep`] runs more.
const VXLAN_FUZZ_CASES: usize = 100_000;

/// Decode `wire`, holding an accepted frame to re-encoding as `wire`.
fn decode_checked(wire: &[u8]) -> Result<VxlanFrame, VxlanError> {
    let frame = VxlanFrame::decode(Bytes::copy_from_slice(wire))?;
    assert_eq!(&*frame.encode(), wire, "accepted {frame:?} encodes to other bytes");
    Ok(frame)
}

/// A valid frame's bytes.
fn fuzz_frame(rng: &mut SimRng) -> Vec<u8> {
    let len = match rng.index(8) {
        0 => 0,
        1..=5 => rng.index(65),
        _ => rng.index(1501),
    };
    let payload: Vec<u8> = (0..len).map(|_| rng.u64() as u8).collect();
    let (src, dst, sport, vni) = (rng.u64() as u32, rng.u64() as u32, rng.u64() as u16, rng.u64() as u32);
    VxlanFrame::new(src, dst, sport, vni, payload).encode().to_vec()
}

/// Header bytes the decoder keeps without a check that covers them: the
/// outer UDP source port and the VNI. Flipping any other header byte of a
/// valid frame must be refused.
fn flip_is_accepted(at: usize) -> bool {
    matches!(at, 20 | 21 | 32..=34)
}

/// Every single-byte flip of the header of `wire`, a valid frame.
fn every_header_flip(wire: &[u8]) {
    for at in 0..VXLAN_OVERHEAD {
        for xor in 1..=255u8 {
            let mut m = wire.to_vec();
            m[at] ^= xor;
            let got = decode_checked(&m);
            assert_eq!(got.is_ok(), flip_is_accepted(at), "byte {at} ^ {xor:#04x}: {got:?}");
        }
    }
}

fn fuzz_vxlan(cases: usize, seed: u64) {
    let mut rng = SimRng::seed(seed);
    for case in 0..cases {
        let wire = fuzz_frame(&mut rng);
        assert!(decode_checked(&wire).is_ok(), "case {case}: a valid frame refused");

        // Truncation: inside the header at every length in turn, then
        // inside the payload.
        let cut = case % VXLAN_OVERHEAD;
        assert_eq!(decode_checked(&wire[..cut]).err(), Some(VxlanError::Truncated), "case {case}, cut {cut}");
        if wire.len() > VXLAN_OVERHEAD {
            let cut = VXLAN_OVERHEAD + rng.index(wire.len() - VXLAN_OVERHEAD);
            assert_eq!(decode_checked(&wire[..cut]).err(), Some(VxlanError::LengthMismatch), "case {case}, cut {cut}");
        }

        // One header byte flipped.
        let at = rng.index(VXLAN_OVERHEAD);
        let mut m = wire.clone();
        m[at] ^= rng.int_range(1, 256) as u8;
        let got = decode_checked(&m);
        assert_eq!(got.is_ok(), flip_is_accepted(at), "case {case}, byte {at}: {got:?}");

        // Several header bytes overwritten.
        let mut m = wire.clone();
        for _ in 0..1 + rng.index(4) {
            m[rng.index(VXLAN_OVERHEAD)] = rng.u64() as u8;
        }
        let _ = decode_checked(&m);

        // A random byte string.
        let noise: Vec<u8> = (0..rng.index(2 * VXLAN_OVERHEAD + 1)).map(|_| rng.u64() as u8).collect();
        if let Err(e) = decode_checked(&noise) {
            assert_ne!(e, VxlanError::UnknownVni, "decode does not consult a vSwitch");
        }
    }
}

#[test]
fn vxlan_fuzz_decoder() {
    for len in [0, 1, 64, 1400] {
        every_header_flip(&VxlanFrame::new(0x0A00_0001, 0x0A63_0001, 41000, 0x12_3456, vec![0xA5; len]).encode());
    }
    fuzz_vxlan(VXLAN_FUZZ_CASES, 0x0DEC_000B);
}

/// Ten times the tier-1 run on other seeds; `scripts/check.sh` runs it in
/// release.
#[test]
#[ignore = "deep sweep, run by scripts/check.sh in release"]
fn vxlan_fuzz_deep_sweep() {
    for seed in 0..10 {
        fuzz_vxlan(VXLAN_FUZZ_CASES, 0x0DEC_2000 + seed);
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

        let mut req = Request::post(&format!("/{path_suffix}"), body.clone());
        req.method = method;
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
            req = req.with_header(n, v.trim());
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
        assert_eq!(&*parsed.path, &*req.path);
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

// --- Structure-aware fuzzing of the HTTP/1.1 parsers ---------------------
//
// Every case generates one well-formed message (any method, a path with or
// without a query, 0-6 headers with case variants and duplicates, a body of
// 0-2 KiB) and checks that
// * encode-then-parse gives back exactly what was built;
// * feeding the bytes in two pieces at any split point (every split point
//   for a sample, one byte at a time for a smaller one) gives exactly what
//   one feed gives, and a pipelined pair comes out in order;
// * a mutant of it (byte flips, truncation, an inserted CR / LF / `:` /
//   space / NUL, a tampered `Content-Length`) never panics, and split feeds
//   of the mutant agree with one feed of it.

/// Cases the tier-1 run checks; [`http_fuzz_deep_sweep`] runs more.
const FUZZ_CASES: usize = 100_000;
/// One case in this many is fed at every split point.
const EVERY_SPLIT: usize = 64;
/// One case in this many is fed one byte at a time.
const BYTEWISE: usize = 256;

const METHODS: [Method; 7] = [
    Method::Get,
    Method::Post,
    Method::Put,
    Method::Delete,
    Method::Head,
    Method::Options,
    Method::Patch,
];

/// Header names with several spellings of the same name, so that a message
/// carries duplicates, some of them in different case.
const FUZZ_NAMES: &[&str] = &[
    "Host", "host", "HOST", "X-Request-Id", "x-request-id", "Cookie", "cookie", "Accept", "X-Env", "A",
];

/// A request as the parser reports it: method, target, headers in order,
/// body.
type RequestView = (Method, String, Vec<(String, String)>, Vec<u8>);
/// A response as the parser reports it: status, headers in order, body.
type ResponseView = (StatusCode, Vec<(String, String)>, Vec<u8>);

fn owned_headers<'a>(headers: impl Iterator<Item = (&'a str, &'a str)>) -> Vec<(String, String)> {
    headers.map(|(n, v)| (n.to_string(), v.to_string())).collect()
}

fn request_view(r: &Request) -> RequestView {
    (r.method, r.path.to_string(), owned_headers(r.headers.iter()), r.body.to_vec())
}

fn response_view(r: &Response) -> ResponseView {
    (r.status, owned_headers(r.headers.iter()), r.body.to_vec())
}

/// Everything one request parser makes of `pieces` fed in order: each
/// request it yields (asking again with `try_parse` until it has nothing
/// more), then the error that stopped it, if any.
fn drain_requests(pieces: &[&[u8]]) -> (Vec<RequestView>, Option<ParseError>) {
    let mut parser = RequestParser::new();
    let mut out = Vec::new();
    for piece in pieces {
        let mut next = parser.feed(piece);
        loop {
            match next {
                Ok(Some(req)) => out.push(request_view(&req)),
                Ok(None) => break,
                Err(e) => return (out, Some(e)),
            }
            next = parser.try_parse();
        }
    }
    (out, None)
}

/// [`drain_requests`] for responses; an empty feed asks again.
fn drain_responses(pieces: &[&[u8]]) -> (Vec<ResponseView>, Option<ParseError>) {
    let mut parser = ResponseParser::new();
    let mut out = Vec::new();
    for piece in pieces {
        let mut next = parser.feed(piece);
        loop {
            match next {
                Ok(Some(resp)) => out.push(response_view(&resp)),
                Ok(None) => break,
                Err(e) => return (out, Some(e)),
            }
            next = parser.feed(&[]);
        }
    }
    (out, None)
}

fn fuzz_headers(rng: &mut SimRng) -> Vec<(String, String)> {
    (0..rng.index(7))
        .map(|_| {
            let name = match rng.chance(0.8) {
                true => FUZZ_NAMES[rng.index(FUZZ_NAMES.len())].to_string(),
                false => header_name(rng),
            };
            (name, header_value(rng).trim().to_string())
        })
        .filter(|(n, _)| {
            !n.eq_ignore_ascii_case("content-length") && !n.eq_ignore_ascii_case("transfer-encoding")
        })
        .collect()
}

fn fuzz_body(rng: &mut SimRng) -> Vec<u8> {
    let len = match rng.index(4) {
        0 => 0,
        1 => rng.index(64),
        2 => rng.index(512),
        _ => rng.index(2049),
    };
    (0..len).map(|_| rng.u64() as u8).collect()
}

/// A well-formed request and what parsing its bytes must give.
fn fuzz_request(rng: &mut SimRng) -> (Vec<u8>, RequestView) {
    let method = METHODS[rng.index(METHODS.len())];
    let mut path = format!("/{}", random_string(rng, PATH_CHARS, 0, 30));
    if rng.chance(0.4) {
        path.push('?');
        path.push_str(&random_string(rng, b"abcxyz019=&/%.-", 0, 20));
    }
    let headers = fuzz_headers(rng);
    let body = fuzz_body(rng);
    let mut req = Request::post(&path, body.clone());
    req.method = method;
    for (n, v) in &headers {
        req = req.with_header(n, v);
    }
    let mut want_headers = headers;
    if !body.is_empty() || matches!(method, Method::Post | Method::Put | Method::Patch) {
        want_headers.push(("Content-Length".to_string(), body.len().to_string()));
    }
    (req.encode().to_vec(), (method, path, want_headers, body))
}

/// A well-formed response and what parsing its bytes must give.
fn fuzz_response(rng: &mut SimRng) -> (Vec<u8>, ResponseView) {
    let status = StatusCode(rng.int_range(100, 600) as u16);
    let headers = fuzz_headers(rng);
    let body = fuzz_body(rng);
    let mut resp = Response::new(status, body.clone());
    for (n, v) in &headers {
        resp = resp.with_header(n, v);
    }
    let mut want_headers = headers;
    want_headers.push(("Content-Length".to_string(), body.len().to_string()));
    (resp.encode().to_vec(), (status, want_headers, body))
}

/// Byte offset just past the header section's blank line, or the length.
fn head_len(wire: &[u8]) -> usize {
    wire.windows(4).position(|w| w == b"\r\n\r\n").map_or(wire.len(), |p| p + 4)
}

/// Rewrite the message's `Content-Length` (adding one where it has none):
/// a sign, a list, leading zeros, trailing junk, no digits, a larger or
/// smaller value, a second field with the same or another value, a value
/// no buffer can reach, or a chunked `Transfer-Encoding` beside it. Returns
/// the error a parser must refuse the result with, where RFC 9112 §6.3
/// leaves it no choice.
fn tamper_content_length(rng: &mut SimRng, m: &mut Vec<u8>) -> Option<ParseError> {
    let line_start = match m.windows(16).position(|w| w.eq_ignore_ascii_case(b"content-length: ")) {
        Some(p) => p,
        None => {
            // After the start line: a field the message did not have.
            let at = m.windows(2).position(|w| w == b"\r\n").map_or(m.len(), |p| p + 2);
            m.splice(at..at, format!("Content-Length: {}\r\n", rng.index(100)).into_bytes());
            at
        }
    };
    let value_start = line_start + 16;
    let value_end = m[value_start..].windows(2).position(|w| w == b"\r\n").map_or(m.len(), |p| value_start + p);
    let n: u64 = std::str::from_utf8(&m[value_start..value_end]).ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    let bad = Some(ParseError::BadContentLength);
    let (value, refusal) = match rng.index(11) {
        0 => (format!("+{n}"), bad),
        1 => (format!("-{n}"), bad),
        2 => (format!("{n}, {n}"), bad),
        3 => (format!("0{n}"), None),
        4 => (format!("{n}x"), bad),
        5 => (String::new(), bad),
        6 => ((n + 1 + rng.int_range(0, 10)).to_string(), None),
        7 => (n.saturating_sub(1 + rng.int_range(0, 10)).to_string(), None),
        8 => {
            let other = if rng.chance(0.5) { n } else { n + 1 + rng.int_range(0, 10) };
            m.splice(line_start..line_start, format!("Content-Length: {other}\r\n").into_bytes());
            return if other == n { None } else { bad };
        }
        9 => (u64::MAX.to_string(), bad),
        _ => {
            m.splice(line_start..line_start, b"Transfer-Encoding: chunked\r\n".iter().copied());
            return Some(ParseError::ChunkedUnsupported);
        }
    };
    m.splice(value_start..value_end, value.into_bytes());
    refusal
}

/// A mutant of `wire`, and the error it must be refused with if its
/// mutation leaves the parser no choice.
fn mutate(rng: &mut SimRng, wire: &[u8]) -> (Vec<u8>, Option<ParseError>) {
    let mut m = wire.to_vec();
    let mut refusal = None;
    // Three mutations in four land in the header section.
    let span = if rng.chance(0.75) { head_len(&m) } else { m.len() };
    match rng.index(4) {
        0 => {
            for _ in 0..1 + rng.index(3) {
                let at = rng.index(span.max(1)).min(m.len().saturating_sub(1));
                if let Some(b) = m.get_mut(at) {
                    *b ^= rng.int_range(1, 256) as u8;
                }
            }
        }
        1 => m.truncate(rng.index(m.len() + 1)),
        2 => {
            let insert: &[u8] = [&b"\r"[..], b"\n", b":", b" ", b"\0", b"\r\n"][rng.index(6)];
            let at = rng.index(span + 1);
            m.splice(at..at, insert.iter().copied());
        }
        _ => refusal = tamper_content_length(rng, &mut m),
    }
    (m, refusal)
}

/// `case`'s split points: every one for a sample, else one at random.
fn cuts(rng: &mut SimRng, case: usize, len: usize) -> Vec<usize> {
    match case % EVERY_SPLIT {
        0 => (0..=len).collect(),
        _ => vec![rng.index(len + 1)],
    }
}

fn fuzz_http(cases: usize, seed: u64) {
    let mut rng = SimRng::seed(seed);
    let mut previous: Option<(Vec<u8>, RequestView)> = None;
    for case in 0..cases {
        if rng.chance(0.25) {
            let (wire, want) = fuzz_response(&mut rng);
            let whole = drain_responses(&[&wire]);
            assert_eq!(whole, (vec![want], None), "case {case}: {:?}", String::from_utf8_lossy(&wire));
            for cut in cuts(&mut rng, case, wire.len()) {
                assert_eq!(drain_responses(&[&wire[..cut], &wire[cut..]]), whole, "case {case}, cut {cut}");
            }
            let (mutant, refusal) = mutate(&mut rng, &wire);
            let got = drain_responses(&[&mutant]);
            if let Some(e) = refusal {
                assert_eq!(got, (vec![], Some(e)), "case {case}: {:?}", String::from_utf8_lossy(&mutant));
            }
            let cut = rng.index(mutant.len() + 1);
            assert_eq!(
                drain_responses(&[&mutant[..cut], &mutant[cut..]]),
                got,
                "case {case}, cut {cut}: {:?}",
                String::from_utf8_lossy(&mutant)
            );
            continue;
        }
        let (wire, want) = fuzz_request(&mut rng);
        let whole = drain_requests(&[&wire]);
        assert_eq!(whole, (vec![want.clone()], None), "case {case}: {:?}", String::from_utf8_lossy(&wire));
        for cut in cuts(&mut rng, case, wire.len()) {
            assert_eq!(drain_requests(&[&wire[..cut], &wire[cut..]]), whole, "case {case}, cut {cut}");
        }
        if case % BYTEWISE == 1 {
            let bytes: Vec<&[u8]> = wire.chunks(1).collect();
            assert_eq!(drain_requests(&bytes), whole, "case {case}, one byte at a time");
        }
        if let Some((first, first_want)) = previous.take() {
            let pair = [first, wire.clone()].concat();
            let cut = rng.index(pair.len() + 1);
            assert_eq!(
                drain_requests(&[&pair[..cut], &pair[cut..]]),
                (vec![first_want, want.clone()], None),
                "case {case}, pipelined, cut {cut}"
            );
        }
        let (mutant, refusal) = mutate(&mut rng, &wire);
        let got = drain_requests(&[&mutant]);
        if let Some(e) = refusal {
            assert_eq!(got, (vec![], Some(e)), "case {case}: {:?}", String::from_utf8_lossy(&mutant));
        }
        let cut = rng.index(mutant.len() + 1);
        assert_eq!(
            drain_requests(&[&mutant[..cut], &mutant[cut..]]),
            got,
            "case {case}, cut {cut}: {:?}",
            String::from_utf8_lossy(&mutant)
        );
        previous = Some((wire, want));
    }
}

#[test]
fn http_fuzz_parsers() {
    fuzz_http(FUZZ_CASES, 0x0DEC_0009);
}

/// Ten times the tier-1 run on other seeds; `scripts/check.sh` runs it in
/// release.
#[test]
#[ignore = "deep sweep, run by scripts/check.sh in release"]
fn http_fuzz_deep_sweep() {
    for seed in 0..10 {
        fuzz_http(FUZZ_CASES, 0x0DEC_1000 + seed);
    }
}

// The fault DSL (`FaultPlan::parse`), generated from its class table:
// scripts of valid lines whose events are known, rendered with any
// whitespace, comments, blank lines and line endings; then one line
// truncated at every word, given a word its slot must refuse, or given a
// random word; and random byte strings. No input may panic, a refusal names
// a line of the script (the broken one, where only one is), and respacing
// or recommenting an accepted script leaves its events as they were.

/// Cases the tier-1 run checks; [`fault_dsl_fuzz_deep_sweep`] runs more.
const DSL_FUZZ_CASES: usize = 100_000;

/// How a class's operand is written.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    None,
    Id,
    Pair(char),
}

/// One row of the DSL's target table (README.md): token, operand, the keys
/// `degrade` takes, and the target a pair of operands names.
type DslClass = (&'static str, Shape, &'static [&'static str], fn(u32, u32) -> FaultTarget);

const EXTRA: &[&str] = &["extra"];
const LOSS_EXTRA: &[&str] = &["loss", "extra"];

static DSL_CLASSES: [DslClass; 16] = [
    ("replica", Shape::Pair('/'), &[], |b, i| FaultTarget::Replica { backend: b, index: i as usize }),
    ("backend", Shape::Id, &[], |id, _| FaultTarget::Backend(id)),
    ("az", Shape::Id, &[], |id, _| FaultTarget::Az(id)),
    ("config-push", Shape::None, EXTRA, |_, _| FaultTarget::ConfigPush),
    ("config-poison", Shape::None, &[], |_, _| FaultTarget::ConfigPoison),
    ("policy-poison", Shape::None, &[], |_, _| FaultTarget::PolicyPoison),
    ("key-server", Shape::None, EXTRA, |_, _| FaultTarget::KeyServer),
    ("cert-expiry-skew", Shape::None, EXTRA, |_, _| FaultTarget::CertExpirySkew),
    ("ca-compromise-revoke", Shape::Id, &[], |t, _| FaultTarget::CaCompromiseRevoke(t)),
    ("az-mass-restart", Shape::Id, &[], |az, _| FaultTarget::AzMassRestart(az)),
    ("link", Shape::Pair('-'), LOSS_EXTRA, |a, b| FaultTarget::Link { a, b }),
    ("link-directed", Shape::Pair('>'), LOSS_EXTRA, |from, to| FaultTarget::LinkDirected { from, to }),
    ("gray", Shape::Id, LOSS_EXTRA, |g, _| FaultTarget::GrayDegrade(g)),
    ("control-partition", Shape::Id, &[], |g, _| FaultTarget::ControlPartition(g)),
    ("control-crash", Shape::None, &[], |_, _| FaultTarget::ControlCrash),
    ("control-zombie", Shape::None, &[], |_, _| FaultTarget::ControlZombie),
];

const DURATION_SUFFIXES: [(&str, u64); 4] = [("ns", 1), ("us", 1_000), ("ms", 1_000_000), ("s", 1_000_000_000)];

/// A duration word and its nanoseconds: an integer, a decimal with up to
/// three places or a mantissa and exponent, each under 2^53 ns so that the
/// parser's `f64` arithmetic is exact after rounding.
fn dsl_duration(rng: &mut SimRng) -> (String, u64) {
    let (suffix, unit) = DURATION_SUFFIXES[rng.index(DURATION_SUFFIXES.len())];
    let scale = [1, 10, 1_000, 1_000_000][rng.index(4)];
    let whole = rng.index(scale) as u64;
    match rng.index(4) {
        0 if unit >= 1_000 => {
            let milli = rng.index(1_000) as u64;
            (format!("{whole}.{milli:03}{suffix}"), whole * unit + milli * (unit / 1_000))
        }
        1 => {
            let (m, e) = (rng.index(1_000) as u64, rng.index(4) as u32);
            (format!("{m}e{e}{suffix}"), m * 10u64.pow(e) * unit)
        }
        _ => (format!("{whole}{suffix}"), whole * unit),
    }
}

/// A loss word and its value, in thousandths: a whole or one-place percent,
/// or a fraction.
fn dsl_loss(rng: &mut SimRng) -> (String, f64) {
    let k = rng.index(1_001);
    match rng.index(3) {
        0 => (format!("{}%", k / 10), (k / 10) as f64 / 100.0),
        1 => (format!("{}.{}%", k / 10, k % 10), k as f64 / 10.0 / 100.0),
        _ if k == 1_000 => ("1".to_string(), 1.0),
        _ => (format!("0.{k:03}"), k as f64 / 1_000.0),
    }
}

/// An operand word and its value: small, near `u32::MAX` or anywhere, some
/// written with leading zeros or a `+`.
fn dsl_id(rng: &mut SimRng) -> (String, u32) {
    let v = match rng.index(3) {
        0 => rng.index(4) as u32,
        1 => u32::MAX - rng.index(2) as u32,
        _ => rng.u64() as u32,
    };
    let word = match rng.index(6) {
        0 => format!("00{v}"),
        1 => format!("+{v}"),
        _ => v.to_string(),
    };
    (word, v)
}

/// Which grammar slot a word fills, for the words a slot must refuse.
#[derive(Clone, Copy)]
enum Slot {
    At,
    Time,
    Action,
    Target,
    Id,
    Pair(char),
    Key,
    Loss,
}

/// A valid line: its class's row, its action, its words with the slot of
/// each, the events it schedules, and the fewest words a line of its class
/// and action can have.
struct DslLine {
    class: usize,
    action: &'static str,
    words: Vec<String>,
    slots: Vec<Slot>,
    events: Vec<FaultEvent>,
    min_words: usize,
}

impl DslLine {
    fn push(&mut self, word: String, slot: Slot) {
        self.words.push(word);
        self.slots.push(slot);
    }
}

fn dsl_line(rng: &mut SimRng) -> DslLine {
    let class = rng.index(DSL_CLASSES.len());
    let (token, shape, keys, make) = DSL_CLASSES[class];
    let action = ["fail", "recover", "degrade"][rng.index(if keys.is_empty() { 2 } else { 3 })];
    let (time, at) = dsl_duration(rng);
    let at = SimTime::from_nanos(at);
    let mut line = DslLine { class, action, words: vec![], slots: vec![], events: vec![], min_words: 4 };
    line.push("at".into(), Slot::At);
    line.push(time, Slot::Time);
    line.push(action.into(), Slot::Action);
    line.push(token.into(), Slot::Target);
    let (x, y) = match shape {
        Shape::None => (0, 0),
        Shape::Id => {
            let (word, x) = dsl_id(rng);
            line.push(word, Slot::Id);
            (x, 0)
        }
        Shape::Pair(sep) => {
            let ((wx, x), (wy, y)) = (dsl_id(rng), dsl_id(rng));
            line.push(format!("{wx}{sep}{wy}"), Slot::Pair(sep));
            (x, y)
        }
    };
    line.min_words = line.words.len();
    let target = make(x, y);
    let event = |at, kind| FaultEvent { at, target, kind };
    match action {
        "fail" => {
            line.events.push(event(at, FaultKind::Crash));
            if target == FaultTarget::ControlCrash {
                let (word, restart) = dsl_duration(rng);
                line.push(word, Slot::Time);
                line.min_words += 1;
                line.events.push(event(at + SimDuration::from_nanos(restart), FaultKind::Recover));
            }
        }
        "recover" => line.events.push(event(at, FaultKind::Recover)),
        _ => {
            // One to three pairs, a key possibly repeated: the last wins.
            let (mut loss, mut extra) = (0.0, SimDuration::ZERO);
            for _ in 0..1 + rng.index(3) {
                let key = keys[rng.index(keys.len())];
                line.push(key.into(), Slot::Key);
                if key == "loss" {
                    let (word, v) = dsl_loss(rng);
                    line.push(word, Slot::Loss);
                    loss = v;
                } else {
                    let (word, ns) = dsl_duration(rng);
                    line.push(word, Slot::Time);
                    extra = SimDuration::from_nanos(ns);
                }
            }
            line.min_words += 2;
            line.events.push(event(at, FaultKind::Degrade { loss, extra }));
        }
    }
    line
}

const DSL_SPACES: [char; 5] = [' ', ' ', '\t', '\u{0C}', '\u{3000}'];
const DSL_COMMENT: &[u8] = b"abc xyz 019 #%/->\t";

fn dsl_space(rng: &mut SimRng, min: usize) -> String {
    (0..min + rng.index(3)).map(|_| DSL_SPACES[rng.index(DSL_SPACES.len())]).collect()
}

fn dsl_comment(rng: &mut SimRng) -> String {
    format!("#{}", random_string(rng, DSL_COMMENT, 0, 12))
}

/// `lines` as a script: words separated by any run of whitespace, comments
/// after a line and on lines of their own, blank lines, `\n` or `\r\n`.
/// Returns the script and the 1-based script line of each of `lines`.
fn dsl_render(rng: &mut SimRng, lines: &[Vec<String>]) -> (String, Vec<usize>) {
    let newline = if rng.chance(0.25) { "\r\n" } else { "\n" };
    let (mut script, mut numbers, mut n) = (String::new(), Vec::new(), 0);
    for (i, words) in lines.iter().enumerate() {
        while rng.chance(0.3) {
            script += &dsl_space(rng, 0);
            if rng.chance(0.5) {
                script += &dsl_comment(rng);
            }
            script += newline;
            n += 1;
        }
        script += &dsl_space(rng, 0);
        for (j, word) in words.iter().enumerate() {
            if j > 0 {
                script += &dsl_space(rng, 1);
            }
            script += word;
        }
        script += &dsl_space(rng, 0);
        if rng.chance(0.3) {
            script += &dsl_comment(rng);
        }
        n += 1;
        numbers.push(n);
        if i + 1 < lines.len() || rng.chance(0.5) {
            script += newline;
        }
    }
    (script, numbers)
}

/// Parse `script`, holding a refusal to a line of it.
fn dsl_parse(script: &str) -> Result<Vec<FaultEvent>, ScriptError> {
    let got = FaultPlan::parse(script).map(|plan| plan.events().to_vec());
    if let Err(e) = &got {
        let lines = script.lines().count();
        assert!((1..=lines).contains(&e.line), "{e} outside 1..={lines}: {script:?}");
        assert!(!e.msg.is_empty(), "{e}: no message");
    }
    got
}

/// A word `slot` must refuse: `Action` also `degrade` on a class with
/// nothing to degrade, `Key` also `loss` on a class with only `extra`.
fn dsl_bad_word(rng: &mut SimRng, slot: Slot, keys: &[&str]) -> String {
    let words = match slot {
        Slot::At => "At AT on fail at5s @",
        Slot::Time => "5 s 5h 5m 5S 5sec -1s -0.5ms 1e30s 9223372037s infs NaNs 0x10s 1_0s 1,5s",
        Slot::Action if keys.is_empty() => "crash Fail failed recovers heal at degraded degrade",
        Slot::Action => "crash Fail failed recovers heal at degraded",
        Slot::Target => "Az azz link_directed links replica/ gray- controlcrash",
        Slot::Id => "-1 4294967296 99999999999 1.5 x 0x1 1e3 1/2 1-2 1>2",
        Slot::Pair(sep) => {
            let bad = ["12".into(), format!("1{sep}"), format!("{sep}2"), format!("1{sep}2{sep}3"), format!("4294967296{sep}2"), format!("1{sep}-2")];
            return bad[rng.index(bad.len())].clone();
        }
        Slot::Key if keys == EXTRA => "Loss EXTRA latency drop at 5ms loss",
        Slot::Key => "Loss EXTRA latency drop at 5ms",
        Slot::Loss => "1.01 101% 100.1% -0.1 -1% % x nan inf 0.5%% 1e3 5ms",
    };
    let words: Vec<&str> = words.split(' ').collect();
    words[rng.index(words.len())].to_string()
}

/// Words a random edit inserts: the DSL's own vocabulary, good and bad.
/// The last two are not words (a comment and nothing), so a word appended
/// to a valid line from the rest must be refused.
const DSL_VOCABULARY: &[&str] = &[
    "at", "fail", "recover", "degrade", "loss", "extra", "replica", "az", "link", "link-directed", "gray",
    "control-crash", "config-push", "5s", "10ms", "0.5", "50%", "1", "0-1", "1>0", "2/0", "-1", "x", "#", "",
];

fn fuzz_fault_dsl(cases: usize, seed: u64) {
    let mut rng = SimRng::seed(seed);
    let mut covered = std::collections::BTreeSet::new();
    for case in 0..cases {
        let lines: Vec<DslLine> = (0..1 + rng.index(4)).map(|_| dsl_line(&mut rng)).collect();
        let mut want: Vec<FaultEvent> = lines.iter().flat_map(|l| l.events.iter().copied()).collect();
        want.sort_by_key(|e| e.at);
        covered.extend(lines.iter().map(|l| (l.class, l.action)));

        // Two renderings: the same events.
        let words: Vec<Vec<String>> = lines.iter().map(|l| l.words.clone()).collect();
        for _ in 0..2 {
            let (script, _) = dsl_render(&mut rng, &words);
            assert_eq!(dsl_parse(&script), Ok(want.clone()), "case {case}: {script:?}");
        }

        // One line broken; the others stay valid, so a refusal is its.
        let i = rng.index(lines.len());
        let line = &lines[i];
        let mut broken = words.clone();
        match case % 3 {
            0 => {
                for k in 1..line.words.len() {
                    broken[i] = line.words[..k].to_vec();
                    let (script, numbers) = dsl_render(&mut rng, &broken);
                    match dsl_parse(&script) {
                        Err(e) => assert_eq!(e.line, numbers[i], "case {case}, {k} words: {e}"),
                        Ok(_) => assert!(k >= line.min_words, "case {case}: {k} words accepted: {script:?}"),
                    }
                }
                continue;
            }
            1 => {
                let at = rng.index(line.words.len() + 1);
                match line.slots.get(at) {
                    Some(&slot) => broken[i][at] = dsl_bad_word(&mut rng, slot, DSL_CLASSES[line.class].2),
                    None => broken[i].push(DSL_VOCABULARY[rng.index(DSL_VOCABULARY.len() - 2)].to_string()),
                }
                let (script, numbers) = dsl_render(&mut rng, &broken);
                let got = dsl_parse(&script).map_err(|e| e.line);
                assert_eq!(got, Err(numbers[i]), "case {case}: {script:?}");
            }
            _ => {
                let w = &mut broken[i];
                let (at, other) = (rng.index(w.len()), rng.index(w.len()));
                let word = DSL_VOCABULARY[rng.index(DSL_VOCABULARY.len())].to_string();
                match rng.index(4) {
                    0 => w[at] = word,
                    1 => w.insert(at, word),
                    2 => drop(w.remove(at)),
                    _ => w.swap(at, other),
                }
                let (script, numbers) = dsl_render(&mut rng, &broken);
                if let Err(e) = dsl_parse(&script) {
                    assert_eq!(e.line, numbers[i], "case {case}: {e}");
                }
            }
        }

        // Random bytes, some of them the DSL's.
        let mut noise = Vec::new();
        for _ in 0..rng.index(12) {
            match rng.index(3) {
                0 => noise.extend_from_slice(DSL_VOCABULARY[rng.index(DSL_VOCABULARY.len())].as_bytes()),
                1 => noise.push(b" \t\n\r#"[rng.index(5)]),
                _ => noise.push(rng.u64() as u8),
            }
        }
        let _ = dsl_parse(&String::from_utf8_lossy(&noise));
    }
    let every: usize = DSL_CLASSES.iter().map(|c| if c.2.is_empty() { 2 } else { 3 }).sum();
    assert_eq!(covered.len(), every, "every class met every action it takes");
}

#[test]
fn fault_dsl_fuzz_parser() {
    fuzz_fault_dsl(DSL_FUZZ_CASES, 0x0DEC_000D);
}

/// Ten times the tier-1 run on other seeds; `scripts/check.sh` runs it in
/// release.
#[test]
#[ignore = "deep sweep, run by scripts/check.sh in release"]
fn fault_dsl_fuzz_deep_sweep() {
    for seed in 0..10 {
        fuzz_fault_dsl(DSL_FUZZ_CASES, 0x0DEC_3000 + seed);
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
