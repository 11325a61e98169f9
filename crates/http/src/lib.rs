//! # canal-http
//!
//! A minimal but real HTTP/1.1 implementation for the Canal Mesh L7 layer:
//!
//! * [`message`] — requests, responses, a case-insensitive header map, and
//!   byte serializers; a parsed message's target, headers and body are spans
//!   of one copy of its bytes.
//! * [`parser`] — an incremental push parser (feed bytes as they arrive on a
//!   simulated connection; get a message out when it completes) for both
//!   requests and responses.
//! * [`route`] — the L7 match predicates the paper's customers configure most
//!   (§2.2, Table 3): URL path, HTTP header, method, cookie — plus weighted
//!   target selection used for A/B testing, canary release and
//!   percentage-based traffic splitting.
//!
//! The parser and serializer are exercised byte-for-byte by the data-plane
//! simulation: every simulated L7 proxy visit really parses the request.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

#![warn(missing_docs)]

pub mod message;
pub mod parser;
pub mod route;

pub use message::{Method, Request, Response, StatusCode};
pub use parser::{ParseError, RequestParser, ResponseParser};
pub use route::{
    HeaderPredicate, PathPredicate, RoutePredicate, RouteRule, RouteTable, WeightedTarget,
};
