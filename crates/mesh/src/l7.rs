//! The shared L7 engine.
//!
//! Every architecture's L7 hop (sidecar, waypoint, gateway backend) runs the
//! same functional pipeline on real bytes:
//!
//! 1. parse the HTTP/1.1 request ([`canal_http::RequestParser`]),
//! 2. authorize it against the zero-trust policy,
//! 3. rate-limit it,
//! 4. match the route table and pick a weighted target (traffic splitting /
//!    canary / A-B),
//!
//! returning an [`L7Outcome`] the data path turns into either an upstream
//! forward or an immediate error response. The *cost* of the hop is priced
//! separately by [`crate::costs::CostModel`]; this module is the functional
//! half, exercised byte-for-byte in tests and experiments.

use crate::authz::{AuthzAction, AuthzPolicy};
use canal_net::ratelimit::TokenBucket;
use canal_http::{ParseError, Request, RequestParser, StatusCode};
use canal_sim::SimTime;

/// Result of running the L7 pipeline on a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L7Outcome {
    /// Forward to the named route target (rule name, target/subset name).
    Forward {
        /// Matched rule.
        rule: String,
        /// Selected weighted target.
        target: String,
    },
    /// Answer immediately with an error status.
    Reject(StatusCode),
}

impl L7Outcome {
    /// The status this outcome maps to for error-rate accounting (Fig. 20).
    pub fn status(&self) -> StatusCode {
        match self {
            L7Outcome::Forward { .. } => StatusCode::OK,
            L7Outcome::Reject(s) => *s,
        }
    }
}

/// Why a pushed route table was refused by [`L7Engine::try_install_routes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteInstallError {
    /// A rule references a target outside the hop's reachable set.
    UnknownTarget {
        /// Offending rule name.
        rule: String,
        /// The unreachable target.
        target: String,
    },
    /// A rule carries no targets at all.
    NoTargets {
        /// Offending rule name.
        rule: String,
    },
    /// Every target in a rule has weight zero — no draw can select one.
    ZeroWeight {
        /// Offending rule name.
        rule: String,
    },
}

impl std::fmt::Display for RouteInstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteInstallError::UnknownTarget { rule, target } => {
                write!(f, "rule {rule}: unknown target {target}")
            }
            RouteInstallError::NoTargets { rule } => write!(f, "rule {rule}: no targets"),
            RouteInstallError::ZeroWeight { rule } => write!(f, "rule {rule}: all weights zero"),
        }
    }
}

/// One service's L7 configuration and runtime state.
pub struct L7Engine {
    routes: canal_http::RouteTable,
    authz: AuthzPolicy,
    rate_limit: Option<TokenBucket>,
    requests_processed: u64,
    requests_rejected: u64,
    bytes_parsed: u64,
}

impl L7Engine {
    /// Engine with routes and an authorization policy, no rate limit.
    pub fn new(routes: canal_http::RouteTable, authz: AuthzPolicy) -> Self {
        L7Engine {
            routes,
            authz,
            rate_limit: None,
            requests_processed: 0,
            requests_rejected: 0,
            bytes_parsed: 0,
        }
    }

    /// Attach a rate limit.
    pub fn with_rate_limit(mut self, bucket: TokenBucket) -> Self {
        self.rate_limit = Some(bucket);
        self
    }

    /// The route table (for config-size accounting).
    pub fn routes(&self) -> &canal_http::RouteTable {
        &self.routes
    }

    /// Replace the route table (a config push).
    pub fn install_routes(&mut self, routes: canal_http::RouteTable) {
        self.routes = routes;
    }

    /// Fail-static config push: validate `routes` against the set of
    /// targets this hop can actually reach, and install only if every rule
    /// is serviceable. On rejection the *old* table keeps serving — a
    /// poisoned push must never degrade a hop below its last good config
    /// (§2.2's bad-config outage vector; see DESIGN.md §11).
    pub fn try_install_routes(
        &mut self,
        routes: canal_http::RouteTable,
        known_targets: &std::collections::BTreeSet<String>,
    ) -> Result<(), RouteInstallError> {
        for rule in routes.rules() {
            if rule.targets().is_empty() {
                return Err(RouteInstallError::NoTargets { rule: rule.name.clone() });
            }
            if rule.targets().iter().all(|t| t.weight == 0) {
                return Err(RouteInstallError::ZeroWeight { rule: rule.name.clone() });
            }
            for t in rule.targets() {
                if !known_targets.contains(&t.name) {
                    return Err(RouteInstallError::UnknownTarget {
                        rule: rule.name.clone(),
                        target: t.name.clone(),
                    });
                }
            }
        }
        self.routes = routes;
        Ok(())
    }

    /// Process raw request bytes from a verified source identity.
    /// `uniform_draw` supplies the randomness for weighted splitting (kept
    /// external for reproducibility).
    pub fn process_bytes(
        &mut self,
        now: SimTime,
        source_identity: u64,
        wire: &[u8],
        uniform_draw: f64,
    ) -> Result<L7Outcome, ParseError> {
        let mut parser = RequestParser::new();
        self.bytes_parsed += wire.len() as u64;
        match parser.feed(wire)? {
            Some(req) => Ok(self.process(now, source_identity, &req, uniform_draw)),
            None => Err(ParseError::BadStartLine), // incomplete message on a one-shot path
        }
    }

    /// Process an already-parsed request.
    pub fn process(
        &mut self,
        now: SimTime,
        source_identity: u64,
        req: &Request,
        uniform_draw: f64,
    ) -> L7Outcome {
        self.requests_processed += 1;
        if self.authz.check(source_identity, req) == AuthzAction::Deny {
            self.requests_rejected += 1;
            return L7Outcome::Reject(StatusCode::FORBIDDEN);
        }
        if let Some(bucket) = &mut self.rate_limit {
            if !bucket.admit(now) {
                self.requests_rejected += 1;
                return L7Outcome::Reject(StatusCode::TOO_MANY_REQUESTS);
            }
        }
        match self.routes.route(req, uniform_draw) {
            Some((rule, target)) => L7Outcome::Forward {
                rule: rule.to_string(),
                target: target.to_string(),
            },
            None => {
                self.requests_rejected += 1;
                L7Outcome::Reject(StatusCode::NOT_FOUND)
            }
        }
    }

    /// Lifetime counters `(processed, rejected, bytes_parsed)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.requests_processed, self.requests_rejected, self.bytes_parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::AuthzRule;
    use canal_http::{RoutePredicate, RouteRule, RouteTable, WeightedTarget};

    fn canary_table() -> RouteTable {
        let mut t = RouteTable::new();
        t.push(RouteRule::new(
            "api",
            RoutePredicate::prefix("/api"),
            vec![WeightedTarget::new("v1", 90), WeightedTarget::new("v2", 10)],
        ));
        t
    }

    fn engine() -> L7Engine {
        let mut authz = AuthzPolicy::default_deny();
        authz.push(AuthzRule::allow(&[100], "/api"));
        L7Engine::new(canary_table(), authz)
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn allowed_request_routes_with_canary_split() {
        let mut e = engine();
        let req = Request::get("/api/items");
        assert_eq!(
            e.process(T0, 100, &req, 0.5),
            L7Outcome::Forward {
                rule: "api".into(),
                target: "v1".into()
            }
        );
        assert_eq!(
            e.process(T0, 100, &req, 0.95),
            L7Outcome::Forward {
                rule: "api".into(),
                target: "v2".into()
            }
        );
    }

    #[test]
    fn unauthorized_identity_gets_403() {
        let mut e = engine();
        let out = e.process(T0, 999, &Request::get("/api/items"), 0.5);
        assert_eq!(out, L7Outcome::Reject(StatusCode::FORBIDDEN));
        assert!(out.status().is_error());
    }

    #[test]
    fn unrouted_path_gets_404() {
        let mut authz = AuthzPolicy::default_allow();
        authz.push(AuthzRule::allow(&[], ""));
        let mut e = L7Engine::new(canary_table(), authz);
        assert_eq!(
            e.process(T0, 1, &Request::get("/nowhere"), 0.5),
            L7Outcome::Reject(StatusCode::NOT_FOUND)
        );
    }

    #[test]
    fn rate_limit_rejects_with_429() {
        let mut e = engine().with_rate_limit(TokenBucket::new(1.0, 2.0));
        let req = Request::get("/api/x");
        assert!(matches!(e.process(T0, 100, &req, 0.1), L7Outcome::Forward { .. }));
        assert!(matches!(e.process(T0, 100, &req, 0.1), L7Outcome::Forward { .. }));
        assert_eq!(
            e.process(T0, 100, &req, 0.1),
            L7Outcome::Reject(StatusCode::TOO_MANY_REQUESTS)
        );
        let (processed, rejected, _) = e.stats();
        assert_eq!((processed, rejected), (3, 1));
    }

    #[test]
    fn processes_real_wire_bytes() {
        let mut e = engine();
        let wire = Request::get("/api/orders").with_header("Host", "svc").encode();
        let out = e.process_bytes(T0, 100, &wire, 0.3).unwrap();
        assert!(matches!(out, L7Outcome::Forward { .. }));
        let (_, _, bytes) = e.stats();
        assert_eq!(bytes, wire.len() as u64);
    }

    #[test]
    fn malformed_bytes_error() {
        let mut e = engine();
        assert!(e.process_bytes(T0, 100, b"NOT HTTP\r\n\r\n", 0.5).is_err());
    }

    #[test]
    fn config_push_swaps_routes() {
        let mut e = engine();
        let req = Request::get("/api/items");
        assert!(matches!(e.process(T0, 100, &req, 0.95), L7Outcome::Forward { target, .. } if target == "v2"));
        // Push a new table that sends 100% to v2 (canary promotion).
        let mut t = RouteTable::new();
        t.push(RouteRule::new(
            "api",
            RoutePredicate::prefix("/api"),
            vec![WeightedTarget::new("v2", 100)],
        ));
        e.install_routes(t);
        assert!(matches!(e.process(T0, 100, &req, 0.01), L7Outcome::Forward { target, .. } if target == "v2"));
    }

    #[test]
    fn poisoned_push_keeps_old_table_serving() {
        use std::collections::BTreeSet;
        let mut e = engine();
        let req = Request::get("/api/items");
        let known: BTreeSet<String> = ["v1", "v2"].iter().map(|s| s.to_string()).collect();

        // A push routing to an unknown target is refused...
        let mut bad = RouteTable::new();
        bad.push(RouteRule::new(
            "api",
            RoutePredicate::prefix("/api"),
            vec![WeightedTarget::new("v9", 100)],
        ));
        assert_eq!(
            e.try_install_routes(bad, &known),
            Err(RouteInstallError::UnknownTarget { rule: "api".into(), target: "v9".into() })
        );
        // ...and the old table still serves (fail-static).
        assert!(matches!(e.process(T0, 100, &req, 0.5), L7Outcome::Forward { target, .. } if target == "v1"));

        // Empty and zero-weight target sets are likewise refused.
        // `RouteRule::new` refuses empty target lists, but a decoded push
        // can still carry one — build the rule unchecked.
        let mut none = RouteTable::new();
        none.push(RouteRule::unchecked("api", RoutePredicate::prefix("/api"), vec![]));
        assert_eq!(
            e.try_install_routes(none, &known),
            Err(RouteInstallError::NoTargets { rule: "api".into() })
        );
        let mut zero = RouteTable::new();
        zero.push(RouteRule::unchecked(
            "api",
            RoutePredicate::prefix("/api"),
            vec![WeightedTarget::new("v1", 0)],
        ));
        assert_eq!(
            e.try_install_routes(zero, &known),
            Err(RouteInstallError::ZeroWeight { rule: "api".into() })
        );

        // A valid push commits.
        let mut good = RouteTable::new();
        good.push(RouteRule::new(
            "api",
            RoutePredicate::prefix("/api"),
            vec![WeightedTarget::new("v2", 100)],
        ));
        assert_eq!(e.try_install_routes(good, &known), Ok(()));
        assert!(matches!(e.process(T0, 100, &req, 0.01), L7Outcome::Forward { target, .. } if target == "v2"));
    }
}
