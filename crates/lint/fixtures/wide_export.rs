// Fixture: `pub` items and fields no file outside their crate names must trip
// `wide-export`. rustc's dead_code lint skips `pub` items and fields, so a
// needless `pub` hides dead code from the compiler. `canal_net/` is a crate.

// Fires: a `pub fn` nobody calls.
pub fn nobody_calls_this() -> u64 {
    7
}

// Fires: a `pub fn` only its own file's tests call.
pub fn only_tests_call_this() -> u64 {
    11
}

mod inner {
    // Fires: the `pub use` below re-exports it, and a re-export is not a
    // caller.
    pub fn reexported_only() -> u64 {
        13
    }
}

pub use inner::reexported_only;

// Fires: only its own crate calls it, so `pub(crate)` is all it needs.
pub fn only_its_crate_calls() -> u64 {
    17
}

pub(crate) fn crate_visible() -> u64 {
    only_its_crate_calls()
}

// Clean: `canal_net/wide_export_caller.rs` calls it, and `Reading`, which
// only its signature names, is public with it.
pub fn called_outside() -> Reading {
    Reading(19)
}

pub struct Reading(pub u64);

// Clean: a trait-impl method cannot carry `pub`.
impl std::fmt::Display for Reading {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

// The fields of a `pub` struct are judged one by one. `gauge` keeps
// `Gauge` public, and `canal_net/` reads `shown`.
pub struct Gauge {
    pub shown: u64,
    // Fires: no file outside this crate names it.
    pub unread_outside: u64,
}

pub fn gauge() -> Gauge {
    Gauge { shown: 23, unread_outside: 29 }
}

// Clean: `canal_net/` builds `Knobs` with struct update syntax, which needs
// every field visible, `depth` as well as the `width` it names.
pub struct Knobs {
    pub width: u64,
    pub depth: u64,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs { width: 31, depth: 37 }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_the_tested_fn() {
        assert_eq!(super::only_tests_call_this(), 11);
    }
}
