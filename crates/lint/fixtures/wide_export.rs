// Fixture: `pub` items that no file outside their crate names must trip the
// `wide-export` rule. rustc's dead_code lint skips `pub` items, so a needless
// `pub` hides dead code from the compiler. `canal_net/` is another crate.

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

#[cfg(test)]
mod tests {
    #[test]
    fn calls_the_tested_fn() {
        assert_eq!(super::only_tests_call_this(), 11);
    }
}
