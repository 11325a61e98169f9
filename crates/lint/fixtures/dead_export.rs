// Fixture: exported items nothing calls must trip the `dead-export` rule —
// rustc's dead_code lint skips `pub` items, so caller-less exported code
// survives every refactor unless the linter names it.

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

// Clean, for contrast: a caller in the file's own code keeps an item
// alive, and a `pub(crate)` item is rustc's to police.
pub fn called_in_file() -> u64 {
    17
}

pub(crate) fn crate_visible() -> u64 {
    called_in_file()
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_the_tested_fn() {
        assert_eq!(super::only_tests_call_this(), 11);
    }
}

// Unjudged, not flagged: nothing calls this `reset`, but
// `dead_export_twin.rs` exports a `reset` its own code calls, and callers
// resolve by name. The report counts both as unjudged.
pub fn reset() -> u64 {
    19
}
