// Fixture: ambient global state must trip the `global-state` rule — it
// survives across seeded runs in one process, escapes the digest fold,
// and undermines per-tenant isolation reasoning.
static mut EVENTS_SEEN: u64 = 0;

thread_local! {
    static SCRATCH: std::cell::Cell<u64> = std::cell::Cell::new(0);
}

pub fn salt() -> &'static std::sync::OnceLock<u64> {
    static SALT: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    &SALT
}

// Clean: a write-once field is owned state. It is built, digested (or
// derived from what is) and dropped with the struct that holds it.
pub struct Memo {
    slot: std::sync::OnceLock<u64>,
}
