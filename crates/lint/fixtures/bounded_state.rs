// Fixture: a growable collection field that &mut self methods grow with
// no cap const, eviction counter, or shrink path must trip the
// `bounded-state` rule — unbounded long-lived state is an OOM waiting for
// a million-pod run.
struct GrowingAuditLog {
    entries: Vec<u64>,
}

impl GrowingAuditLog {
    fn record(&mut self, v: u64) {
        self.entries.push(v);
    }

    fn fold(&self, f: &mut impl Fold) {
        let Self { entries } = self;
        f.write_u64(entries.len() as u64);
        for &e in entries {
            f.write_u64(e);
        }
    }
}

// The same growth through a closure parameter: the method hands the owner
// to a closure, and the closure grows the map.
struct NamedTotals {
    totals: BTreeMap<String, u64>,
}

impl NamedTotals {
    fn add(&mut self, name: &str, v: u64) {
        self.with(|t| *t.totals.entry(name.to_string()).or_default() += v);
    }

    fn with(&mut self, body: impl FnOnce(&mut Self)) {
        body(self);
    }

    fn fold(&self, f: &mut impl Fold) {
        let Self { totals } = self;
        for (name, v) in totals {
            f.count(name, *v);
        }
    }
}
