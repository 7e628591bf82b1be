//@ crate: tnb-core
//@ kind: lib
//@ expect: TNB-DEAD01@13
//@ expect: TNB-DEAD01@16
// TNB-DEAD01: a library `pub fn` whose name occurs nowhere outside its
// own module's tests. Analyzed together with `caller.rs` (workspace) and
// `bench.rs` (an out-of-workspace caller).

/// Called from `caller.rs`: live.
pub fn called_elsewhere() {}

/// Only this file's tests name it: dead.
pub fn only_tested() {}

/// Named only by its definition and a re-export: dead.
pub fn never_called() {}

pub use self::never_called as reexported;

/// Named only by the out-of-workspace bench package: live.
pub fn bench_only() {}

/// Called by non-test code of its own crate: live.
pub fn used_internally() {}

fn private_helper() {
    used_internally()
}

/// Justified: the hatch suppresses the diagnostic.
// tnb-lint: allow(TNB-DEAD01) -- reference implementation the tests compare against
#[inline]
pub fn kept_reference() {}

/// Not crate-external API: out of scope.
pub(crate) fn crate_visible() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uses() {
        only_tested();
        kept_reference();
        private_helper();
    }
}
