//@ crate: tnb-cli
//@ kind: lib
//@ expect: none
// A binary crate's source: its own uncalled `pub fn` is an entry point,
// not library API, and its calls keep library fns alive.

pub fn cli_entry() {
    tnb_core::called_elsewhere();
}
