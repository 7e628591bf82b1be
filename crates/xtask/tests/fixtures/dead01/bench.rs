// An out-of-workspace caller (the benchmark package): not linted, but its
// uses count.

fn main() {
    tnb_core::bench_only();
}
