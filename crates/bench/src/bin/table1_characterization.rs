//! Table 1: static AR characterization per benchmark; with `--measured`,
//! the dynamic immutability of discovery decisions per AR instead.
//!
//! Thin wrapper over the `table1` / `table1-measured` experiments in the
//! `clear-harness` registry; `cargo run -p clear-harness -- run table1`
//! is equivalent.

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let measured = args
        .iter()
        .position(|a| a == "--measured")
        .map(|i| args.remove(i))
        .is_some();
    let name = if measured {
        "table1-measured"
    } else {
        "table1"
    };
    clear_bench::experiments::run_to_stdout(name, &clear_bench::SuiteOptions::parse_or_exit(&args));
}
