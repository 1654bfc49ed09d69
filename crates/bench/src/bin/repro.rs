//! `repro` — regenerates every table and figure of the paper's evaluation,
//! and runs the commit-pipeline, partition-scaling and durability benches
//! that write the `BENCH_*.json` files. See [`bamboo_bench::USAGE`].
//!
//! Figure defaults are quick smoke settings (~300 ms per point); `--full`
//! matches longer paper-style runs. A bad command line prints the usage
//! and exits with status 2.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match bamboo_bench::Command::parse(&argv) {
        Ok(command) => command.run(),
        Err(e) => {
            eprintln!("repro: {e}\n\n{}", bamboo_bench::USAGE);
            std::process::exit(2)
        }
    }
}
