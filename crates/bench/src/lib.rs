//! # bamboo_bench
//!
//! The figure-reproduction harness and the `repro` CLI: one function per
//! experiment of the paper's §5, each regenerating the corresponding
//! table/figure series (who wins, by what factor, where crossovers fall),
//! plus three benches that write the committed `BENCH_*.json` files.
//!
//! ```text
//! cargo run -p bamboo_bench --release --bin repro -- fig6
//! cargo run -p bamboo_bench --release --bin repro -- all --duration-ms 1000
//! cargo run -p bamboo_bench --release --bin repro -- durability --out BENCH_durability.json
//! ```

pub mod commit_scaling;
pub mod durability;
pub mod figures;
pub mod harness;
pub mod partition_scaling;

pub use harness::{RunOpts, Series};

use harness::Args;

/// `repro` usage text.
pub const USAGE: &str = "\
usage: repro <subcommand> [flags]

paper figures (text tables):
  sec52 fig3a fig3b fig4 fig5 fig6 fig7 fig8 readratio fig9 fig10 fig11
  ablation model all
      [--duration-ms N] [--warmup-ms N] [--threads a,b,c] [--rpc-us N] [--full]

benches (JSON to --out, else stdout):
  commit_scaling     [--duration-ms N] [--out FILE]
  partition_scaling  [--duration-ms N] [--threads N] [--repeat N]
                     [--protocol interactive|bamboo|wound_wait]
                     [--partitions a,b,c] [--out FILE]
  durability         [--duration-ms N] [--threads N] [--repeat N] [--batch N]
                     [--txns a,b,c] [--out FILE] [--group-out FILE]";

/// Flags every figure subcommand accepts.
const FIGURE_FLAGS: &[&str] = &[
    "--duration-ms",
    "--warmup-ms",
    "--threads",
    "--rpc-us",
    "--full",
];

/// One parsed `repro` invocation.
#[derive(Debug)]
pub enum Command {
    /// Paper figures, run in order.
    Figures(Vec<figures::Figure>, RunOpts),
    /// `commit_scaling`.
    CommitScaling(commit_scaling::Opts),
    /// `partition_scaling`.
    PartitionScaling(partition_scaling::Opts),
    /// `durability`.
    Durability(durability::Opts),
}

impl Command {
    /// Parses `argv` (program name excluded). An unknown subcommand or
    /// flag, a missing value or a value that does not parse is an error.
    pub fn parse(argv: &[String]) -> Result<Command, String> {
        let figure = |name: &str| figures::FIGURES.iter().find(|(n, _)| *n == name).copied();
        let args = Args::parse(argv, |cmd| match cmd {
            "commit_scaling" => Some(commit_scaling::FLAGS),
            "partition_scaling" => Some(partition_scaling::FLAGS),
            "durability" => Some(durability::FLAGS),
            "all" => Some(FIGURE_FLAGS),
            name => figure(name).map(|_| FIGURE_FLAGS),
        })?;
        Ok(match args.command.as_str() {
            "commit_scaling" => Command::CommitScaling(commit_scaling::Opts::from_args(&args)?),
            "partition_scaling" => {
                Command::PartitionScaling(partition_scaling::Opts::from_args(&args)?)
            }
            "durability" => Command::Durability(durability::Opts::from_args(&args)?),
            "all" => Command::Figures(figures::FIGURES.to_vec(), RunOpts::from_args(&args)?),
            name => Command::Figures(
                figure(name).into_iter().collect(),
                RunOpts::from_args(&args)?,
            ),
        })
    }

    /// Runs the command.
    pub fn run(&self) {
        match self {
            Command::Figures(figures, opts) => {
                for (_, run) in figures {
                    run(opts);
                }
            }
            Command::CommitScaling(opts) => commit_scaling::run(opts),
            Command::PartitionScaling(opts) => partition_scaling::run(opts),
            Command::Durability(opts) => durability::run(opts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn parse(line: &str) -> Result<Command, String> {
        Command::parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    /// The `repro` arguments of every CI step that runs it.
    fn ci_lines() -> Vec<&'static str> {
        include_str!("../../../.github/workflows/ci.yml")
            .lines()
            .filter_map(|l| l.split_once("--bin repro -- ").map(|(_, args)| args))
            .collect()
    }

    #[test]
    fn every_ci_command_line_parses() {
        let lines = ci_lines();
        assert_eq!(lines.len(), 3, "{lines:?}");
        for line in lines {
            parse(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        }
    }

    #[test]
    fn ci_command_lines_keep_their_settings() {
        let ms = Duration::from_millis;
        match parse("commit_scaling --duration-ms 300 --out BENCH_commit_scaling.json") {
            Ok(Command::CommitScaling(o)) => {
                assert_eq!(o.duration, ms(300));
                assert_eq!(o.out.as_deref(), Some("BENCH_commit_scaling.json"));
            }
            other => panic!("{other:?}"),
        }
        match parse(
            "partition_scaling --duration-ms 300 --repeat 2 --partitions 1,4,8 \
             --out BENCH_partition_scaling.json",
        ) {
            Ok(Command::PartitionScaling(o)) => {
                assert_eq!((o.duration, o.repeat, o.threads), (ms(300), 2, 8));
                assert_eq!(o.partitions, vec![1, 4, 8]);
                assert_eq!(o.protocol, "interactive");
                assert_eq!(o.out.as_deref(), Some("BENCH_partition_scaling.json"));
            }
            other => panic!("{other:?}"),
        }
        match parse(
            "durability --duration-ms 200 --repeat 2 --threads 4 --txns 1000,5000 \
             --out BENCH_durability.json --group-out BENCH_group_commit.json",
        ) {
            Ok(Command::Durability(o)) => {
                assert_eq!(
                    (o.duration, o.repeat, o.threads, o.batch),
                    (ms(200), 2, 4, 32)
                );
                assert_eq!(o.txns, vec![1000, 5000]);
                assert_eq!(o.out.as_deref(), Some("BENCH_durability.json"));
                assert_eq!(o.group_out.as_deref(), Some("BENCH_group_commit.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn figure_flags_override_full() {
        match parse("fig3a --threads 2,4 --duration-ms 150 --full") {
            Ok(Command::Figures(figs, o)) => {
                assert_eq!(figs.iter().map(|f| f.0).collect::<Vec<_>>(), ["fig3a"]);
                assert_eq!(o.threads, vec![2, 4]);
                assert_eq!(o.duration, Duration::from_millis(150));
                assert_eq!(o.warmup, RunOpts::full().warmup);
            }
            other => panic!("{other:?}"),
        }
        match parse("all") {
            Ok(Command::Figures(figs, _)) => assert_eq!(figs.len(), figures::FIGURES.len()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for line in [
            "",
            "fig99",
            "--help",
            "durability --bogus 1",
            "fig3a --out x.json",
            "commit_scaling --duration-ms",
            "commit_scaling --duration-ms soon",
            "durability --txns 1,two",
            "partition_scaling --protocol silo",
        ] {
            assert!(parse(line).is_err(), "`{line}` parsed");
        }
    }
}
