//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a host and run record, then the result object as the last
//! line of standard output. Exits 1 when any request or output check
//! failed, 2 on a usage error.

use perfbench::common::Args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let (outcome, record) = perfbench::run(&args);
    println!("{}", record.to_json_string());
    println!("{}", outcome.to_line());
    if !outcome.correct {
        std::process::exit(1);
    }
}
