//! The `sms` binary: see [`sms_cli::HELP`] or run `sms help`.

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match sms_cli::Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match sms_cli::run(&args) {
        Ok(out) => println!("{out}"),
        // A lint report goes to stdout (CI pipes and archives it from
        // there); the non-zero exit code alone signals the failure.
        Err(sms_cli::CliError::Lint(report)) => {
            print!("{report}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
