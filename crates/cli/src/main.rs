//! `squatphi` — the command-line front door to the reproduction.

use squatphi_cli::{commands, parse_args, Command};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("squatphi: {e}");
            eprintln!("{}", squatphi_cli::cli::USAGE);
            std::process::exit(2);
        }
    };
    if matches!(cmd, Command::Page { .. }) {
        eprintln!("[squatphi] training the classifier on the ground-truth feed …");
    }
    match commands::run(&cmd) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("squatphi: {e}");
            std::process::exit(1);
        }
    }
}
