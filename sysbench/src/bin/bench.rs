//! `bench [run|trace|aa|list] [--workload W] [--seed N] [--seconds S]
//! [--trace 0|1] [--runs R] [--smoke]` — see `README.md`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(squatphi_sysbench::driver::main(&args));
}
