//! Regenerates the paper's table1. Usage: `cargo run -p rc-bench --bin table1 [--scale N]`.

fn main() {
    let args = rc_bench::Args::from_env("usage: table1 [--scale N]", &[]);
    let eval = rc_bench::report::Evaluation::collect(args.scale());
    println!("{}", rc_bench::report::text_table(&rc_bench::report::table1(&eval)));
}
