//! Regenerates the paper's table2. Usage: `cargo run -p rc-bench --bin table2 [--scale N]`.

fn main() {
    let args = rc_bench::Args::from_env("usage: table2 [--scale N]", &[]);
    let eval = rc_bench::report::Evaluation::collect(args.scale());
    println!("{}", rc_bench::report::text_table(&rc_bench::report::table2(&eval)));
}
