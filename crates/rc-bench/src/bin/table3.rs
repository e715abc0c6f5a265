//! Regenerates the paper's table3. Usage: `cargo run -p rc-bench --bin table3 [--scale N]`.

fn main() {
    let args = rc_bench::Args::from_env("usage: table3 [--scale N]", &[]);
    let eval = rc_bench::report::Evaluation::collect(args.scale());
    println!("{}", rc_bench::report::text_table(&rc_bench::report::table3(&eval)));
}
