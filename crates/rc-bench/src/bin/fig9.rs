//! Regenerates the paper's fig9. Usage: `cargo run -p rc-bench --bin fig9 [--scale N]`.

fn main() {
    let args = rc_bench::Args::from_env("usage: fig9 [--scale N]", &[]);
    let eval = rc_bench::report::Evaluation::collect(args.scale());
    println!("{}", rc_bench::report::text_table(&rc_bench::report::fig9(&eval)));
}
